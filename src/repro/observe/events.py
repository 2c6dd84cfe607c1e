"""The unified campaign event log: one typed, correlated JSONL stream.

A long-running hunt already leaves three artifacts — the journal (what
each round produced), the span trace (how long each phase took), and
the metrics snapshot (how much of everything happened).  What was
missing is the *narrative*: which round was leased when, what
failed and why, where chaos struck, when a bug surfaced.  The event log
is that narrative, and it shares correlation keys with the other
artifacts so they all join:

* ``campaign`` — the campaign id (``<dialect>-s<seed>``), identical in
  every event of a run;
* ``round`` / ``round_seed`` — the round index and its derived seed,
  exactly the ``index``/``seed`` fields of journal lines and the
  ``round``/``round_seed`` context attributes of trace spans;
* ``worker`` — the executor id, always 0 since one executor runs every
  round; kept so logs of older multi-worker builds still merge.

One event per line, JSON, append-only (:class:`JsonlSink` compatible);
``seq`` is a campaign-wide monotonic emission counter and ``t`` is
monotonic seconds since the log was born, so one process's stream is
totally ordered even when workers interleave.

**Determinism.**  Emission *order* across workers is scheduling — two
runs of the same campaign under different thread counts or chaos
schedules interleave differently.  What is deterministic is the
*outcome sub-stream*: :func:`merge_events` re-orders any collection of
per-worker or per-process streams by a canonical schedule-independent
key, and :func:`deterministic_view` projects the merged stream down to
the events (and fields) that depend only on the campaign definition —
round completions, quarantines, bugs — which the tests assert are
bit-identical across thread counts and chaos schedules (plan novelty is
worker-relative per event; its schedule-free invariant is the union,
:func:`novel_fingerprints`).

The log is **observation only**: nothing in it feeds back into
generation, so a campaign with the log on is statement-for-statement
identical to one without (asserted by the chaos acceptance tests).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Iterable, Optional

#: The event vocabulary.  The rank is the canonical tiebreak order for
#: events of one round when streams are merged: a round is leased, may
#: fail, then completes or is quarantined; bugs and plan novelty hang
#: off the completion.  The ``worker_*`` kinds are no longer emitted;
#: they stay so logs written by older thread-fleet builds still merge
#: and report.
KIND_RANK = {
    "campaign_start": 0,
    "worker_start": 1,
    "round_leased": 2,
    "chaos_transient": 3,
    "round_failed": 4,
    "worker_death": 5,
    "worker_stalled": 6,
    "worker_restart": 7,
    "worker_retired": 8,
    "chaos_corruption": 9,
    "round_completed": 10,
    "bug_found": 11,
    "plan_novel": 12,
    "round_quarantined": 13,
    "campaign_end": 14,
}

#: Kinds whose occurrence and payload depend only on the campaign
#: definition (seed, dialect, round set), never on scheduling or chaos
#: — the sub-stream :func:`deterministic_view` keeps.  ``plan_novel``
#: is deliberately absent: novelty is judged against the *worker-local*
#: seen-set, so which round an event credits depends on scheduling.
#: Only the union of its fingerprints is schedule-free — use
#: :func:`novel_fingerprints` for that invariant.
DETERMINISTIC_KINDS = ("round_completed", "bug_found",
                       "round_quarantined")

#: Schedule-independent payload fields per deterministic kind (``kind``,
#: ``campaign``, ``round``, ``round_seed`` are always kept; ``worker``,
#: ``seq``, ``t``, ``wall`` and timing attrs never are).
_DETERMINISTIC_ATTRS = {
    "round_completed": ("statements", "queries", "pivots",
                        "expected_errors", "timeouts", "reports"),
    "bug_found": ("oracle", "message", "ordinal"),
    "round_quarantined": ("error",),
}


def campaign_id(dialect: str, seed: int) -> str:
    """The canonical campaign correlation id: seeded, human-readable."""
    return f"{dialect}-s{seed}"


class EventLog:
    """Thread-safe, bounded-memory event stream for one campaign.

    Every event lands in a ring buffer (the ``/events`` endpoint's
    tail) and, when a sink is attached, is appended to it as one JSON
    line.  The sink only needs ``write(dict)``/``close()`` — the
    tracer's :class:`~repro.telemetry.tracer.JsonlSink` fits.
    """

    enabled = True

    def __init__(self, campaign: str = "", sink=None,
                 capacity: int = 4096):
        self.campaign = campaign
        self.sink = sink
        self._lock = threading.Lock()
        self._seq = 0
        self._origin = time.monotonic()
        self._wall_anchor = time.time() - self._origin
        self._ring: deque = deque(maxlen=max(capacity, 1))

    # -- emission -----------------------------------------------------------
    def emit(self, kind: str, round: Optional[int] = None,
             worker: Optional[int] = None,
             round_seed: Optional[int] = None, **attrs) -> dict:
        """Record one event; returns the event dict that was written."""
        now = time.monotonic()
        event: dict = {"kind": kind, "campaign": self.campaign}
        if round is not None:
            event["round"] = round
        if round_seed is not None:
            event["round_seed"] = round_seed
        if worker is not None:
            event["worker"] = worker
        clean = {k: v for k, v in attrs.items() if v is not None}
        if clean:
            event["attrs"] = clean
        with self._lock:
            event["seq"] = self._seq
            self._seq += 1
            event["t"] = round_t(now - self._origin)
            event["wall"] = round_t(self._wall_anchor + now)
            self._ring.append(event)
            sink = self.sink
        if sink is not None:
            sink.write(event)
        return event

    # -- reading ------------------------------------------------------------
    def tail(self, limit: int = 100) -> list[dict]:
        """The most recent *limit* events, oldest first."""
        with self._lock:
            events = list(self._ring)
        if limit <= 0:
            return []
        return events[-limit:]

    def events(self) -> list[dict]:
        """Everything still in the ring buffer, oldest first."""
        with self._lock:
            return list(self._ring)

    def __len__(self) -> int:
        with self._lock:
            return self._seq

    def close(self) -> None:
        with self._lock:
            sink, self.sink = self.sink, None
        if sink is not None:
            sink.close()


class NullEventLog:
    """Shared no-op log — the default when observability is off."""

    enabled = False
    campaign = ""
    sink = None

    def emit(self, kind: str, round: Optional[int] = None,
             worker: Optional[int] = None,
             round_seed: Optional[int] = None, **attrs) -> dict:
        return {}

    def tail(self, limit: int = 100) -> list[dict]:
        return []

    def events(self) -> list[dict]:
        return []

    def __len__(self) -> int:
        return 0

    def close(self) -> None:
        pass


#: The library-wide disabled default.
NULL_EVENTS = NullEventLog()


def round_t(value: float) -> float:
    return round(value, 6)


# -- offline stream algebra ---------------------------------------------------
def load_events(path: str) -> list[dict]:
    """Events from a JSONL file, skipping unparseable lines (the log is
    observability, not ground truth — a torn tail must not fail
    triage)."""
    events: list[dict] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(data, dict) and "kind" in data:
                events.append(data)
    return events


def merge_events(*streams: Iterable[dict]) -> list[dict]:
    """Merge per-worker/per-process streams into one canonical order.

    The sort key is built from schedule-independent fields first —
    (has-round, round index, kind rank, intra-round ordinal) — with the
    per-stream emission ``seq`` only as the final tiebreak, so events
    that *are* deterministic always land in the same relative order no
    matter how many workers produced them or how chaos reshuffled the
    scheduling.  Events without a round (worker lifecycle) sort after
    all rounds, by kind rank then seq.
    """
    merged = [event for stream in streams for event in stream]
    merged.sort(key=_canonical_key)
    return merged


def _canonical_key(event: dict) -> tuple:
    round_index = event.get("round")
    attrs = event.get("attrs", {})
    return (
        0 if round_index is not None else 1,
        round_index if round_index is not None else -1,
        KIND_RANK.get(event.get("kind"), 99),
        attrs.get("ordinal", -1),
        attrs.get("attempt", -1),
        event.get("seq", -1),
    )


def deterministic_view(events: Iterable[dict]) -> list[dict]:
    """The schedule-independent projection of a (merged) stream.

    Keeps only :data:`DETERMINISTIC_KINDS`, drops the fields whose
    values depend on scheduling (``worker``, ``seq``, ``t``, ``wall``,
    timing attrs), and deduplicates — a stolen lease can complete twice
    across two streams, but the projection, like the journal, keeps one.
    Two runs of the same campaign produce bit-identical views whatever
    the thread count or chaos schedule.
    """
    view: list[dict] = []
    seen: set[str] = set()
    for event in merge_events(events):
        kind = event.get("kind")
        if kind not in DETERMINISTIC_KINDS:
            continue
        projected: dict = {"kind": kind,
                           "campaign": event.get("campaign", "")}
        for field in ("round", "round_seed"):
            if field in event:
                projected[field] = event[field]
        attrs = event.get("attrs", {})
        kept = {k: attrs[k] for k in _DETERMINISTIC_ATTRS[kind]
                if k in attrs}
        if kept:
            projected["attrs"] = kept
        key = json.dumps(projected, sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        view.append(projected)
    return view


def novel_fingerprints(events: Iterable[dict]) -> list[str]:
    """The union of ``plan_novel`` fingerprints, sorted.

    Per-event novelty is worker-relative (see
    :data:`DETERMINISTIC_KINDS`), but every plan any round discovers is
    novel for *some* worker under *some* schedule, so the union is the
    campaign's distinct-plan set — schedule-independent, and identical
    to the merged coverage the journal rebuilds.
    """
    fingerprints: set[str] = set()
    for event in events:
        if event.get("kind") == "plan_novel":
            fingerprints.update(
                event.get("attrs", {}).get("fingerprints", ()))
    return sorted(fingerprints)
