"""The unified campaign event log: one typed, correlated JSONL stream.

A long-running hunt already leaves three artifacts — the journal (what
each round produced), the span trace (how long each phase took), and
the metrics snapshot (how much of everything happened).  The event log
is the *narrative*: when each round started and finished, when a bug
surfaced, which rounds found new plans.  It shares correlation keys
with the other artifacts so they all join:

* ``campaign`` — the campaign id (``<dialect>-s<seed>``), identical in
  every event of a run;
* ``round`` / ``round_seed`` — the round index and its derived seed,
  exactly the ``index``/``seed`` fields of journal lines and the
  ``round``/``round_seed`` context attributes of trace spans;
* ``worker`` — the executor id, always 0 since one executor runs every
  round.

The vocabulary, in emission order: the CLI brackets a hunt with
``campaign_start``/``campaign_end``; on the journaled and
``threads > 1`` path each round emits ``round_leased`` as it starts and
``round_completed`` when it ends, followed by its ``bug_found`` and
``plan_novel`` events.

One event per line, JSON, append-only (:class:`JsonlSink` compatible);
``seq`` is a monotonic emission counter and ``t`` is monotonic seconds
since the log was born.  Rounds run in index order in one thread, so
apart from ``t`` and ``wall`` a campaign's stream is the same on every
run: ``--threads N`` and a single journaled stream of the same rounds
emit the same round events.

The log is **observation only**: nothing in it feeds back into
generation, so a campaign with the log on is statement-for-statement
identical to one without.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Optional

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


# -- reading a log back ---------------------------------------------------------
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
