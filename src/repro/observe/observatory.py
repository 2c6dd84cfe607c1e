"""The observatory: one read-side hub over a live campaign's state.

The status server, the progress line, and the final report all want the
same answers — how far along is the hunt, what did it find — but the
authoritative sources are scattered: the
:class:`~repro.campaigns.scheduler.RoundQueue` knows exact settled
counts (quarantined rounds included), the metrics registry knows
throughput, and the plan-coverage set knows novelty.  :class:`Observatory` holds weak
references to whichever of those a campaign attaches and computes
consistent read-only views on demand.

Strictly read-side: the observatory never mutates campaign state, takes
only the locks the underlying structures already take for any reader,
and is therefore safe to poll from an HTTP thread while the hunt runs.
The disabled default is :data:`NULL_OBSERVATORY`.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.reports import RunStatistics
from repro.observe.events import NULL_EVENTS, EventLog


class Observatory:
    """Aggregates live campaign state for status readers."""

    enabled = True

    def __init__(self, campaign: str = "", dialect: str = "",
                 seed: int = 0, total_rounds: int = 0,
                 events: Optional[EventLog] = None, registry=None):
        self.campaign = campaign
        self.dialect = dialect
        self.seed = seed
        self.total_rounds = total_rounds
        self.events = events if events is not None else NULL_EVENTS
        self.registry = registry
        self._queue = None
        self._coverage = None
        self._start = time.monotonic()
        self._finished: Optional[float] = None

    # -- attachment (called once each by the campaign layers) ---------------
    def attach_queue(self, queue) -> None:
        self._queue = queue

    def attach_coverage(self, coverage) -> None:
        self._coverage = coverage

    def mark_finished(self) -> None:
        self._finished = time.monotonic()

    # -- views ---------------------------------------------------------------
    def counts(self) -> tuple[int, int]:
        """(completed, quarantined) — exact queue bookkeeping, the
        :class:`~repro.telemetry.progress.ProgressReporter` ``counts``
        hook."""
        if self._queue is None:
            return 0, 0
        snapshot = self._queue.counts()
        return snapshot["completed"], snapshot["quarantined"]

    def status(self) -> dict:
        """The ``/status`` document: rounds, throughput, ETA."""
        elapsed = (self._finished or time.monotonic()) - self._start
        status: dict = {
            "campaign": self.campaign,
            "dialect": self.dialect,
            "seed": self.seed,
            "elapsed_seconds": round(elapsed, 3),
            "finished": self._finished is not None,
            "events": len(self.events),
        }
        status["rounds"] = self._round_counts()
        done = (status["rounds"]["completed"]
                + status["rounds"]["quarantined"])
        total = status["rounds"]["total"]
        status["throughput"] = self._throughput(done, elapsed)
        if total and done and not status["finished"]:
            remaining = max(total - done, 0)
            status["eta_seconds"] = round(remaining * elapsed / done, 3)
        status["multiplan"] = self.multiplan()
        return status

    def _round_counts(self) -> dict:
        if self._queue is not None:
            return self._queue.counts()
        # No queue attached (plain single-process hunt): fall back to
        # the shared registry's round counter, which that mode updates
        # live.
        completed = 0
        if self.registry is not None:
            from repro.telemetry import names
            completed = int(self.registry.value(names.ROUNDS))
        total = self.total_rounds
        if total:
            completed = min(completed, total)
        return {"total": total, "completed": completed,
                "quarantined": 0, "leased": 0,
                "pending": max(total - completed, 0)}

    def _throughput(self, done: int, elapsed: float) -> dict:
        throughput = {
            "rounds_per_second": round(done / elapsed, 4)
            if elapsed > 0 else 0.0,
        }
        if self.registry is not None:
            from repro.telemetry import names
            queries = int(self.registry.value(names.QUERIES))
            statements = int(self.registry.value(names.STATEMENTS))
            throughput["queries"] = queries
            throughput["statements"] = statements
            if elapsed > 0:
                throughput["queries_per_second"] = round(
                    queries / elapsed, 2)
        return throughput

    def bugs(self) -> list[dict]:
        """The ``/bugs`` document: raw findings journaled so far, as
        :meth:`~repro.core.reports.BugReport.to_json` dicts tagged with
        their round and content fingerprint."""
        if self._queue is None:
            return []
        found = []
        for record in self._queue.records_in_order():
            for report in record.reports:
                entry = report.to_json()
                entry["round"] = record.index
                entry["fingerprint"] = report.fingerprint()
                found.append(entry)
        return found

    def coverage(self) -> dict:
        """The ``/coverage`` document: plan-coverage summary."""
        if self._coverage is None:
            return {"tracked": False}
        return {"tracked": True,
                "distinct_plans": len(self._coverage)}

    def multiplan(self) -> dict:
        """Live multi-plan oracle activity: exact queue-record fold when
        a queue is attached, shared-registry counters otherwise (plain
        single-process hunts, where the runner updates them live)."""
        queries = divergences = failures = 0
        if self._queue is not None:
            stats = RunStatistics()
            for record in self._queue.records_in_order():
                stats.absorb_multiplan(record.multiplan)
            queries = stats.multiplan_queries
            divergences = stats.multiplan_divergences
            failures = stats.multiplan_forced_failures
        elif self.registry is not None:
            from repro.telemetry import names
            queries = int(self.registry.value(names.MULTIPLAN_QUERIES))
            divergences = int(
                self.registry.value(names.MULTIPLAN_DIVERGENCES))
            failures = int(
                self.registry.value(names.MULTIPLAN_FORCED_FAILURES))
        return {"active": queries > 0, "queries": queries,
                "divergences": divergences,
                "forced_failures": failures}


class NullObservatory:
    """Shared disabled observatory — every attach/read is a no-op."""

    enabled = False
    campaign = ""
    dialect = ""
    seed = 0
    total_rounds = 0
    events = NULL_EVENTS
    registry = None

    def attach_queue(self, queue) -> None:
        pass

    def attach_coverage(self, coverage) -> None:
        pass

    def mark_finished(self) -> None:
        pass

    def counts(self) -> tuple[int, int]:
        return 0, 0

    def status(self) -> dict:
        return {}

    def bugs(self) -> list[dict]:
        return []

    def coverage(self) -> dict:
        return {}

    def multiplan(self) -> dict:
        return {}


#: The library-wide disabled default.
NULL_OBSERVATORY = NullObservatory()
