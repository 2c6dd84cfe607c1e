"""The observatory: one read-side hub over a live campaign's state.

The status server, the progress line, and the final report all want the
same answers — how far along is the hunt, what did it find — but the
authoritative sources are scattered: the metrics registry counts rounds
and knows throughput, the campaign's completed round records hold the
findings, and the plan-coverage set knows novelty.
:class:`Observatory` holds whichever of those a campaign hands it and
computes consistent read-only views on demand.

Strictly read-side: the observatory never mutates campaign state, and
its own state (the round records it was handed) sits behind one lock,
so it is safe to poll from an HTTP thread while the hunt runs.  The
disabled default is :data:`NULL_OBSERVATORY`.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.core.reports import RunStatistics
from repro.telemetry import names
from repro.telemetry.progress import eta_seconds, round_counts


class Observatory:
    """Aggregates live campaign state for status readers."""

    enabled = True

    def __init__(self, campaign: str = "", dialect: str = "",
                 seed: int = 0, total_rounds: int = 0, registry=None):
        self.campaign = campaign
        self.dialect = dialect
        self.seed = seed
        self.total_rounds = total_rounds
        self.registry = registry
        #: Completed round records, handed over one by one on the
        #: journaled and ``threads > 1`` path; None on a plain hunt.
        self._rounds: Optional[list] = None
        self._rounds_lock = threading.Lock()
        self._coverage = None
        self._start = time.monotonic()
        self._finished: Optional[float] = None

    # -- attachment (called by the campaign layers) -------------------------
    def add_round(self, record) -> None:
        """Take one completed (or journal-loaded) round record."""
        with self._rounds_lock:
            if self._rounds is None:
                self._rounds = []
            self._rounds.append(record)

    def attach_coverage(self, coverage) -> None:
        self._coverage = coverage

    def mark_finished(self) -> None:
        self._finished = time.monotonic()

    # -- views ---------------------------------------------------------------
    def status(self) -> dict:
        """The ``/status`` document: rounds, throughput, ETA."""
        elapsed = (self._finished or time.monotonic()) - self._start
        status: dict = {
            "campaign": self.campaign,
            "dialect": self.dialect,
            "seed": self.seed,
            "elapsed_seconds": round(elapsed, 3),
            "finished": self._finished is not None,
        }
        total = self.total_rounds
        done = ran = 0
        if self.registry is not None:
            done, ran = round_counts(self.registry, total)
        status["rounds"] = {"total": total, "completed": done,
                            "pending": max(total - done, 0)}
        status["throughput"] = self._throughput(ran, elapsed)
        eta = eta_seconds(done, ran, total, elapsed)
        if eta is not None and not status["finished"]:
            status["eta_seconds"] = round(eta, 3)
        status["multiplan"] = self.multiplan()
        return status

    def _throughput(self, ran: int, elapsed: float) -> dict:
        """Rates over the rounds and queries this process ran."""
        throughput = {
            "rounds_per_second": round(ran / elapsed, 4)
            if elapsed > 0 else 0.0,
        }
        if self.registry is not None:
            queries = int(self.registry.value(names.QUERIES))
            statements = int(self.registry.value(names.STATEMENTS))
            throughput["queries"] = queries
            throughput["statements"] = statements
            if elapsed > 0:
                throughput["queries_per_second"] = round(
                    queries / elapsed, 2)
        return throughput

    def _records(self) -> Optional[list]:
        """The handed-over round records sorted by round index; None on
        a plain hunt."""
        with self._rounds_lock:
            if self._rounds is None:
                return None
            records = list(self._rounds)
        return sorted(records, key=lambda record: record.index)

    def bugs(self) -> list[dict]:
        """The ``/bugs`` document: raw findings journaled so far, as
        :meth:`~repro.core.reports.BugReport.to_json` dicts tagged with
        their round and content fingerprint."""
        found = []
        for record in self._records() or ():
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
        """Live multi-plan oracle activity: an exact fold of the round
        records when the campaign hands them over (journal-loaded rounds
        included), shared-registry counters otherwise (plain hunts,
        where the runner updates them live)."""
        queries = divergences = failures = 0
        records = self._records()
        if records is not None:
            stats = RunStatistics()
            for record in records:
                stats.absorb_multiplan(record.multiplan)
            queries = stats.multiplan_queries
            divergences = stats.multiplan_divergences
            failures = stats.multiplan_forced_failures
        elif self.registry is not None:
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
    registry = None

    def add_round(self, record) -> None:
        pass

    def attach_coverage(self, coverage) -> None:
        pass

    def mark_finished(self) -> None:
        pass

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
