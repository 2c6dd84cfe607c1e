"""Triage of one raw finding: reduce, shrink and attribute it.

:func:`triage_finding` is the task a campaign's
:class:`~repro.campaigns.pool.TriagePool` runs, in a worker process or
in the campaign's own.  It replays test cases on single-defect MiniDB
engines, so this module imports MiniDB, and ``repro.campaigns.campaign``
imports this module only when a :class:`~repro.campaigns.campaign
.Campaign` is built: ``pqs sqlite`` imports the campaign module but
runs no MiniDB.  Workers started from a ``forkserver`` preload the
task's module, this one, and with it everything the task runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.campaigns.campaign import primary_attribution
from repro.campaigns.replay import DifferentialReplayer
from repro.core.reducer import TestCaseReducer
from repro.core.reports import BugReport, Oracle
from repro.core.shrink import QueryShrinker
from repro.errors import ReductionError
from repro.minidb.bugs import BugRegistry
from repro.multiplan.hints import BASELINE, PlannerHints
from repro.multiplan.replay import MultiPlanReplayer

#: DifferentialReplayer.difference_kind -> the oracle a case now trips.
_KIND_ORACLE = {"rows": Oracle.CONTAINMENT, "error": Oracle.ERROR,
                "crash": Oracle.CRASH}

#: The BugReport fields triage sets.
TRIAGED_FIELDS = ("test_case", "reduced", "attributed_bugs", "oracle")


@dataclass
class Triaged:
    """One finding's triage, as it comes back from a worker process."""

    #: The report's :data:`TRIAGED_FIELDS` after triage.
    fields: dict
    #: False when the finding does not reproduce or no enabled defect
    #: explains it.
    ok: bool
    #: When triage started (``time.monotonic``, system-wide on Linux)
    #: and how long it took, measured where it ran.
    started: float
    seconds: float
    #: Why the shrinker left the final query as it was, if it did.
    unshrunk: Optional[str] = None

    def apply(self, report: BugReport) -> Optional[BugReport]:
        """Set the triaged fields on *report*; the processed report, or
        None when it was not charged to a defect."""
        for name, value in self.fields.items():
            setattr(report, name, value)
        return report if self.ok else None


def triage_finding(dialect: str, bug_ids: tuple, reduce: bool,
                   report: BugReport) -> Triaged:
    """Reduce, shrink and attribute one raw finding, then re-derive the
    oracle its reduced case trips.

    The one triage task, run in a triage worker or in the campaign's
    process alike.  Its inputs are picklable; it builds fresh
    replayers, so a finding's replay memo lives exactly as long as its
    triage; and it runs without telemetry, touching nothing a campaign
    thread may lock (the campaign records the returned seconds and
    skip reason).  Mutates *report*, which in a worker is a copy.
    """
    started = time.monotonic()
    bugs = BugRegistry(set(bug_ids))
    ok, unshrunk = _triage(report, DifferentialReplayer(dialect, bugs),
                           MultiPlanReplayer(dialect, bugs), reduce)
    return Triaged(
        fields={name: getattr(report, name) for name in TRIAGED_FIELDS},
        ok=ok, started=started, seconds=time.monotonic() - started,
        unshrunk=unshrunk)


def _triage(report: BugReport, replayer: DifferentialReplayer,
            multiplan_replayer: MultiPlanReplayer,
            reduce: bool) -> tuple[bool, Optional[str]]:
    """:func:`triage_finding`'s body: (charged to a defect, unshrunk
    reason)."""
    if report.oracle is Oracle.MULTIPLAN:
        still_fails, attribute = _multiplan_replay(multiplan_replayer,
                                                   report)
    else:
        still_fails = replayer.manifests
        attribute = replayer.attribute
    if not still_fails(report.test_case):
        return False, None
    unshrunk = None
    if reduce:
        reducer = TestCaseReducer(still_fails)
        try:
            report.test_case = reducer.reduce(report.test_case)
        except ReductionError:
            return False, None
        report.reduced = True
        # Expression-level shrinking of the final query (the paper's
        # authors "manually shortened them where possible", §4.1).
        shrinker = QueryShrinker(still_fails)
        report.test_case = shrinker.shrink(report.test_case)
        unshrunk = shrinker.unshrunk
    report.attributed_bugs = attribute(report.test_case)
    if not report.attributed_bugs:
        return False, unshrunk
    if report.oracle is not Oracle.MULTIPLAN:
        # The reduced case is the reported artifact; re-derive which
        # oracle it now trips (reduction may have turned an error
        # case into a wrong-rows case, or vice versa).
        kind = replayer.difference_kind(report.test_case)
        report.oracle = _KIND_ORACLE.get(kind, report.oracle)
    # Order the primary attribution first so every consumer of
    # attributed_bugs[0] charges the same defect.
    primary = primary_attribution(report)
    report.attributed_bugs = [primary] + [
        b for b in report.attributed_bugs if b != primary]
    return True, unshrunk


def _multiplan_replay(replayer: MultiPlanReplayer, report: BugReport):
    """Failure predicate and attribution for a multi-plan finding.

    The predicate is *plan divergence under the hints that exposed the
    finding* (recovered from the report's ``plan_results``), not
    buggy-vs-clean disagreement: a multiplan defect is by construction
    invisible to single-plan replay, so minimization must preserve the
    forced executions and the cross-plan check."""
    hints_list = [PlannerHints.from_dict(entry.get("hints", {}))
                  for entry in (report.plan_results or [])]
    if not hints_list:
        # A journal predating plan_results: retry with the two
        # cheapest universally-feasible plans.
        hints_list = [BASELINE, PlannerHints(force_full_scan=True)]

    def still_diverges(test_case) -> bool:
        return replayer.diverges(test_case, hints_list)

    def attribute(test_case) -> list[str]:
        return replayer.attribute(test_case, hints_list)

    return still_diverges, attribute
