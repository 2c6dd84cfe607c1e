"""Multi-plan differential replay: does a test case still diverge?

The campaign's reducer needs a *predicate* that is true exactly while a
candidate test case keeps manifesting its defect.  For containment and
error findings that predicate is buggy-vs-clean disagreement
(:class:`repro.campaigns.replay.DifferentialReplayer`).  A multi-plan
finding is different: the defect manifests as *plan-vs-plan*
disagreement on one engine, so the predicate replays the case's final
query under the same forcing hints that exposed it and checks that

* the buggy engine's plans still disagree with each other, and
* a clean engine's plans do **not** — plan forcing must be
  behavior-preserving on a correct engine, so any clean-engine
  divergence means the disagreement is not the injected defect's.

Attribution replays against single-defect engines exactly like the
differential replayer does.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import DBCrash, DBError
from repro.minidb.bugs import BugRegistry
from repro.multiplan.hints import PlannerHints
from repro.multiplan.oracle import _canonical

if TYPE_CHECKING:  # both import this package; avoid the cycles.
    from repro.core.reports import TestCase


class MultiPlanReplayer:
    """Replays forced-plan executions against buggy and clean MiniDB."""

    def __init__(self, dialect: str, bugs: BugRegistry):
        self.dialect = dialect
        self.bugs = bugs
        #: (defects, statements, hints) -> divergence, for this
        #: replayer's one finding (each triage builds fresh replayers).
        self._memo: dict[tuple, bool] = {}

    # -- predicates ---------------------------------------------------------
    def diverges(self, test_case: TestCase,
                 hints_list: list[PlannerHints]) -> bool:
        """The reducer's failure predicate: forced plans disagree on the
        buggy engine and agree on the clean one."""
        return (self._diverges_under(BugRegistry(set(self.bugs.enabled)),
                                     test_case, hints_list)
                and not self._diverges_under(BugRegistry(), test_case,
                                             hints_list))

    def attribute(self, test_case: TestCase,
                  hints_list: list[PlannerHints],
                  candidates: Optional[list[str]] = None) -> list[str]:
        """Injected defects that individually reproduce the divergence."""
        attributed = []
        for bug_id in (candidates if candidates is not None
                       else sorted(self.bugs.enabled)):
            if self._diverges_under(BugRegistry({bug_id}), test_case,
                                    hints_list):
                attributed.append(bug_id)
        return attributed

    # -- execution ----------------------------------------------------------
    def _diverges_under(self, bugs: BugRegistry, test_case: TestCase,
                        hints_list: list[PlannerHints]) -> bool:
        """Memoized: a replay is a pure function of the enabled defects,
        the statements and the hints, and delta debugging, the
        predicate's pre-check and attribution re-ask the same ones."""
        key = (frozenset(bugs.enabled), tuple(test_case.statements),
               tuple(hints_list))
        diverged = self._memo.get(key)
        if diverged is None:
            diverged = self._memo[key] = self._replay(bugs, test_case,
                                                      hints_list)
        return diverged

    def _replay(self, bugs: BugRegistry, test_case: TestCase,
                hints_list: list[PlannerHints]) -> bool:
        from repro.adapters.minidb_adapter import MiniDBConnection

        connection = MiniDBConnection(self.dialect, bugs=bugs)
        final = test_case.statements[-1]
        for sql in test_case.statements[:-1]:
            try:
                connection.execute(sql)
            except DBCrash:
                return False
            except DBError:
                continue  # prefix statements may legitimately fail
        # Every hint runs, even two that plan alike: the predicate
        # compares the rows of all of them.
        outcomes = set()
        for hints in hints_list:
            try:
                rows = connection.with_plan(final, hints)
            except DBCrash:
                return False
            except DBError:
                continue  # an infeasible forced plan is not a divergence
            outcomes.add(_canonical(rows, weak=False))
        return len(outcomes) > 1
