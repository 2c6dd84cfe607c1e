"""Differential replay: does a test case still manifest its defect?

Replaying a candidate test case against a defect-injected engine *and* a
clean engine of the same dialect answers two questions:

* **reduction** — the failure manifests iff the two engines disagree on
  the final statement's outcome (rows / error / crash), so the reducer
  can delete statements while preserving the defect's manifestation;
* **attribution** — replaying against engines with exactly one defect
  enabled identifies which injected defect(s) a finding exposes,
  providing the ground truth the paper got from upstream developers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.reports import TestCase
from repro.errors import DBCrash, DBError
from repro.interp import get_semantics
from repro.minidb.bugs import BugRegistry
from repro.minidb.engine import Engine


@dataclass(frozen=True)
class StatementOutcome:
    """Comparable outcome of one statement execution."""

    kind: str                       # 'rows' | 'error' | 'crash'
    payload: tuple = ()
    message: str = ""


class DifferentialReplayer:
    """Replays test cases against buggy and clean MiniDB engines."""

    def __init__(self, dialect: str, bugs: BugRegistry):
        self.dialect = dialect
        self.bugs = bugs
        self.semantics = get_semantics(dialect)
        #: (defects, statements) -> outcome, for this replayer's one
        #: finding (each triage builds fresh replayers).
        self._memo: dict[tuple, StatementOutcome] = {}

    # -- predicates -----------------------------------------------------------
    def manifests(self, test_case: TestCase) -> bool:
        """True when buggy and clean engines disagree on the final
        statement (the reducer's failure predicate)."""
        buggy = self._outcome(BugRegistry(set(self.bugs.enabled)),
                              test_case)
        clean = self._outcome(BugRegistry(), test_case)
        return not self._equivalent(buggy, clean)

    def difference_kind(self, test_case: TestCase) -> Optional[str]:
        """How buggy and clean engines disagree on the final statement:
        'crash' | 'error' | 'rows', or None when they agree.

        Delta debugging minimizes "some disagreement", so a case that
        originally *errored* can reduce to one that merely returns wrong
        rows; the reduced artifact's oracle classification must be
        re-derived from the reduced case itself.
        """
        buggy = self._outcome(BugRegistry(set(self.bugs.enabled)),
                              test_case)
        clean = self._outcome(BugRegistry(), test_case)
        if self._equivalent(buggy, clean):
            return None
        if buggy.kind == "crash":
            return "crash"
        if buggy.kind == "error":
            return "error"
        return "rows"

    def attribute(self, test_case: TestCase,
                  candidates: Optional[list[str]] = None) -> list[str]:
        """Injected defects that individually reproduce this test case."""
        clean = self._outcome(BugRegistry(), test_case)
        attributed = []
        for bug_id in (candidates if candidates is not None
                       else sorted(self.bugs.enabled)):
            single = self._outcome(BugRegistry({bug_id}), test_case)
            if not self._equivalent(single, clean):
                attributed.append(bug_id)
        return attributed

    # -- execution -----------------------------------------------------------
    def _outcome(self, bugs: BugRegistry,
                 test_case: TestCase) -> StatementOutcome:
        """Memoized: a replay is a pure function of the enabled defects
        and the statements, and delta debugging, the predicate's
        pre-check, attribution and difference_kind re-ask the same
        ones."""
        key = (frozenset(bugs.enabled), tuple(test_case.statements))
        outcome = self._memo.get(key)
        if outcome is None:
            outcome = self._memo[key] = self._replay(bugs, test_case)
        return outcome

    def _replay(self, bugs: BugRegistry,
                test_case: TestCase) -> StatementOutcome:
        engine = Engine(self.dialect, bugs=bugs)
        final = test_case.statements[-1]
        for sql in test_case.statements[:-1]:
            try:
                engine.execute(sql)
            except DBCrash as crash:
                return StatementOutcome("crash", message=crash.message)
            except DBError:
                continue  # prefix statements may legitimately fail
        try:
            result = engine.execute(final)
        except DBCrash as crash:
            return StatementOutcome("crash", message=crash.message)
        except DBError as error:
            return StatementOutcome("error", message=error.message)
        return StatementOutcome(
            "rows", payload=tuple(sorted(map(repr, result.rows))))

    def _equivalent(self, a: StatementOutcome,
                    b: StatementOutcome) -> bool:
        if a.kind != b.kind:
            return False
        if a.kind == "rows":
            return a.payload == b.payload
        return a.message == b.message
