"""The multi-plan differential execution oracle.

PQS's pivot-containment oracle checks one fact about one execution: the
pivot row is in the result.  A planner defect that corrupts the result
*consistently* — every plan the planner would freely choose returns the
same wrong rows, pivot included — slips through.  This oracle closes
that gap by making the plan a controlled variable: for each synthesized
query it enumerates the feasible plans the target can be forced into
(:class:`~repro.multiplan.hints.PlannerHints`), plans each one with the
adapters' ``forced_plan`` hook, runs each distinct plan once with
``with_plan``, and demands that every plan agree on the full row
multiset.

Three properties keep it sound and cheap:

* **fingerprint dedup** — a candidate whose plan (by
  :func:`repro.guidance.fingerprint.fingerprint`) has already run is
  dropped before it runs, so the cross-check only pays for *distinct*
  plans; a candidate refused while planning or running counts as a
  forced-plan failure;
* **interpreter arbitration** — when plans disagree, the AST
  interpreter's verdict (the pivot row, computed without any planner)
  singles out which side is wrong: a plan that loses or invents the
  pivot row is deviant; when the pivot cannot arbitrate, the baseline
  (unforced) plan is presumed correct and differing plans are flagged;
* **determinism** — candidate enumeration is RNG-free and sorted, and
  forced runs go through ``forced_plan``/``with_plan``/
  ``index_candidates`` only, which are never logged into replay
  journals and never advance fault schedules, so enabling the oracle
  leaves the tested statement stream bit-identical.

DISTINCT and aggregate queries compare under a *weakened* multiset
(case-folded text): their surviving representative row legitimately
depends on scan order under non-binary collations, which is exactly the
freedom plan forcing exercises.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import DBCrash, DBError
from repro.guidance.fingerprint import fingerprint
from repro.multiplan.hints import BASELINE, PlannerHints
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry import names as metric_names
from repro.values import SQLType, Value

if TYPE_CHECKING:  # repro.core imports this module; avoid the cycle.
    from repro.core.querygen import SynthesizedQuery
    from repro.interp.base import Semantics


@dataclass
class PlanRun:
    """One distinct plan's execution of the query under test."""

    hints: PlannerHints
    fingerprint: str
    rows: list
    canonical: tuple
    deviant: bool = False

    def digest(self) -> str:
        body = "\x1e".join("\x1f".join(row) for row in self.canonical)
        return hashlib.sha256(body.encode("utf-8")).hexdigest()[:12]

    def as_result(self) -> dict:
        """The JSON-safe ``plan_results`` entry for a BugReport."""
        return {"hints": self.hints.as_dict(),
                "fingerprint": self.fingerprint,
                "rows": len(self.rows), "digest": self.digest(),
                "deviant": self.deviant}


@dataclass
class Divergence:
    """Two or more distinct plans returned different row multisets."""

    runs: list[PlanRun]
    message: str

    def plan_results(self) -> list[dict]:
        return [run.as_result() for run in self.runs]


class NullMultiPlan:
    """Off-is-free stand-in: no candidates, no executions, no state."""

    __slots__ = ()
    enabled = False

    def check(self, connection, query, semantics) -> None:
        return None

    def take_round_outcome(self) -> dict:
        return {}


NULL_MULTIPLAN = NullMultiPlan()


class MultiPlanOracle:
    """Enumerate, force, execute, and cross-check plans per query."""

    enabled = True

    def __init__(self, telemetry: Optional[Telemetry] = None):
        t = telemetry or NULL_TELEMETRY
        self._m_queries = t.counter(metric_names.MULTIPLAN_QUERIES)
        self._m_plans = t.histogram(
            metric_names.MULTIPLAN_PLANS_PER_QUERY,
            buckets=metric_names.COUNT_BUCKETS)
        self._m_divergences = t.counter(
            metric_names.MULTIPLAN_DIVERGENCES)
        self._m_failures = t.counter(
            metric_names.MULTIPLAN_FORCED_FAILURES)
        self._round_queries = 0
        self._round_divergences = 0
        self._round_failures = 0
        self._round_plans: dict[int, int] = {}

    # -- the oracle ---------------------------------------------------------
    def check(self, connection, query: SynthesizedQuery,
              semantics: Semantics) -> Optional[Divergence]:
        """Cross-check *query* across every distinct feasible plan.

        Returns a :class:`Divergence` when two plans disagree, ``None``
        when all plans agree or the target offers no plan forcing.
        """
        forced_plan = getattr(connection, "forced_plan", None)
        with_plan = getattr(connection, "with_plan", None)
        if forced_plan is None or with_plan is None:
            return None
        weak = query.distinct or query.uses_aggregates
        runs: list[PlanRun] = []
        seen: set[tuple] = set()
        for hints in self._candidates(connection, query):
            try:
                fp = fingerprint(forced_plan(query.sql, hints))
                # Dedup by fingerprint *within one statistics state*:
                # the fingerprint captures plan shape, and ANALYZE
                # changes the planner's input rather than the shape, so
                # a pre- and a post-ANALYZE run of the same shape are
                # distinct plans.
                key = (fp, hints.analyze)
                if key in seen:
                    continue
                rows = with_plan(query.sql, hints)
            except (DBError, DBCrash):
                # A forced run is introspection; a crash during one is
                # the harness's problem (restart), not a finding the
                # unforced stream could replay.
                self._round_failures += 1
                self._m_failures.inc()
                continue
            seen.add(key)
            runs.append(PlanRun(hints=hints, fingerprint=fp, rows=rows,
                                canonical=_canonical(rows, weak)))
        self._round_queries += 1
        self._m_queries.inc()
        self._round_plans[len(runs)] = \
            self._round_plans.get(len(runs), 0) + 1
        self._m_plans.observe(len(runs))
        if len(runs) < 2:
            return None
        if len({run.canonical for run in runs}) == 1:
            return None
        self._round_divergences += 1
        self._m_divergences.inc()
        self._arbitrate(runs, query, semantics, connection.dialect)
        deviants = [run for run in runs if run.deviant]
        message = (
            f"multi-plan divergence on {len(runs)} plans "
            f"({len(deviants)} deviant): "
            + "; ".join(f"{run.hints.describe()} -> {len(run.rows)} rows"
                        for run in runs))
        return Divergence(runs=runs, message=message)

    def take_round_outcome(self) -> dict:
        """Drain this round's counters into a journal-ready dict."""
        if self._round_queries == 0 and self._round_failures == 0:
            return {}
        outcome = {
            "queries": self._round_queries,
            "divergences": self._round_divergences,
            "forced_failures": self._round_failures,
            "plans": {str(k): v
                      for k, v in sorted(self._round_plans.items())},
        }
        self._round_queries = 0
        self._round_divergences = 0
        self._round_failures = 0
        self._round_plans = {}
        return outcome

    # -- internals ----------------------------------------------------------
    def _candidates(self, connection,
                    query: SynthesizedQuery) -> list[PlannerHints]:
        """Deterministic, RNG-free enumeration: baseline first, then the
        forcing knobs in a fixed order, then one forced-index candidate
        per explicit index on the query's tables (sorted by name)."""
        out = [BASELINE,
               PlannerHints(force_full_scan=True),
               PlannerHints(force_full_scan=True, analyze=True),
               PlannerHints(no_like_opt=True)]
        index_fn = getattr(connection, "index_candidates", None)
        if index_fn is not None:
            try:
                names = index_fn(list(query.table_names))
            except (DBError, DBCrash):
                names = []
            for name in names:
                out.append(PlannerHints(force_index=name))
        return out

    @staticmethod
    def _arbitrate(runs: list[PlanRun], query: SynthesizedQuery,
                   semantics: Semantics, dialect: str) -> None:
        """Mark deviant runs.

        The interpreter's pivot verdict is exact: for a positive query
        the pivot row must appear in every plan's result, for a negative
        query it must appear in none.  Runs that violate it are deviant.
        If the pivot cannot discriminate (every run passes), fall back
        to presuming the baseline (first) run correct."""
        from repro.core.containment import rows_contain_pivot

        verdicts = []
        for run in runs:
            contains = rows_contain_pivot(run.rows, query, semantics,
                                          dialect)
            ok = (not contains) if query.negative else contains
            verdicts.append(ok)
        if any(verdicts) and not all(verdicts):
            for run, ok in zip(runs, verdicts):
                run.deviant = not ok
            return
        reference = runs[0].canonical
        for run in runs[1:]:
            if run.canonical != reference:
                run.deviant = True


def _canonical(rows: list, weak: bool) -> tuple:
    """Order-insensitive, process-stable multiset key for *rows*.

    Exact by default; *weak* (DISTINCT/aggregate queries) case-folds
    TEXT so collation-dependent representative choice does not count as
    a divergence."""
    keys = sorted(tuple(_value_key(v, weak) for v in row) for row in rows)
    return tuple(keys)


def _value_key(value: Value, weak: bool) -> str:
    v = value.v
    if isinstance(v, float) and v != v:
        return f"{value.t.value}:nan"
    if weak and value.t is SQLType.TEXT:
        return f"{value.t.value}:{str(v).casefold()!r}"
    return f"{value.t.value}:{v!r}"
