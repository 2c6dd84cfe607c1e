"""The multi-plan differential oracle: hints, candidates, arbitration,
and the off-is-free determinism invariant."""

import pytest

from repro.adapters.minidb_adapter import MiniDBConnection
from repro.core.querygen import SynthesizedQuery
from repro.core.runner import PQSRunner, RunnerConfig
from repro.errors import DBError
from repro.interp import make_interpreter
from repro.minidb.bugs import BugRegistry
from repro.multiplan import (
    BASELINE,
    MultiPlanOracle,
    NULL_MULTIPLAN,
    NullMultiPlan,
    PlannerHints,
)
from repro.sqlast.nodes import ColumnNode
from repro.values import Value

SEMANTICS = make_interpreter("sqlite").semantics

STATE = ("CREATE TABLE t0 (c0 TEXT)",
         "CREATE INDEX i0 ON t0 (c0)",
         "INSERT INTO t0 VALUES ('a'), ('b'), ('c')")


def build(*bug_ids: str) -> MiniDBConnection:
    conn = MiniDBConnection("sqlite", bugs=BugRegistry(set(bug_ids)))
    for sql in STATE:
        conn.execute(sql)
    return conn


def query(sql: str = "SELECT c0 FROM t0",
          pivot: str = "c") -> SynthesizedQuery:
    return SynthesizedQuery(
        sql=sql, targets=[ColumnNode("t0", "c0")],
        expected=[Value.text(pivot)], table_names=["t0"])


class TestPlannerHints:
    def test_baseline_is_default(self):
        assert BASELINE.is_baseline
        assert BASELINE.describe() == "baseline"

    def test_contradictory_hints_rejected(self):
        with pytest.raises(DBError):
            PlannerHints(force_full_scan=True,
                         force_index="i0").validate()

    def test_unknown_index_rejected_by_with_plan(self):
        conn = build()
        with pytest.raises(DBError):
            conn.with_plan("SELECT c0 FROM t0",
                           PlannerHints(force_index="no_such_index"))

    def test_roundtrips_through_dict(self):
        hints = PlannerHints(force_index="i0", analyze=True)
        assert PlannerHints.from_dict(hints.as_dict()) == hints
        assert PlannerHints.from_dict(BASELINE.as_dict()) == BASELINE

    def test_with_plan_is_not_part_of_the_stream(self):
        conn = build()
        before = conn.statements_executed
        for hints in (PlannerHints(force_index="i0"),
                      PlannerHints(force_full_scan=True, analyze=True)):
            conn.forced_plan("SELECT c0 FROM t0", hints)
            conn.with_plan("SELECT c0 FROM t0", hints)
        assert conn.statements_executed == before
        # Forcing state (the hints) is cleared.
        assert conn.engine.hints is None


class TestNullMultiPlan:
    def test_is_free(self):
        assert NullMultiPlan.enabled is False
        assert NULL_MULTIPLAN.check(None, None, None) is None
        assert NULL_MULTIPLAN.take_round_outcome() == {}

    def test_runner_defaults_to_null(self):
        runner = PQSRunner(lambda: MiniDBConnection("sqlite"),
                           RunnerConfig(dialect="sqlite", seed=0))
        assert runner.multiplan is NULL_MULTIPLAN

    def test_runner_builds_oracle_when_configured(self):
        runner = PQSRunner(
            lambda: MiniDBConnection("sqlite"),
            RunnerConfig(dialect="sqlite", seed=0, multiplan=True))
        assert isinstance(runner.multiplan, MultiPlanOracle)


class TestOracle:
    def test_clean_engine_plans_agree(self):
        oracle = MultiPlanOracle()
        assert oracle.check(build(), query(), SEMANTICS) is None
        outcome = oracle.take_round_outcome()
        assert outcome["queries"] == 1
        assert outcome["divergences"] == 0
        # Baseline, full-scan (pre/post-ANALYZE) and the forced index
        # all executed; same-shape duplicates deduped by fingerprint.
        assert sum(int(plans) * count
                   for plans, count in outcome["plans"].items()) >= 2

    def test_divergence_detected_and_arbitrated(self):
        oracle = MultiPlanOracle()
        divergence = oracle.check(
            build("sqlite-forced-index-fencepost"), query(), SEMANTICS)
        assert divergence is not None
        deviant = [run for run in divergence.runs if run.deviant]
        agreed = [run for run in divergence.runs if not run.deviant]
        # The forced index scan lost the key-largest row 'c' (the
        # pivot); the interpreter verdict marks it — and only it —
        # deviant, keeping the baseline and full-scan runs.
        assert [run.hints.force_index for run in deviant] == ["i0"]
        assert [len(run.rows) for run in deviant] == [2]
        assert any(run.hints.is_baseline for run in agreed)
        assert all(len(run.rows) == 3 for run in agreed)
        assert "divergence" in divergence.message
        assert oracle.take_round_outcome()["divergences"] == 1

    def test_plan_results_are_json_safe(self):
        import json

        oracle = MultiPlanOracle()
        divergence = oracle.check(
            build("sqlite-forced-index-fencepost"), query(), SEMANTICS)
        results = divergence.plan_results()
        assert json.loads(json.dumps(results)) == results
        assert {entry["deviant"] for entry in results} == {True, False}
        assert all(entry["fingerprint"] for entry in results)

    def test_target_without_hook_is_skipped(self):
        class Bare:
            dialect = "sqlite"

        oracle = MultiPlanOracle()
        assert oracle.check(Bare(), query(), SEMANTICS) is None
        assert oracle.take_round_outcome() == {}

    def test_repeated_plan_runs_no_rows(self):
        # Without an index, no_like_opt plans a LIKE-free query exactly
        # like the baseline: it is planned, but never run.
        ran = []

        class Spy(MiniDBConnection):
            def with_plan(self, sql, hints):
                ran.append(hints)
                return super().with_plan(sql, hints)

        conn = Spy("sqlite")
        for sql in ("CREATE TABLE t0 (c0 TEXT)",
                    "INSERT INTO t0 VALUES ('a'), ('b'), ('c')"):
            conn.execute(sql)
        oracle = MultiPlanOracle()
        assert oracle.check(conn, query(), SEMANTICS) is None
        assert ran == [BASELINE, PlannerHints(force_full_scan=True),
                       PlannerHints(force_full_scan=True, analyze=True)]
        outcome = oracle.take_round_outcome()
        assert outcome["plans"] == {"3": 1}
        assert outcome["forced_failures"] == 0

    def test_baseline_reuses_the_unforced_run(self, monkeypatch):
        from repro.minidb.executor import SelectExecutor

        executed = []
        plain = SelectExecutor.execute

        def spy(self, select):
            executed.append(self.engine.hints)
            return plain(self, select)

        monkeypatch.setattr(SelectExecutor, "execute", spy)
        conn = build()
        conn.execute(query().sql)
        assert executed == [None]
        assert MultiPlanOracle().check(conn, query(), SEMANTICS) is None
        assert BASELINE not in executed
        assert PlannerHints(force_index="i0") in executed

    def test_infeasible_forced_index_counts_one_failure(self):
        conn = build()
        conn.execute("CREATE INDEX i1 ON t0 (c0) WHERE c0 > 'b'")
        oracle = MultiPlanOracle()
        assert oracle.check(conn, query(), SEMANTICS) is None
        assert oracle.take_round_outcome()["forced_failures"] == 1

    def test_candidates_are_deterministic(self):
        oracle = MultiPlanOracle()
        conn = build()
        first = oracle._candidates(conn, query())
        second = oracle._candidates(conn, query())
        assert first == second
        assert first[0] is BASELINE
        assert PlannerHints(force_index="i0") in first


class TestDeterminismInvariant:
    def test_stream_identical_with_oracle_on_and_off(self):
        """Enabling multiplan must not perturb the tested statement
        stream: forced runs go through with_plan only, never execute."""

        def run(multiplan: bool) -> list[str]:
            log: list[str] = []

            class Recording(MiniDBConnection):
                def execute(self, sql):
                    log.append(sql)
                    return super().execute(sql)

            runner = PQSRunner(
                lambda: Recording("sqlite"),
                RunnerConfig(dialect="sqlite", seed=11,
                             multiplan=multiplan))
            for _ in range(3):
                runner.run_database_round()
            return log

        assert run(False) == run(True)
