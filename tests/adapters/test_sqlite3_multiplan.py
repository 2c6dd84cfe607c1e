"""Plan forcing on the real SQLite build: ``forced_plan`` and
``with_plan`` rewrite the statement text (INDEXED BY / NOT INDEXED),
bracket synthesized ANALYZE in a savepoint, and — regression — surface
*every* sqlite failure as a typed :class:`DBError`, including schemas
sqlite itself refuses to reparse (the multiplan oracle counts those as
forced-plan failures instead of crashing the round)."""

import sqlite3

import pytest

from repro.adapters.sqlite3_adapter import SQLite3Connection
from repro.core.querygen import SynthesizedQuery
from repro.errors import DBError
from repro.interp import make_interpreter
from repro.multiplan import BASELINE, MultiPlanOracle, PlannerHints
from repro.sqlast.nodes import ColumnNode
from repro.values import Value

STATE = ("CREATE TABLE t0 (c0 TEXT)",
         "CREATE INDEX i0 ON t0 (c0)",
         "INSERT INTO t0 VALUES ('a'), ('b'), ('c')")


@pytest.fixture
def conn():
    connection = SQLite3Connection()
    for sql in STATE:
        connection.execute(sql)
    yield connection
    connection.close()


class TestForcing:
    def test_forced_index_is_honored(self, conn):
        query = "SELECT c0 FROM t0 WHERE c0 > 'a'"
        hints = PlannerHints(force_index="i0")
        steps = conn.forced_plan(query, hints)
        rows = conn.with_plan(query, hints)
        assert sorted(v.v for (v,) in rows) == ["b", "c"]
        assert any(step.index == "i0" for step in steps)

    def test_forced_full_scan_avoids_the_index(self, conn):
        query = "SELECT c0 FROM t0 WHERE c0 = 'b'"
        hints = PlannerHints(force_full_scan=True)
        steps = conn.forced_plan(query, hints)
        rows = conn.with_plan(query, hints)
        assert [v.v for (v,) in rows] == ["b"]
        assert all(step.index != "i0" for step in steps)

    def test_analyze_is_bracketed_in_a_savepoint(self, conn):
        hints = PlannerHints(force_full_scan=True, analyze=True)
        conn.forced_plan("SELECT c0 FROM t0", hints)
        conn.with_plan("SELECT c0 FROM t0", hints)
        # The synthesized ANALYZE was rolled back: no stats leak into
        # the tested stream's planner input.
        rows = conn.execute("SELECT name FROM sqlite_master "
                            "WHERE name = 'sqlite_stat1'")
        assert rows == []

    def test_unknown_index_is_a_typed_error(self, conn):
        for hook in (conn.forced_plan, conn.with_plan):
            with pytest.raises(DBError):
                hook("SELECT c0 FROM t0", PlannerHints(force_index="nope"))

    def test_index_candidates(self, conn):
        assert conn.index_candidates(["t0"]) == ["i0"]
        assert conn.index_candidates(["t9"]) == []


class TestMalformedSchema:
    """A generated schema sqlite later refuses to reparse (seen in the
    wild via expression indexes) must not leak raw sqlite3 errors."""

    @pytest.fixture
    def malformed(self, tmp_path):
        path = str(tmp_path / "malformed.db")
        raw = sqlite3.connect(path)
        raw.executescript(
            "CREATE TABLE t0 (c0 TEXT);"
            "CREATE INDEX i0 ON t0 (c0);"
            "INSERT INTO t0 VALUES ('a');")
        raw.execute("PRAGMA writable_schema=ON")
        raw.execute("UPDATE sqlite_master SET sql = "
                    "'CREATE INDEX i0 ON t0(random())' "
                    "WHERE name = 'i0'")
        raw.commit()
        raw.close()
        # A fresh connection reparses the schema on first use and
        # rejects it ("non-deterministic functions prohibited ...").
        connection = SQLite3Connection(path)
        yield connection
        connection.close()

    def test_with_plan_raises_typed_error(self, malformed):
        for hints in (PlannerHints(force_index="i0"),
                      PlannerHints(force_full_scan=True, analyze=True)):
            for hook in (malformed.forced_plan, malformed.with_plan):
                with pytest.raises(DBError):
                    hook("SELECT c0 FROM t0", hints)

    def test_index_candidates_raises_typed_error(self, malformed):
        with pytest.raises(DBError):
            malformed.index_candidates(["t0"])

    def test_oracle_counts_forced_failures_and_survives(self, malformed):
        oracle = MultiPlanOracle()
        query = SynthesizedQuery(
            sql="SELECT c0 FROM t0", targets=[ColumnNode("t0", "c0")],
            expected=[Value.text("a")], table_names=["t0"])
        semantics = make_interpreter("sqlite").semantics
        assert oracle.check(malformed, query, semantics) is None
        outcome = oracle.take_round_outcome()
        assert outcome["forced_failures"] > 0
        assert outcome["divergences"] == 0


class TestOracleOnRealSQLite:
    def test_clean_plans_agree(self, conn):
        oracle = MultiPlanOracle()
        query = SynthesizedQuery(
            sql="SELECT c0 FROM t0 WHERE c0 >= 'a'",
            targets=[ColumnNode("t0", "c0")],
            expected=[Value.text("c")], table_names=["t0"])
        semantics = make_interpreter("sqlite").semantics
        assert oracle.check(conn, query, semantics) is None
        outcome = oracle.take_round_outcome()
        assert outcome["queries"] == 1
        assert outcome["divergences"] == 0
        # Baseline and at least one forced shape executed distinctly.
        assert sum(int(plans) * count
                   for plans, count in outcome["plans"].items()) >= 2

    def test_baseline_hints_are_a_plain_execution(self, conn):
        rows = conn.with_plan("SELECT c0 FROM t0", BASELINE)
        assert sorted(v.v for (v,) in rows) == ["a", "b", "c"]
