"""The §7 negative-containment extension: conditions rectified to FALSE,
the pivot row must NOT be fetched."""

import pytest

from repro.adapters.minidb_adapter import MiniDBConnection
from repro.core.containment import check_containment
from repro.core.exprgen import ExpressionGenerator
from repro.core.pivot import PivotSelector
from repro.core.querygen import QueryGenerator
from repro.core import runner as runner_module
from repro.core.rectify import rectify_condition_to_false
from repro.core.runner import PQSRunner, RunnerConfig
from repro.core.schema import ColumnModel, TableModel
from repro.dialects import get_dialect
from repro.interp import make_interpreter
from repro.minidb.bugs import BugRegistry
from repro.minidb.parser import parse_expression
from repro.rng import RandomSource
from repro.values import Value

INTERP = make_interpreter("sqlite")


class TestRectifyToFalse:
    @pytest.mark.parametrize("sql", ["1", "0", "NULL", "0.5", "'abc'",
                                     "NULL + 1", "1 = 1"])
    def test_always_false(self, sql):
        expr = parse_expression(sql)
        rectified = rectify_condition_to_false(expr, INTERP, {})
        assert INTERP.evaluate_bool(rectified, {}) is False

    def test_false_condition_unchanged(self):
        expr = parse_expression("1 = 2")
        assert rectify_condition_to_false(expr, INTERP, {}) is expr


def _fixture(dialect="sqlite"):
    conn = MiniDBConnection(dialect)
    conn.execute("CREATE TABLE t0(c0 INT, c1 TEXT)")
    conn.execute("INSERT INTO t0(c0, c1) VALUES (1, 'a'), (2, 'b')")
    model = TableModel(name="t0", columns=[
        ColumnModel(name="c0", type_name="INT"),
        ColumnModel(name="c1", type_name="TEXT")])
    return conn, model


class TestNegativeSynthesis:
    def test_pivot_never_fetched_on_clean_engine(self):
        conn, model = _fixture()
        rng = RandomSource(19)
        selector = PivotSelector(rng)
        generator = ExpressionGenerator(get_dialect("sqlite"), rng,
                                        max_depth=3)
        querygen = QueryGenerator(generator, INTERP, rng)
        for _ in range(120):
            rows = conn.execute("SELECT * FROM t0")
            pivot = selector.select([(model, rows)])
            query = querygen.synthesize_negative(pivot)
            assert query.negative
            assert not check_containment(conn, query, INTERP.semantics), \
                query.sql

    def test_catches_rtrim_defect(self):
        """Deterministic version of the extension catching a bug: the
        oracle says `c0 = 'x'` is FALSE for pivot ' x' (RTRIM keeps
        leading spaces), but the defective engine strips them and
        fetches the row."""
        conn = MiniDBConnection(
            "sqlite", bugs=BugRegistry({"sqlite-rtrim-compare"}))
        conn.execute("CREATE TABLE t0(c0 TEXT COLLATE RTRIM)")
        conn.execute("INSERT INTO t0(c0) VALUES (' x'), ('y')")

        from repro.core.querygen import SynthesizedQuery
        from repro.sqlast.nodes import ColumnNode

        pivot_env = {"t0.c0": Value.text(" x")}
        condition = parse_expression("t0.c0 = 'x'")
        # Bind the collation annotation the generator would attach.
        from repro.sqlast.transform import transform

        def bind(node):
            if isinstance(node, ColumnNode):
                return ColumnNode("t0", "c0", collation="RTRIM",
                                  affinity="TEXT")
            return None

        condition = transform(condition, bind)
        rectified = rectify_condition_to_false(condition, INTERP,
                                               pivot_env)
        assert INTERP.evaluate_bool(rectified, pivot_env) is False

        from repro.sqlast.render import render_expr

        query = SynthesizedQuery(
            sql=f"SELECT t0.c0 FROM t0 WHERE "
                f"{render_expr(rectified)}",
            targets=[], expected=[Value.text(" x")], negative=True)
        # Defective engine: the FALSE condition evaluates TRUE for the
        # pivot and the row is fetched — a finding.
        assert check_containment(conn, query, INTERP.semantics)
        # Clean engine: nothing fetched.
        clean = MiniDBConnection("sqlite")
        clean.execute("CREATE TABLE t0(c0 TEXT COLLATE RTRIM)")
        clean.execute("INSERT INTO t0(c0) VALUES (' x'), ('y')")
        assert not check_containment(clean, query, INTERP.semantics)


class TestRunnerIntegration:
    def test_negative_mode_sound_on_clean_engines(self, monkeypatch):
        monkeypatch.setattr(runner_module, "NEGATIVE_PROBABILITY", 0.5)
        for dialect in ("sqlite", "mysql", "postgres"):
            config = RunnerConfig(dialect=dialect, seed=33)
            runner = PQSRunner(lambda d=dialect: MiniDBConnection(d),
                               config)
            stats = runner.run(10)
            assert stats.reports == [], dialect

    def test_duplicate_valued_rows_disable_negative_mode(self):
        conn, model = _fixture()
        conn.execute("INSERT INTO t0(c0, c1) VALUES (1, 'a')")  # dup row
        config = RunnerConfig(dialect="sqlite", seed=3)
        runner = PQSRunner(lambda: conn, config)
        rows = conn.execute("SELECT * FROM t0")
        pivot_rows = [(model, rows)]
        selector = PivotSelector(RandomSource(3))
        pivot = selector.select(pivot_rows)
        if all(INTERP.semantics.values_equal(a, b)
               for a, b in zip(pivot.row_by_table["t0"], rows[0])):
            assert not runner._negative_mode_sound(pivot, pivot_rows)
