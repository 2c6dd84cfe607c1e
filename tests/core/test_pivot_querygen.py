"""Pivot selection (step 2) and query synthesis (step 5)."""

import pytest

from repro.adapters.minidb_adapter import MiniDBConnection
from repro.core import querygen as querygen_module
from repro.core.containment import check_containment, containment_query
from repro.core.exprgen import ExpressionGenerator
from repro.core.pivot import PivotRow, PivotSelector
from repro.core.querygen import QueryGenerator
from repro.core.reports import RoundRecord
from repro.core.runner import PQSRunner, RunnerConfig
from repro.core.schema import ColumnModel, SchemaModel, TableModel
from repro.dialects import get_dialect
from repro.interp import make_interpreter
from repro.rng import RandomSource
from repro.values import Value


def setup_connection(dialect="sqlite"):
    conn = MiniDBConnection(dialect)
    conn.execute("CREATE TABLE t0(c0 INT, c1 TEXT)")
    conn.execute("INSERT INTO t0(c0, c1) VALUES (1, 'a'), (2, 'b'), "
                 "(3, NULL)")
    model = TableModel(name="t0", columns=[
        ColumnModel(name="c0", type_name="INT"),
        ColumnModel(name="c1", type_name="TEXT")])
    schema = SchemaModel(dialect=dialect, tables=[model])
    return conn, schema, model


def rows_of(conn, *models):
    """(table, rows) pairs for :meth:`PivotSelector.select`."""
    return [(model, conn.execute(f"SELECT * FROM {model.name}"))
            for model in models]


def probe(conn, schema):
    """The runner's relation probe, which feeds the selector: the
    healthy (table, rows) pairs and the round it counted into."""
    runner = PQSRunner(lambda: conn, RunnerConfig(dialect=schema.dialect))
    round_ = RoundRecord()
    log = []
    return runner._probe_relations(conn, schema, log, round_), round_


class TestPivotSelector:
    def test_selects_existing_row(self):
        conn, schema, model = setup_connection()
        selector = PivotSelector(RandomSource(1))
        tables_rows, _ = probe(conn, schema)
        assert len(tables_rows) == 1
        pivot = selector.select(tables_rows)
        assert pivot.row_counts["t0"] == 3
        assert "t0.c0" in pivot.values and "t0.c1" in pivot.values

    def test_empty_tables_dropped(self):
        conn, schema, model = setup_connection()
        conn.execute("DELETE FROM t0")
        tables_rows, round_ = probe(conn, schema)
        assert tables_rows == []
        assert round_.expected_errors == 0 and not round_.reports

    def test_unreadable_relation_dropped(self):
        # The probe's error goes to the oracles: "no such table" is an
        # expected error, counted as one; the healthy table is kept.
        conn, schema, model = setup_connection()
        schema.tables.append(TableModel(name="ghost",
                                        columns=[ColumnModel(name="x")]))
        tables_rows, round_ = probe(conn, schema)
        assert [table.name for table, _ in tables_rows] == ["t0"]
        assert round_.expected_errors == 1 and not round_.reports

    def test_all_single_row_flag(self):
        pivot = PivotRow(tables=[], row_counts={"a": 1, "b": 1})
        assert pivot.all_single_row
        pivot.row_counts["b"] = 2
        assert not pivot.all_single_row


def make_querygen(dialect="sqlite", seed=5):
    rng = RandomSource(seed)
    generator = ExpressionGenerator(get_dialect(dialect), rng, max_depth=3)
    interp = make_interpreter(dialect)
    return QueryGenerator(generator, interp, rng), interp


class TestQuerySynthesis:
    def test_query_always_fetches_pivot(self):
        conn, schema, model = setup_connection()
        selector = PivotSelector(RandomSource(7))
        querygen, interp = make_querygen()
        for _ in range(150):
            pivot = selector.select(rows_of(conn, model))
            query = querygen.synthesize(pivot)
            assert check_containment(conn, query, interp.semantics), \
                query.sql

    def test_intersect_mode_agrees(self):
        conn, schema, model = setup_connection()
        selector = PivotSelector(RandomSource(8))
        querygen, interp = make_querygen(seed=8)
        for _ in range(80):
            pivot = selector.select(rows_of(conn, model))
            query = querygen.synthesize(pivot)
            client = check_containment(conn, query, interp.semantics,
                                       use_intersect=False)
            via_intersect = check_containment(conn, query,
                                              interp.semantics,
                                              use_intersect=True)
            assert client and via_intersect, query.sql

    def test_containment_query_shape(self):
        conn, schema, model = setup_connection()
        selector = PivotSelector(RandomSource(9))
        querygen, _ = make_querygen(seed=9)
        pivot = selector.select(rows_of(conn, model))
        query = querygen.synthesize(pivot)
        sql = containment_query(query, "sqlite")
        assert sql.startswith("SELECT ") and " INTERSECT " in sql

    def test_multi_table_pivot(self):
        conn, schema, model = setup_connection()
        conn.execute("CREATE TABLE t1(c0 INT)")
        conn.execute("INSERT INTO t1(c0) VALUES (10), (20)")
        other = TableModel(name="t1",
                           columns=[ColumnModel(name="c0",
                                                type_name="INT")])
        schema.tables.append(other)
        selector = PivotSelector(RandomSource(10))
        querygen, interp = make_querygen(seed=10)
        for _ in range(60):
            pivot = selector.select(rows_of(conn, model, other))
            query = querygen.synthesize(pivot)
            assert check_containment(conn, query, interp.semantics), \
                query.sql

    def test_aggregate_mode_single_row(self, monkeypatch):
        monkeypatch.setattr(querygen_module, "AGGREGATE_PROBABILITY", 1.0)
        conn = MiniDBConnection("sqlite")
        conn.execute("CREATE TABLE t0(c0 INT)")
        conn.execute("INSERT INTO t0(c0) VALUES (5)")
        model = TableModel(name="t0",
                           columns=[ColumnModel(name="c0",
                                                type_name="INT")])
        schema = SchemaModel(dialect="sqlite", tables=[model])
        selector = PivotSelector(RandomSource(11))
        querygen, interp = make_querygen(seed=11)
        saw_aggregate = False
        for _ in range(60):
            pivot = selector.select(rows_of(conn, model))
            query = querygen.synthesize(pivot)
            saw_aggregate = saw_aggregate or query.uses_aggregates
            assert check_containment(conn, query, interp.semantics), \
                query.sql
        assert saw_aggregate

    def test_groupby_mode(self, monkeypatch):
        monkeypatch.setattr(querygen_module, "GROUPBY_PROBABILITY", 1.0)
        monkeypatch.setattr(querygen_module, "AGGREGATE_PROBABILITY", 0.0)
        conn, schema, model = setup_connection()
        selector = PivotSelector(RandomSource(12))
        querygen, interp = make_querygen(seed=12)
        saw_groupby = False
        for _ in range(60):
            pivot = selector.select(rows_of(conn, model))
            query = querygen.synthesize(pivot)
            saw_groupby = saw_groupby or "GROUP BY" in query.sql
            assert check_containment(conn, query, interp.semantics), \
                query.sql
        assert saw_groupby

    def test_postgres_synthesis(self):
        conn = MiniDBConnection("postgres")
        conn.execute("CREATE TABLE t0(c0 INT, c1 TEXT)")
        conn.execute("INSERT INTO t0(c0, c1) VALUES (1, 'a'), (2, NULL)")
        model = TableModel(name="t0", columns=[
            ColumnModel(name="c0", type_name="INT"),
            ColumnModel(name="c1", type_name="TEXT")])
        schema = SchemaModel(dialect="postgres", tables=[model])
        selector = PivotSelector(RandomSource(13))
        querygen, interp = make_querygen("postgres", seed=13)
        for _ in range(80):
            pivot = selector.select(rows_of(conn, model))
            query = querygen.synthesize(pivot)
            try:
                contained = check_containment(conn, query,
                                              interp.semantics)
            except Exception:  # noqa: BLE001 - runtime errors allowed
                continue
            assert contained, query.sql
