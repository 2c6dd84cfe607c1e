"""The per-engine bound-SELECT cache: reuse between writes, re-binding
after every statement that may change the catalog.

Each invalidation test binds a SELECT, runs one catalog-changing
statement, and re-runs the *same* SQL text (so the same parsed
``Select`` object comes back from the parse cache): a stale bound form
would resolve columns against the old catalog.
"""

from __future__ import annotations

import pytest

from repro.adapters.minidb_adapter import MiniDBConnection
from repro.errors import CatalogError, DBError
from repro.minidb.engine import Engine
from repro.minidb.parser import parse_statement
from repro.multiplan import PlannerHints


def engine_with(*statements: str, dialect: str = "sqlite") -> Engine:
    engine = Engine(dialect)
    for sql in statements:
        engine.execute(sql)
    return engine


def rows(engine: Engine, sql: str) -> list[tuple]:
    return engine.execute(sql).python_rows()


class TestReuse:
    def test_one_bind_serves_explain_and_every_forced_plan(self):
        # One bind serves execute, forced_plan and every forced run; the
        # rewritten WHERE is shared by every run whose hints rewrite
        # alike (here: all but the forced index).
        connection = MiniDBConnection("sqlite")
        for sql in ("CREATE TABLE t0 (c0 INT)", "CREATE INDEX i0 ON t0 (c0)",
                    "INSERT INTO t0 VALUES (1), (2)"):
            connection.execute(sql)
        query = "SELECT c0 FROM t0 WHERE c0 > 0"
        connection.execute(query)
        for hints in (PlannerHints(), PlannerHints(force_full_scan=True),
                      PlannerHints(force_index="i0")):
            connection.forced_plan(query, hints)
            connection.with_plan(query, hints)
        engine = connection.engine
        cache = engine._bound_selects
        assert len(cache) == 1
        (select, _bound), = cache.values()
        assert select is parse_statement(query)
        assert sorted(key[2:] for key in engine._plan_memo
                      if key[0] == "where") == [(False, False),
                                                (False, True)]

    def test_reads_do_not_invalidate(self):
        engine = engine_with("CREATE TABLE t0 (c0 INT)",
                             "INSERT INTO t0 VALUES (1)")
        engine.execute_statement(parse_statement("SELECT c0 FROM t0"))
        bound = dict(engine._bound_selects)
        engine.execute("EXPLAIN QUERY PLAN SELECT c0 FROM t0 WHERE c0 = 1")
        engine.execute_statement(parse_statement("SELECT c0 FROM t0"))
        assert all(engine._bound_selects[key][1] is entry[1]
                   for key, entry in bound.items())


class TestInvalidation:
    def test_rename_column(self):
        engine = engine_with("CREATE TABLE t0 (c0 INT)",
                             "INSERT INTO t0 VALUES (1)")
        assert rows(engine, "SELECT c0 FROM t0") == [(1,)]
        engine.execute("ALTER TABLE t0 RENAME COLUMN c0 TO c1")
        assert not engine._bound_selects and not engine._plan_memo
        with pytest.raises(CatalogError, match="no such column: c0"):
            engine.execute("SELECT c0 FROM t0")
        assert rows(engine, "SELECT c1 FROM t0") == [(1,)]

    def test_add_column_makes_a_name_ambiguous(self):
        engine = engine_with("CREATE TABLE t0 (c0 INT)",
                             "CREATE TABLE t1 (c1 INT)",
                             "INSERT INTO t0 VALUES (1)",
                             "INSERT INTO t1 VALUES (2)")
        assert rows(engine, "SELECT c0 FROM t0, t1") == [(1,)]
        engine.execute("ALTER TABLE t1 ADD COLUMN c0 INT")
        with pytest.raises(CatalogError, match="ambiguous column name"):
            engine.execute("SELECT c0 FROM t0, t1")

    def test_failed_alter_restores_the_catalog(self):
        engine = engine_with("CREATE TABLE t0 (c0 INT, c1 INT)",
                             "INSERT INTO t0 VALUES (1, 2)")
        assert rows(engine, "SELECT c1 FROM t0") == [(2,)]
        with pytest.raises(DBError):
            engine.execute("ALTER TABLE t0 RENAME COLUMN c0 TO c1")
        assert not engine._bound_selects
        assert rows(engine, "SELECT c1 FROM t0") == [(2,)]
        assert rows(engine, "SELECT c0 FROM t0") == [(1,)]

    def test_rollback_restores_the_old_column_name(self):
        engine = engine_with("CREATE TABLE t0 (c0 INT)",
                             "INSERT INTO t0 VALUES (1)")
        engine.execute("BEGIN")
        engine.execute("ALTER TABLE t0 RENAME COLUMN c0 TO c1")
        assert rows(engine, "SELECT c1 FROM t0") == [(1,)]
        engine.execute("ROLLBACK")
        assert not engine._bound_selects
        with pytest.raises(CatalogError, match="no such column: c1"):
            engine.execute("SELECT c1 FROM t0")
        assert rows(engine, "SELECT c0 FROM t0") == [(1,)]

    def test_drop_and_recreate_under_the_same_name(self):
        # A BLOB column has no affinity, so '1' never equals the stored
        # integer 1; an INTEGER column converts '1' first.  A stale bind
        # would keep the old (absent) affinity on the ColumnNode.
        query = "SELECT c0 FROM t0 WHERE c0 = '1'"
        engine = engine_with("CREATE TABLE t0 (c0 BLOB)",
                             "INSERT INTO t0 VALUES (1)")
        assert rows(engine, query) == []
        for sql in ("DROP TABLE t0", "CREATE TABLE t0 (c0 INTEGER)",
                    "INSERT INTO t0 VALUES (1)"):
            engine.execute(sql)
        assert rows(engine, query) == [(1,)]

    def test_drop_and_recreate_a_view(self):
        # A view column takes its affinity from the base column it
        # projects: the same query text must see the new one.
        query = "SELECT k FROM v0 WHERE k = '1'"
        engine = engine_with("CREATE TABLE t0 (c0 BLOB, c1 INTEGER)",
                             "INSERT INTO t0 VALUES (1, 1)",
                             "CREATE VIEW v0 AS SELECT c0 AS k FROM t0")
        assert rows(engine, query) == []
        engine.execute("DROP VIEW v0")
        engine.execute("CREATE VIEW v0 AS SELECT c1 AS k FROM t0")
        assert rows(engine, query) == [(1,)]

    def test_create_view_validation_binds_during_the_write(self):
        # MiniDB has no INSERT ... SELECT; CREATE VIEW is the write that
        # binds (it validates the view body by running it).
        engine = engine_with("CREATE TABLE t0 (c0 INT)",
                             "INSERT INTO t0 VALUES (1), (2)")
        engine.execute("CREATE VIEW v0 AS SELECT c0 FROM t0")
        # The write's own binds are dropped once it finishes.
        assert not engine._bound_selects
        assert rows(engine, "SELECT c0 FROM v0 ORDER BY c0") == [(1,),
                                                                 (2,)]
        engine.execute("ALTER TABLE t0 RENAME COLUMN c0 TO c9")
        with pytest.raises(CatalogError, match="no such column: c0"):
            engine.execute("SELECT c0 FROM v0")
