"""Dialect-specific engine behaviour: typing rules at INSERT time,
storage engines, inheritance, SERIAL, maintenance statement gating,
UNIQUE key comparison, value order and aggregate coercion."""

import pytest

from repro.errors import ConstraintError, DBError, UnsupportedError

from ..conftest import rows, run


class TestSQLiteAffinity:
    def test_numeric_text_converts_in_int_column(self, engine):
        run(engine, "CREATE TABLE t(a INT)",
            "INSERT INTO t(a) VALUES ('123')")
        out = engine.execute("SELECT a FROM t").rows[0][0]
        assert out.v == 123 and out.t.value == "integer"

    def test_non_numeric_text_stays_text_in_int_column(self, engine):
        run(engine, "CREATE TABLE t(a INT)",
            "INSERT INTO t(a) VALUES ('./')")
        assert engine.execute("SELECT a FROM t").rows[0][0].v == "./"

    def test_real_column_widens_integers(self, engine):
        run(engine, "CREATE TABLE t(a REAL)",
            "INSERT INTO t(a) VALUES (2)")
        out = engine.execute("SELECT a FROM t").rows[0][0]
        assert out.t.value == "real" and out.v == 2.0

    def test_text_column_stringifies_numbers(self, engine):
        run(engine, "CREATE TABLE t(a TEXT)",
            "INSERT INTO t(a) VALUES (12)")
        assert engine.execute("SELECT a FROM t").rows[0][0].v == "12"

    def test_untyped_column_stores_anything(self, engine):
        run(engine, "CREATE TABLE t(a)",
            "INSERT INTO t(a) VALUES (1), ('x'), (X'00'), (1.5)")
        kinds = {v[0].t.value for v in engine.execute(
            "SELECT a FROM t").rows}
        assert kinds == {"integer", "text", "blob", "real"}


class TestMySQLTyping:
    def test_tinyint_clips(self, mysql_engine):
        run(mysql_engine, "CREATE TABLE t(a TINYINT)",
            "INSERT INTO t(a) VALUES (999), (-999)")
        assert rows(mysql_engine.execute("SELECT a FROM t")) == \
            [(127,), (-128,)]

    def test_unsigned_clips_at_zero(self, mysql_engine):
        run(mysql_engine, "CREATE TABLE t(a INT UNSIGNED)",
            "INSERT INTO t(a) VALUES (-5)")
        assert rows(mysql_engine.execute("SELECT a FROM t")) == [(0,)]

    def test_string_coerces_numerically(self, mysql_engine):
        run(mysql_engine, "CREATE TABLE t(a INT)",
            "INSERT INTO t(a) VALUES ('42abc')")
        assert rows(mysql_engine.execute("SELECT a FROM t")) == [(42,)]

    def test_double_rounds_into_int(self, mysql_engine):
        run(mysql_engine, "CREATE TABLE t(a INT)",
            "INSERT INTO t(a) VALUES (1.5), (-1.5)")
        assert rows(mysql_engine.execute("SELECT a FROM t")) == \
            [(2,), (-2,)]

    def test_columns_require_types(self, mysql_engine):
        with pytest.raises(DBError, match="lacks a type"):
            mysql_engine.execute("CREATE TABLE t(a)")

    def test_memory_engine_recorded(self, mysql_engine):
        mysql_engine.execute("CREATE TABLE t(a INT) ENGINE = MEMORY")
        assert mysql_engine.catalog.table("t").engine == "MEMORY"

    def test_default_engine_innodb(self, mysql_engine):
        mysql_engine.execute("CREATE TABLE t(a INT)")
        assert mysql_engine.catalog.table("t").engine == "INNODB"

    def test_check_and_repair_table(self, mysql_engine):
        mysql_engine.execute("CREATE TABLE t(a INT)")
        out = mysql_engine.execute("CHECK TABLE t")
        assert out.rows[0][3].v == "OK"
        out = mysql_engine.execute("REPAIR TABLE t")
        assert out.rows[0][3].v == "OK"

    def test_no_vacuum(self, mysql_engine):
        with pytest.raises(UnsupportedError):
            mysql_engine.execute("VACUUM")


class TestPostgresTyping:
    def test_strict_text_into_int_rejected(self, pg_engine):
        pg_engine.execute("CREATE TABLE t(a INT)")
        with pytest.raises(DBError, match="is of type"):
            pg_engine.execute("INSERT INTO t(a) VALUES ('1')")

    def test_int4_range_enforced(self, pg_engine):
        pg_engine.execute("CREATE TABLE t(a INT)")
        with pytest.raises(DBError, match="out of range"):
            pg_engine.execute("INSERT INTO t(a) VALUES (2147483648)")

    def test_real_accepts_int(self, pg_engine):
        run(pg_engine, "CREATE TABLE t(a FLOAT8)",
            "INSERT INTO t(a) VALUES (1)")
        assert rows(pg_engine.execute("SELECT a FROM t")) == [(1.0,)]

    def test_boolean_column(self, pg_engine):
        run(pg_engine, "CREATE TABLE t(a BOOLEAN)",
            "INSERT INTO t(a) VALUES (TRUE), (FALSE)")
        assert rows(pg_engine.execute("SELECT a FROM t WHERE a")) == \
            [(True,)]

    def test_serial_autoassigns(self, pg_engine):
        run(pg_engine, "CREATE TABLE t(id SERIAL, v INT)",
            "INSERT INTO t(v) VALUES (9), (8)")
        assert rows(pg_engine.execute("SELECT id FROM t")) == \
            [(1,), (2,)]

    def test_strict_where_requires_boolean(self, pg_engine):
        run(pg_engine, "CREATE TABLE t(a INT)",
            "INSERT INTO t(a) VALUES (1)")
        with pytest.raises(DBError, match="must be type boolean"):
            pg_engine.execute("SELECT a FROM t WHERE a")

    def test_division_by_zero_is_statement_error(self, pg_engine):
        run(pg_engine, "CREATE TABLE t(a INT)",
            "INSERT INTO t(a) VALUES (1)")
        with pytest.raises(DBError, match="division by zero"):
            pg_engine.execute("SELECT a FROM t WHERE a / 0 = 1")

    def test_nulls_last_in_order_by(self, pg_engine):
        run(pg_engine, "CREATE TABLE t(a INT)",
            "INSERT INTO t(a) VALUES (NULL), (1)")
        out = rows(pg_engine.execute("SELECT a FROM t ORDER BY a"))
        assert out == [(1,), (None,)]


class TestInheritance:
    def test_parent_scan_includes_children(self, pg_engine):
        run(pg_engine, "CREATE TABLE p(a INT PRIMARY KEY, b INT)",
            "CREATE TABLE c(a INT) INHERITS (p)",
            "INSERT INTO p(a, b) VALUES (1, 10)",
            "INSERT INTO c(a, b) VALUES (2, 20)")
        assert len(pg_engine.execute("SELECT * FROM p")) == 2
        assert len(pg_engine.execute("SELECT * FROM c")) == 1

    def test_child_does_not_respect_parent_pk(self, pg_engine):
        # The documented caveat behind paper Listing 15.
        run(pg_engine, "CREATE TABLE p(a INT PRIMARY KEY)",
            "CREATE TABLE c(a INT) INHERITS (p)",
            "INSERT INTO p(a) VALUES (1)",
            "INSERT INTO c(a) VALUES (1)")
        assert len(pg_engine.execute("SELECT * FROM p")) == 2

    def test_type_mismatch_rejected(self, pg_engine):
        pg_engine.execute("CREATE TABLE p(a INT)")
        with pytest.raises(DBError, match="different type"):
            pg_engine.execute("CREATE TABLE c(a TEXT) INHERITS (p)")

    def test_merged_columns(self, pg_engine):
        run(pg_engine, "CREATE TABLE p(a INT)",
            "CREATE TABLE c(a INT, extra TEXT) INHERITS (p)")
        assert pg_engine.catalog.table("c").column_names() == \
            ["a", "extra"]

    def test_drop_parent_with_children_rejected(self, pg_engine):
        run(pg_engine, "CREATE TABLE p(a INT)",
            "CREATE TABLE c(a INT) INHERITS (p)")
        with pytest.raises(DBError, match="inherit"):
            pg_engine.execute("DROP TABLE p")

    def test_group_by_correct_without_defect(self, pg_engine):
        run(pg_engine, "CREATE TABLE t0(c0 INT PRIMARY KEY, c1 INT)",
            "CREATE TABLE t1(c0 INT) INHERITS (t0)",
            "INSERT INTO t0(c0, c1) VALUES(0, 0)",
            "INSERT INTO t1(c0, c1) VALUES(0, 1)")
        out = rows(pg_engine.execute(
            "SELECT c0, c1 FROM t0 GROUP BY c0, c1"))
        assert sorted(out) == [(0, 0), (0, 1)]


class TestDialectGating:
    def test_without_rowid_sqlite_only(self, mysql_engine):
        with pytest.raises(UnsupportedError):
            mysql_engine.execute(
                "CREATE TABLE t(a INT PRIMARY KEY) WITHOUT ROWID")

    def test_engines_mysql_only(self, engine):
        with pytest.raises(UnsupportedError):
            engine.execute("CREATE TABLE t(a) ENGINE = MEMORY")

    def test_inherits_postgres_only(self, engine):
        engine.execute("CREATE TABLE p(a)")
        with pytest.raises(UnsupportedError):
            engine.execute("CREATE TABLE c(a) INHERITS (p)")

    def test_statistics_postgres_only(self, engine):
        engine.execute("CREATE TABLE t(a)")
        with pytest.raises(UnsupportedError):
            engine.execute("CREATE STATISTICS s ON a FROM t")

    def test_check_table_mysql_only(self, engine):
        engine.execute("CREATE TABLE t(a)")
        with pytest.raises(UnsupportedError):
            engine.execute("CHECK TABLE t")

    def test_discard_postgres_only(self, engine):
        with pytest.raises(UnsupportedError):
            engine.execute("DISCARD ALL")


class TestOptions:
    def test_pragma_case_sensitive_like(self, engine):
        run(engine, "CREATE TABLE t(a)",
            "INSERT INTO t(a) VALUES ('ABC')")
        assert len(engine.execute(
            "SELECT a FROM t WHERE a LIKE 'abc'")) == 1
        engine.execute("PRAGMA case_sensitive_like = 1")
        assert len(engine.execute(
            "SELECT a FROM t WHERE a LIKE 'abc'")) == 0

    @pytest.mark.xfail(strict=True, reason=(
        "ROLLBACK restores Engine.options but not the LIKE semantics, "
        "and real SQLite does not roll this PRAGMA back at all; leaving "
        "it out of what ROLLBACK restores can change created_csl and "
        "with it pinned outputs (ROADMAP: next change to the benchmark)"))
    def test_rollback_keeps_case_sensitive_like(self, engine):
        run(engine, "PRAGMA case_sensitive_like = 0", "BEGIN",
            "PRAGMA case_sensitive_like = 1", "ROLLBACK")
        assert engine.options["case_sensitive_like"].v == 1
        assert rows(engine.execute("SELECT 'a' LIKE 'A'")) == [(0,)]
        run(engine, "CREATE TABLE t(a TEXT)", "CREATE INDEX i ON t(a)")
        assert engine.catalog.index("i").created_csl == 1

    def test_set_stores_option(self, mysql_engine):
        mysql_engine.execute("SET GLOBAL max_heap_table_size = 16384")
        assert mysql_engine.options["max_heap_table_size"].v == 16384

    def test_discard_resets_options(self, pg_engine):
        pg_engine.execute("SET enable_seqscan = 'off'")
        pg_engine.execute("DISCARD ALL")
        assert "enable_seqscan" not in pg_engine.options


class TestUniqueKeys:
    def test_mysql_unique_text_ignores_case(self, mysql_engine):
        run(mysql_engine, "CREATE TABLE t0(c0 TEXT)",
            "CREATE UNIQUE INDEX i0 ON t0(c0)",
            "INSERT INTO t0(c0) VALUES ('a')")
        with pytest.raises(ConstraintError, match="Duplicate entry"):
            mysql_engine.execute("INSERT INTO t0(c0) VALUES ('A')")

    def test_sqlite_unique_binary_accepts_case_variants(self, engine):
        run(engine, "CREATE TABLE t0(c0 TEXT)",
            "CREATE UNIQUE INDEX i0 ON t0(c0)",
            "INSERT INTO t0(c0) VALUES ('a')",
            "INSERT INTO t0(c0) VALUES ('A')")
        assert len(engine.execute("SELECT c0 FROM t0")) == 2

    def test_sqlite_unique_nocase_rejects_case_variants(self, engine):
        run(engine, "CREATE TABLE t0(c0 TEXT)",
            "CREATE UNIQUE INDEX i0 ON t0(c0 COLLATE NOCASE)",
            "INSERT INTO t0(c0) VALUES ('a')")
        with pytest.raises(ConstraintError):
            engine.execute("INSERT INTO t0(c0) VALUES ('A')")


class TestValueOrder:
    def test_mysql_orders_text_without_case(self, mysql_engine):
        run(mysql_engine, "CREATE TABLE t0(c0 TEXT)",
            "INSERT INTO t0(c0) VALUES ('b'), ('A'), ('a')")
        assert rows(mysql_engine.execute(
            "SELECT c0 FROM t0 ORDER BY c0")) == [("A",), ("a",), ("b",)]
        assert rows(mysql_engine.execute(
            "SELECT MIN(c0), MAX(c0) FROM t0")) == [("A", "b")]

    def test_sqlite_orders_numbers_before_text(self, engine):
        run(engine, "CREATE TABLE t0(c0)",
            "INSERT INTO t0(c0) VALUES ('b'), ('A'), (2)")
        assert rows(engine.execute(
            "SELECT c0 FROM t0 ORDER BY c0")) == [(2,), ("A",), ("b",)]


class TestAggregateCoercion:
    @pytest.mark.parametrize("function", ["SUM", "AVG"])
    def test_postgres_rejects_text(self, pg_engine, function):
        run(pg_engine, "CREATE TABLE t0(c0 TEXT)",
            "INSERT INTO t0(c0) VALUES ('1')")
        with pytest.raises(DBError, match="function sum/avg requires "
                                          "numeric input, not text"):
            pg_engine.execute(f"SELECT {function}(c0) FROM t0")

    def test_sqlite_adds_numeric_prefixes(self, engine):
        run(engine, "CREATE TABLE t0(c0 TEXT)",
            "INSERT INTO t0(c0) VALUES ('a'), ('A'), ('3abc')")
        result = engine.execute("SELECT SUM(c0), TOTAL(c0) FROM t0")
        assert rows(result) == [(3, 3.0)]
        assert [v.t.value for v in result.rows[0]] == ["integer", "real"]
