"""Maintenance commands: VACUUM/REINDEX/ANALYZE/CHECK/REPAIR/DISCARD
behaviour on clean engines, plus their transaction interactions."""

import pytest

from repro.errors import DBError, UnsupportedError

from ..conftest import make_engine, rows, run


class TestVacuum:
    def test_rebuilds_indexes(self, engine):
        run(engine, "CREATE TABLE t(a)", "CREATE INDEX i ON t(a)",
            "INSERT INTO t(a) VALUES (1), (2)", "VACUUM")
        assert len(engine.catalog.index("i").entries) == 2

    def test_refused_inside_transaction(self, engine):
        run(engine, "CREATE TABLE t(a)", "BEGIN")
        with pytest.raises(DBError, match="within a transaction"):
            engine.execute("VACUUM")
        engine.execute("COMMIT")
        engine.execute("VACUUM")

    def test_postgres_wording(self, pg_engine):
        run(pg_engine, "CREATE TABLE t(a INT)", "BEGIN")
        with pytest.raises(DBError, match="transaction block"):
            pg_engine.execute("VACUUM")

    def test_vacuum_full_postgres(self, pg_engine):
        run(pg_engine, "CREATE TABLE t(a INT)",
            "INSERT INTO t(a) VALUES (1)", "VACUUM FULL")


class TestReindex:
    def test_named_target(self, engine):
        run(engine, "CREATE TABLE t(a)", "CREATE INDEX i ON t(a)",
            "INSERT INTO t(a) VALUES (1)", "REINDEX i")
        assert len(engine.catalog.index("i").entries) == 1

    def test_table_target_rebuilds_its_indexes(self, engine):
        run(engine, "CREATE TABLE t(a)", "CREATE INDEX i ON t(a)",
            "INSERT INTO t(a) VALUES (1)", "REINDEX t")
        assert len(engine.catalog.index("i").entries) == 1

    def test_detects_collation_duplicates_from_defect(self):
        buggy = make_engine("sqlite", "sqlite-reindex-unique")
        run(buggy, "CREATE TABLE t(a TEXT)",
            "CREATE UNIQUE INDEX u ON t(a COLLATE NOCASE)",
            "INSERT INTO t(a) VALUES ('x')",
            "INSERT INTO t(a) VALUES ('X')")
        with pytest.raises(DBError, match="UNIQUE"):
            buggy.execute("REINDEX")

    @pytest.mark.xfail(strict=True, reason=(
        "_rebuild_indexes empties the index before its duplicate check "
        "raises, and maintenance statements are not atomic; running them "
        "under Catalog.snapshot fixes it but may change pinned outputs, "
        "so it waits for the next triage-golden re-pin"))
    def test_failed_reindex_keeps_the_index(self):
        buggy = make_engine("sqlite", "sqlite-reindex-unique")
        run(buggy, "CREATE TABLE t(a TEXT, b INT)",
            "CREATE UNIQUE INDEX u ON t(a COLLATE NOCASE)",
            "INSERT INTO t(a, b) VALUES ('x', 1)",
            "INSERT INTO t(a, b) VALUES ('X', 2)")
        query = "SELECT a FROM t WHERE a = 'x' COLLATE NOCASE"
        before = rows(buggy.execute(query))
        assert len(before) == 2
        with pytest.raises(DBError, match="UNIQUE"):
            buggy.execute("REINDEX")
        assert len(buggy.catalog.index("u").entries) == 2
        assert rows(buggy.execute(query)) == before


class TestAnalyzeAndOptions:
    def test_analyze_named_vs_all(self, engine):
        run(engine, "CREATE TABLE a(x)", "CREATE TABLE b(y)",
            "ANALYZE a")
        assert engine.catalog.table("a").analyzed
        assert not engine.catalog.table("b").analyzed
        engine.execute("ANALYZE")
        assert engine.catalog.table("b").analyzed

    def test_pragma_value_forms(self, engine):
        engine.execute("PRAGMA case_sensitive_like = 1")
        assert engine._option_int("case_sensitive_like") == 1
        engine.execute("PRAGMA case_sensitive_like = 'off'")
        assert engine._option_int("case_sensitive_like") == 0
        engine.execute("PRAGMA case_sensitive_like = 'on'")
        assert engine._option_int("case_sensitive_like") == 1

    def test_unknown_option_stored_not_erroring(self, engine):
        engine.execute("PRAGMA some_future_pragma = 3")
        assert engine.options["some_future_pragma"].v == 3


class TestMySQLMaintenance:
    def test_check_table_result_shape(self, mysql_engine):
        mysql_engine.execute("CREATE TABLE t(a INT)")
        out = mysql_engine.execute("CHECK TABLE t")
        assert out.columns == ["Table", "Op", "Msg_type", "Msg_text"]

    def test_check_table_unknown_table(self, mysql_engine):
        with pytest.raises(DBError, match="no such table"):
            mysql_engine.execute("CHECK TABLE ghost")

    def test_reindex_unsupported(self, mysql_engine):
        with pytest.raises(UnsupportedError):
            mysql_engine.execute("REINDEX")


class TestStatefulDefectsStayLatent:
    """Maintenance defects never fire on a clean engine."""

    def test_clean_vacuum_after_pragma_toggle(self, engine):
        run(engine, "CREATE TABLE t(a)",
            "CREATE INDEX i ON t((a LIKE 'x'))",
            "PRAGMA case_sensitive_like = 1", "VACUUM")

    def test_clean_update_or_replace_real_pk(self, engine):
        run(engine, "CREATE TABLE t(a, b REAL PRIMARY KEY)",
            "INSERT INTO t(a, b) VALUES (1, 1.0), (2, 2.0)",
            "UPDATE OR REPLACE t SET b = 5.0",
            "REINDEX", "VACUUM")
        assert len(engine.execute("SELECT * FROM t")) == 1
