"""Every injected defect, reproduced via its paper listing (or closest
scenario): the clean engine answers correctly, the defect-injected engine
misbehaves exactly as the modeled bug did.

These are the ground-truth fixtures behind the campaign benchmarks: if a
scenario here stops reproducing, Table 2/3 regeneration silently loses a
bug class, so each one is pinned as a unit test.
"""

import pytest

from repro.errors import DBCrash, DBError, IntegrityError
from repro.minidb.bugs import BUG_CATALOG, BugRegistry, bugs_for_dialect

from ..conftest import make_engine, rows, run


class TestCatalogIntegrity:
    def test_all_dialects_covered(self):
        assert {b.dialect for b in BUG_CATALOG.values()} == \
            {"sqlite", "mysql", "postgres"}

    def test_all_oracles_covered_per_dialect(self):
        # The multiplan oracle's defects are sqlite-only (they model
        # SQLite planner bug classes), so it is required there and
        # absent elsewhere.
        expected = {
            "sqlite": {"contains", "error", "crash", "multiplan"},
            "mysql": {"contains", "error", "crash"},
            "postgres": {"contains", "error", "crash"},
        }
        for dialect, oracles_wanted in expected.items():
            oracles = {b.oracle for b in bugs_for_dialect(dialect)}
            assert oracles == oracles_wanted, dialect

    def test_sqlite_has_most_defects(self):
        # The paper found most bugs in SQLite; the catalog mirrors that.
        counts = {d: len(bugs_for_dialect(d))
                  for d in ("sqlite", "mysql", "postgres")}
        assert counts["sqlite"] > counts["mysql"] > counts["postgres"]

    def test_registry_validates_ids(self):
        with pytest.raises(KeyError):
            BugRegistry({"no-such-bug"})

    def test_registry_enable_disable(self):
        registry = BugRegistry()
        registry.enable("mysql-double-negation")
        assert registry.on("mysql-double-negation")
        registry.disable("mysql-double-negation")
        assert not registry.on("mysql-double-negation")

    def test_paper_refs_present(self):
        assert all(b.paper_ref for b in BUG_CATALOG.values())


def _listing1(engine):
    run(engine, "CREATE TABLE t0(c0)",
        "CREATE INDEX i0 ON t0(1) WHERE c0 NOT NULL",
        "INSERT INTO t0(c0) VALUES (0), (1), (2), (3), (NULL)")
    return rows(engine.execute("SELECT c0 FROM t0 WHERE t0.c0 IS NOT 1"))


class TestSQLiteDefects:
    def test_partial_index_is_not(self):
        # Paper Listing 1: the critical partial-index implication bug.
        clean = _listing1(make_engine("sqlite"))
        assert None in [r[0] for r in clean]
        buggy = _listing1(make_engine("sqlite",
                                      "sqlite-partial-index-is-not"))
        assert None not in [r[0] for r in buggy]

    def test_nocase_unique_without_rowid(self):
        # Paper Listing 4: case-variant key unreachable via index lookup.
        def scenario(engine):
            run(engine,
                "CREATE TABLE t0(c0 TEXT PRIMARY KEY) WITHOUT ROWID",
                "CREATE INDEX i0 ON t0(c0 COLLATE NOCASE)",
                "INSERT INTO t0(c0) VALUES ('A')",
                "INSERT INTO t0(c0) VALUES ('a')")
            return rows(engine.execute("SELECT * FROM t0 WHERE c0 = 'a'"))

        assert scenario(make_engine("sqlite")) == [("a",)]
        assert scenario(make_engine(
            "sqlite", "sqlite-nocase-unique-without-rowid")) == []

    def test_rtrim_compare(self):
        # Paper Listing 5 analogue: leading spaces wrongly ignored.
        def scenario(engine):
            run(engine, "CREATE TABLE t0(c0 COLLATE RTRIM)",
                "INSERT INTO t0(c0) VALUES (' x'), ('x')")
            return rows(engine.execute(
                "SELECT c0 FROM t0 WHERE c0 = 'x'"))

        assert scenario(make_engine("sqlite")) == [("x",)]
        assert len(scenario(make_engine("sqlite",
                                        "sqlite-rtrim-compare"))) == 2

    def test_skip_scan_distinct(self):
        # Paper Listing 6: skip-scan DISTINCT after ANALYZE drops rows.
        def scenario(engine):
            run(engine,
                "CREATE TABLE t1 (c1, c2, c3, c4, PRIMARY KEY (c4, c3))",
                "INSERT INTO t1(c3) VALUES (0), (0), (0), (0), (0), (0), "
                "(0), (0), (0), (0), (NULL), (1), (0)",
                "UPDATE t1 SET c2 = 0",
                "INSERT INTO t1(c1) VALUES (0), (0), (NULL), (0), (0)",
                "ANALYZE t1",
                "UPDATE t1 SET c3 = 1")
            return rows(engine.execute(
                "SELECT DISTINCT * FROM t1 WHERE t1.c3 = 1"))

        assert len(scenario(make_engine("sqlite"))) == 3
        assert len(scenario(make_engine(
            "sqlite", "sqlite-skip-scan-distinct"))) < 3

    def test_like_affinity_opt(self):
        # Paper Listing 7: LIKE optimization vs INT affinity.
        def scenario(engine):
            run(engine, "CREATE TABLE t0(c0 INT UNIQUE COLLATE NOCASE)",
                "INSERT INTO t0(c0) VALUES ('./')")
            return rows(engine.execute(
                "SELECT * FROM t0 WHERE t0.c0 LIKE './'"))

        assert scenario(make_engine("sqlite")) == [("./",)]
        assert scenario(make_engine("sqlite",
                                    "sqlite-like-affinity-opt")) == []

    def test_rename_expr_index(self):
        # Paper Listing 8 analogue: stale expression index after RENAME.
        def scenario(engine):
            run(engine, "CREATE TABLE t0(c1, c2)",
                "INSERT INTO t0(c1, c2) VALUES ('a', 1)",
                "CREATE INDEX i0 ON t0((c1 || c2))",
                "ALTER TABLE t0 RENAME COLUMN c1 TO c3")
            return rows(engine.execute("SELECT DISTINCT * FROM t0"))

        assert scenario(make_engine("sqlite")) == [("a", 1)]
        with pytest.raises(IntegrityError, match="malformed database "
                                                 "schema"):
            scenario(make_engine("sqlite", "sqlite-rename-expr-index"))

    def test_case_sensitive_like_index(self):
        # Paper Listing 9: PRAGMA case_sensitive_like vs LIKE index.
        def scenario(engine):
            run(engine, "CREATE TABLE test (c0)",
                "CREATE INDEX index_0 ON test(c0 LIKE '')",
                "PRAGMA case_sensitive_like = 1",
                "VACUUM")

        scenario(make_engine("sqlite"))  # clean: no error
        with pytest.raises(IntegrityError,
                           match="non-deterministic functions"):
            scenario(make_engine("sqlite",
                                 "sqlite-case-sensitive-like-index"))

    def test_real_pk_corrupt(self):
        # Paper Listing 10: UPDATE OR REPLACE corrupts a REAL PK index.
        def scenario(engine):
            run(engine, "CREATE TABLE t1 (c0, c1 REAL PRIMARY KEY)",
                "INSERT INTO t1(c0, c1) VALUES (TRUE, "
                "9223372036854775807), (TRUE, 0)",
                "UPDATE t1 SET c0 = NULL",
                "UPDATE OR REPLACE t1 SET c1 = 1")
            return rows(engine.execute(
                "SELECT DISTINCT * FROM t1 WHERE (t1.c0 IS NULL)"))

        assert scenario(make_engine("sqlite")) == [(None, 1.0)]
        with pytest.raises(IntegrityError, match="malformed"):
            scenario(make_engine("sqlite", "sqlite-real-pk-corrupt"))

    def test_reindex_unique(self):
        # §4.4: REINDEX detects constraint violations (6 bugs found).
        def scenario(engine):
            run(engine, "CREATE TABLE t0(c0 TEXT)",
                "CREATE UNIQUE INDEX u0 ON t0(c0 COLLATE NOCASE)",
                "INSERT INTO t0(c0) VALUES ('a')")
            engine.execute("INSERT INTO t0(c0) VALUES ('A')")
            engine.execute("REINDEX")

        with pytest.raises(DBError, match="UNIQUE constraint failed"):
            scenario(make_engine("sqlite"))  # rejected at INSERT: correct
        with pytest.raises(DBError, match="UNIQUE constraint failed"):
            scenario(make_engine("sqlite", "sqlite-reindex-unique"))
        # The buggy engine accepts the INSERT and fails only at REINDEX.
        buggy = make_engine("sqlite", "sqlite-reindex-unique")
        run(buggy, "CREATE TABLE t0(c0 TEXT)",
            "CREATE UNIQUE INDEX u0 ON t0(c0 COLLATE NOCASE)",
            "INSERT INTO t0(c0) VALUES ('a')",
            "INSERT INTO t0(c0) VALUES ('A')")
        with pytest.raises(DBError, match="UNIQUE constraint failed"):
            buggy.execute("REINDEX")

    def test_alter_add_crash(self):
        # §4.2 crash class: ALTER ADD on WITHOUT ROWID + expr index.
        def scenario(engine):
            run(engine,
                "CREATE TABLE t(a TEXT PRIMARY KEY) WITHOUT ROWID",
                "CREATE INDEX i ON t((a || 'x'))",
                "ALTER TABLE t ADD COLUMN b")

        scenario(make_engine("sqlite"))  # clean: fine
        with pytest.raises(DBCrash):
            scenario(make_engine("sqlite", "sqlite-alter-add-crash"))


class TestMySQLDefects:
    def test_memory_engine_join(self):
        # Paper Listing 11.
        def scenario(engine):
            run(engine, "CREATE TABLE t0(c0 INT)",
                "CREATE TABLE t1(c0 INT) ENGINE = MEMORY",
                "INSERT INTO t0(c0) VALUES (0)",
                "INSERT INTO t1(c0) VALUES (-1)")
            return rows(engine.execute(
                "SELECT * FROM t0, t1 WHERE (CAST(t1.c0 AS UNSIGNED)) > "
                "(IFNULL('u', t0.c0))"))

        assert scenario(make_engine("mysql")) == [(0, -1)]
        assert scenario(make_engine("mysql",
                                    "mysql-memory-engine-join")) == []

    def test_unsigned_cast_compare(self):
        def scenario(engine):
            run(engine, "CREATE TABLE t0(c0 INT)",
                "INSERT INTO t0(c0) VALUES (5)")
            return rows(engine.execute(
                "SELECT * FROM t0 WHERE CAST(-1 AS UNSIGNED) > t0.c0"))

        assert scenario(make_engine("mysql")) == [(5,)]
        assert scenario(make_engine(
            "mysql", "mysql-unsigned-cast-compare")) == []

    def test_nullsafe_range(self):
        # Paper Listing 12.
        def scenario(engine):
            run(engine, "CREATE TABLE t0(c0 TINYINT)",
                "INSERT INTO t0(c0) VALUES(NULL)")
            return rows(engine.execute(
                "SELECT * FROM t0 WHERE NOT(t0.c0 <=> 2035382037)"))

        assert scenario(make_engine("mysql")) == [(None,)]
        assert scenario(make_engine("mysql", "mysql-nullsafe-range")) == []

    def test_double_negation(self):
        # Paper Listing 13.
        def scenario(engine):
            run(engine, "CREATE TABLE t0(c0 INT)",
                "INSERT INTO t0(c0) VALUES (1)")
            return rows(engine.execute(
                "SELECT * FROM t0 WHERE 123 != (NOT (NOT 123))"))

        assert scenario(make_engine("mysql")) == [(1,)]
        assert scenario(make_engine("mysql",
                                    "mysql-double-negation")) == []

    def test_text_double_bool(self):
        # §4.5: '0.5' in TEXT wrongly FALSE in boolean context.
        def scenario(engine):
            run(engine, "CREATE TABLE t0(c0 TEXT)",
                "INSERT INTO t0(c0) VALUES ('0.5')")
            return rows(engine.execute("SELECT * FROM t0 WHERE t0.c0"))

        assert scenario(make_engine("mysql")) == [("0.5",)]
        assert scenario(make_engine("mysql",
                                    "mysql-text-double-bool")) == []

    def test_check_table_crash(self):
        # Paper Listing 14 (CVE-2019-2879 analogue).
        def scenario(engine):
            run(engine, "CREATE TABLE t0(c0 INT)",
                "CREATE INDEX i0 ON t0((t0.c0 || 1))",
                "INSERT INTO t0(c0) VALUES (1)")
            return engine.execute("CHECK TABLE t0 FOR UPGRADE")

        assert scenario(make_engine("mysql")).rows[0][3].v == "OK"
        with pytest.raises(DBCrash):
            scenario(make_engine("mysql", "mysql-check-table-crash"))

    def test_repair_memory_error(self):
        def scenario(engine):
            engine.execute("CREATE TABLE t0(c0 INT) ENGINE = MEMORY")
            return engine.execute("REPAIR TABLE t0")

        assert scenario(make_engine("mysql")).rows[0][3].v == "OK"
        with pytest.raises(DBError, match="Incorrect key file"):
            scenario(make_engine("mysql", "mysql-repair-memory-error"))

    def test_set_option_error(self):
        # Paper Listing 3: a one-statement bug.
        make_engine("mysql").execute(
            "SET GLOBAL key_cache_division_limit = 100")
        with pytest.raises(DBError, match="Incorrect arguments to SET"):
            make_engine("mysql", "mysql-set-option-error").execute(
                "SET GLOBAL key_cache_division_limit = 100")


class TestPostgresDefects:
    def test_inherit_groupby(self):
        # Paper Listing 15: the one fixed PostgreSQL containment bug.
        def scenario(engine):
            run(engine, "CREATE TABLE t0(c0 INT PRIMARY KEY, c1 INT)",
                "CREATE TABLE t1(c0 INT) INHERITS (t0)",
                "INSERT INTO t0(c0, c1) VALUES(0, 0)",
                "INSERT INTO t1(c0, c1) VALUES(0, 1)")
            return rows(engine.execute(
                "SELECT c0, c1 FROM t0 GROUP BY c0, c1"))

        assert sorted(scenario(make_engine("postgres"))) == \
            [(0, 0), (0, 1)]
        assert scenario(make_engine("postgres",
                                    "pg-inherit-groupby")) == [(0, 0)]

    def test_stats_bitmap_error(self):
        # Paper Listing 16.
        def scenario(engine):
            run(engine, "CREATE TABLE t0(c0 SERIAL, c1 BOOLEAN)",
                "CREATE STATISTICS s1 ON c0, c1 FROM t0",
                "INSERT INTO t0(c1) VALUES(TRUE)",
                "ANALYZE",
                "CREATE INDEX i0 ON t0((t0.c1 AND t0.c1))")
            return rows(engine.execute(
                "SELECT t0.c0 FROM t0 WHERE (((t0.c1) AND (t0.c1)) OR "
                "FALSE) IS TRUE"))

        assert scenario(make_engine("postgres")) == [(1,)]
        with pytest.raises(DBError, match="negative bitmapset member"):
            scenario(make_engine("postgres", "pg-stats-bitmap-error"))

    def test_index_null_error(self):
        # Paper Listing 17 (multithreaded class, deterministic surrogate).
        def scenario(engine):
            run(engine, "CREATE TABLE t0(c0 TEXT)",
                "INSERT INTO t0(c0) VALUES('b'), ('a')",
                "ANALYZE",
                "INSERT INTO t0(c0) VALUES (NULL)",
                "UPDATE t0 SET c0 = 'a'",
                "CREATE INDEX i0 ON t0(c0)")
            return rows(engine.execute(
                "SELECT * FROM t0 WHERE 'baaaa' > t0.c0"))

        assert len(scenario(make_engine("postgres"))) == 3
        with pytest.raises(DBError, match="unexpected null value"):
            scenario(make_engine("postgres", "pg-index-null-error"))

    def test_vacuum_int_overflow(self):
        # Paper Listing 18 (closed as working-as-intended).
        def scenario(engine):
            run(engine, "CREATE TABLE t1(c0 INT)",
                "INSERT INTO t1(c0) VALUES (0)",
                "CREATE INDEX i0 ON t1((1 + t1.c0))",
                "INSERT INTO t1(c0) VALUES (2147483647)",
                "VACUUM FULL")

        scenario(make_engine("postgres"))  # clean: fine
        with pytest.raises(DBError, match="integer out of range"):
            scenario(make_engine("postgres", "pg-vacuum-int-overflow"))

    def test_vacuum_int_overflow_is_intended_triage(self):
        assert BUG_CATALOG["pg-vacuum-int-overflow"].triage == "intended"

    def test_statistics_crash(self):
        def scenario(engine):
            run(engine, "CREATE TABLE t0(c0 SERIAL, c1 BOOLEAN)",
                "CREATE STATISTICS s1 ON c0, c1 FROM t0",
                "INSERT INTO t0(c1) VALUES(TRUE)")
            return rows(engine.execute(
                "SELECT t0.c0 FROM t0 WHERE ((t0.c1 AND t0.c1) OR FALSE) "
                "IS TRUE"))

        assert scenario(make_engine("postgres")) == [(1,)]
        with pytest.raises(DBCrash):
            scenario(make_engine("postgres", "pg-statistics-crash"))
