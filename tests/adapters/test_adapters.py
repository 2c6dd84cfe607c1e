"""Adapter tests, including PQS against a real SQLite build."""

import pytest

from repro.adapters.base import DBMSConnection
from repro.adapters.minidb_adapter import MiniDBConnection
from repro.adapters.sqlite3_adapter import SQLite3Connection
from repro.core.error_oracle import SQLITE3_DOCUMENTED_QUIRKS
from repro.core.runner import PQSRunner, RunnerConfig
from repro.errors import DBError, IntegrityError
from repro.values import SQLType


class TestProtocol:
    def test_both_adapters_satisfy_protocol(self):
        assert isinstance(MiniDBConnection("sqlite"), DBMSConnection)
        assert isinstance(SQLite3Connection(), DBMSConnection)


class TestSQLite3Adapter:
    def test_value_lifting(self):
        conn = SQLite3Connection()
        row = conn.execute("SELECT 1, 1.5, 'a', X'61', NULL")[0]
        assert [v.t for v in row] == [
            SQLType.INTEGER, SQLType.REAL, SQLType.TEXT, SQLType.BLOB,
            SQLType.NULL]

    def test_errors_normalized(self):
        conn = SQLite3Connection()
        with pytest.raises(DBError):
            conn.execute("SELECT * FROM missing")

    def test_statements_persist(self):
        conn = SQLite3Connection()
        conn.execute("CREATE TABLE t(a)")
        conn.execute("INSERT INTO t VALUES (1)")
        assert conn.execute("SELECT a FROM t")[0][0].v == 1

    def test_close(self):
        conn = SQLite3Connection()
        conn.close()
        with pytest.raises(Exception):
            conn.execute("SELECT 1")

    def test_real_corruption_maps_to_integrity_error(self, tmp_path):
        """Scrambling b-tree pages of an on-disk database makes real
        SQLite report 'database disk image is malformed' — the paper's
        motivating bug class, which the error oracle must see as an
        IntegrityError (always a finding), not generic DBError noise."""
        import sqlite3 as sqlite3_mod

        path = str(tmp_path / "corrupt.db")
        seed_conn = sqlite3_mod.connect(path)
        seed_conn.execute("PRAGMA page_size=512")
        seed_conn.execute("CREATE TABLE t(a)")
        seed_conn.executemany("INSERT INTO t VALUES (?)",
                              [(i,) for i in range(2000)])
        seed_conn.commit()
        seed_conn.close()
        data = bytearray(open(path, "rb").read())
        for page_start in range(512, len(data), 512):
            for i in range(page_start + 8, page_start + 20):
                data[i] = 0xFF  # scramble each page's cell pointers
        open(path, "wb").write(bytes(data))

        conn = SQLite3Connection(path)
        with pytest.raises(IntegrityError) as exc:
            conn.execute("SELECT * FROM t")
        assert "malformed" in exc.value.message
        conn.close()


class TestPQSAgainstRealSQLite:
    """The headline demonstration: the same PQS loop that finds MiniDB's
    injected defects runs against production SQLite and finds nothing —
    the containment oracle holds on a correct engine."""

    def test_no_findings_on_real_sqlite(self):
        runner = PQSRunner(SQLite3Connection,
                           RunnerConfig(dialect="sqlite", seed=1234,
                                        documented_quirks=SQLITE3_DOCUMENTED_QUIRKS))
        stats = runner.run(15)
        details = [(r.oracle.value, r.message,
                    r.test_case.statements[-1][:160])
                   for r in stats.reports]
        assert stats.reports == [], details
        assert stats.queries > 100

    def test_second_seed(self):
        runner = PQSRunner(SQLite3Connection,
                           RunnerConfig(dialect="sqlite", seed=888,
                                        documented_quirks=SQLITE3_DOCUMENTED_QUIRKS))
        stats = runner.run(10)
        assert stats.reports == []

    def test_untyped_column_compared_with_text_column(self):
        # Seed 42003 compares a TEXT column with an untyped (BLOB
        # affinity) one; SQLite applies no affinity between two columns.
        runner = PQSRunner(SQLite3Connection,
                           RunnerConfig(dialect="sqlite", seed=42003,
                                        documented_quirks=SQLITE3_DOCUMENTED_QUIRKS))
        stats = runner.run(10)
        assert stats.reports == []
