"""Fault-isolation harness instrumentation: restarts, kills, replay."""

import pytest

from repro.adapters.faults import FaultPlan, FaultyFactory
from repro.adapters.sqlite3_adapter import SQLite3Connection
from repro.adapters import subprocess_adapter
from repro.adapters.subprocess_adapter import SubprocessConnection
from repro.errors import DBCrash, DBTimeout
from repro.telemetry import Telemetry, names

#: Statement deadline, seconds, for targets that should not hang.
FAST = 5.0


@pytest.fixture(autouse=True)
def fast_backoff(monkeypatch):
    monkeypatch.setattr(subprocess_adapter, "BACKOFF_BASE", 0.01)


def isolated(telemetry, plan=None, statement_timeout=FAST):
    factory = (SQLite3Connection if plan is None
               else FaultyFactory(SQLite3Connection, plan))
    return SubprocessConnection(factory, statement_timeout,
                                telemetry=telemetry)


class TestHarnessMetrics:
    def test_clean_run_counts_roundtrips_only(self):
        telemetry = Telemetry()
        conn = isolated(telemetry)
        try:
            conn.execute("CREATE TABLE t(a)")
            conn.execute("INSERT INTO t VALUES (1)")
            conn.execute("SELECT * FROM t")
        finally:
            conn.close()
        registry = telemetry.registry
        assert registry.histogram(names.ROUNDTRIP_SECONDS).count == 3
        assert registry.value(names.WORKER_RESTARTS) == 0
        assert registry.value(names.WATCHDOG_KILLS) == 0

    def test_crash_recovery_counts_restart_and_replay(self):
        telemetry = Telemetry()
        conn = isolated(telemetry, FaultPlan(crash_at=(2,)))
        try:
            conn.execute("CREATE TABLE t(a)")
            conn.execute("INSERT INTO t VALUES (1)")
            with pytest.raises(DBCrash):
                conn.execute("INSERT INTO t VALUES (2)")
            # Restore replays the two successful statements.
            assert conn.execute("SELECT COUNT(*) FROM t")[0][0].v == 1
        finally:
            conn.close()
        registry = telemetry.registry
        assert registry.value(names.WORKER_RESTARTS) == 1
        replay = registry.histogram(names.REPLAY_STATEMENTS,
                                    buckets=names.COUNT_BUCKETS)
        assert replay.count == 1
        assert replay.sum == 2  # two statements replayed

    def test_watchdog_kill_counted(self):
        telemetry = Telemetry()
        conn = isolated(telemetry, FaultPlan(hang_at=(1,)),
                        statement_timeout=0.3)
        try:
            conn.execute("CREATE TABLE t(a)")
            with pytest.raises(DBTimeout):
                conn.execute("INSERT INTO t VALUES (1)")
        finally:
            conn.close()
        assert telemetry.registry.value(names.WATCHDOG_KILLS) == 1

    def test_disabled_mode_records_nothing(self):
        conn = isolated(None, FaultPlan(crash_at=(0,)))
        try:
            with pytest.raises(DBCrash):
                conn.execute("CREATE TABLE t(a)")
            conn.execute("CREATE TABLE t(a)")
        finally:
            conn.close()
        assert conn.telemetry.registry.snapshot() == {}
