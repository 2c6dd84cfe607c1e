"""The fault-isolation harness: crash detection, watchdog, replay.

These tests spawn real child processes; they are the proof that the
crash oracle works for *live* targets — a worker death is detected,
reported, and recovered from without taking the campaign down.
"""

import pytest

from repro.adapters.base import DBMSConnection
from repro.adapters.faults import FaultPlan, FaultyFactory
from repro.adapters.sqlite3_adapter import SQLite3Connection
from repro.adapters import subprocess_adapter
from repro.adapters.subprocess_adapter import SubprocessConnection
from repro.core.error_oracle import SQLITE3_DOCUMENTED_QUIRKS
from repro.core.runner import PQSRunner, RunnerConfig
from repro.errors import DBCrash, DBError, DBTimeout, HarnessError

#: Statement deadline, seconds, for targets that should not hang.
FAST = 5.0


@pytest.fixture(autouse=True)
def fast_backoff(monkeypatch):
    monkeypatch.setattr(subprocess_adapter, "BACKOFF_BASE", 0.01)


def isolated(plan=None, statement_timeout=FAST):
    factory = (SQLite3Connection if plan is None
               else FaultyFactory(SQLite3Connection, plan))
    return SubprocessConnection(factory, statement_timeout)


class TestProtocol:
    def test_satisfies_connection_protocol(self):
        conn = isolated()
        try:
            assert isinstance(conn, DBMSConnection)
            assert conn.dialect == "sqlite"
        finally:
            conn.close()

    def test_value_fidelity_across_the_pipe(self):
        conn = isolated()
        try:
            row = conn.execute(
                "SELECT 1, 1.5, 'héllo', X'00ff', NULL")[0]
            assert [v.v for v in row] == [1, 1.5, "héllo",
                                          b"\x00\xff", None]
        finally:
            conn.close()

    def test_state_persists_across_statements(self):
        conn = isolated()
        try:
            conn.execute("CREATE TABLE t(a)")
            conn.execute("INSERT INTO t VALUES (41)")
            conn.execute("UPDATE t SET a = a + 1")
            assert conn.execute("SELECT a FROM t")[0][0].v == 42
        finally:
            conn.close()

    def test_db_errors_cross_the_pipe_typed(self):
        conn = isolated()
        try:
            with pytest.raises(DBError) as exc:
                conn.execute("SELECT * FROM missing")
            assert "missing" in exc.value.message
            assert not isinstance(exc.value, DBTimeout)
        finally:
            conn.close()

    def test_failed_statements_not_replayed(self):
        conn = isolated(FaultPlan(crash_at=(3,)))
        try:
            conn.execute("CREATE TABLE t(a UNIQUE)")
            conn.execute("INSERT INTO t VALUES (1)")
            with pytest.raises(DBError):
                conn.execute("INSERT INTO t VALUES (1)")  # constraint
            with pytest.raises(DBCrash):
                conn.execute("INSERT INTO t VALUES (2)")
            # Restore replays only the two successes.
            assert [r[0].v for r in conn.execute("SELECT a FROM t")] \
                == [1]
        finally:
            conn.close()

    def test_close_is_idempotent(self):
        conn = isolated()
        conn.close()
        conn.close()


class TestCrashRecovery:
    def test_crash_restart_replay_roundtrip(self):
        conn = isolated(FaultPlan(crash_at=(3,)))
        try:
            conn.execute("CREATE TABLE t(a)")
            conn.execute("INSERT INTO t VALUES (1)")
            conn.execute("INSERT INTO t VALUES (2)")
            first_pid = conn.worker_pid
            with pytest.raises(DBCrash) as exc:
                conn.execute("INSERT INTO t VALUES (3)")
            assert "injected segfault" in str(exc.value)
            rows = conn.execute("SELECT a FROM t ORDER BY a")
            assert [r[0].v for r in rows] == [1, 2]
            assert conn.worker_pid != first_pid
        finally:
            conn.close()

    def test_crash_fault_does_not_refire_after_restart(self):
        # The fault offset advances past the crashed statement, so a
        # deterministic crash_at cannot wedge the connection in a loop.
        conn = isolated(FaultPlan(crash_at=(1,)))
        try:
            conn.execute("CREATE TABLE t(a)")
            with pytest.raises(DBCrash):
                conn.execute("INSERT INTO t VALUES (1)")
            for i in range(5):
                conn.execute(f"INSERT INTO t VALUES ({i})")
            assert len(conn.execute("SELECT * FROM t")) == 5
        finally:
            conn.close()

    def test_real_process_death_is_a_crash(self):
        # Kill the worker out from under the harness — the next
        # statement must surface DBCrash, not hang or raise oddly.
        import os
        import signal

        conn = isolated()
        try:
            conn.execute("CREATE TABLE t(a)")
            os.kill(conn.worker_pid, signal.SIGKILL)
            with pytest.raises(DBCrash) as exc:
                conn.execute("INSERT INTO t VALUES (1)")
            assert "SIGKILL" in str(exc.value) or "died" in str(exc.value)
            conn.execute("INSERT INTO t VALUES (1)")  # recovered
        finally:
            conn.close()


class TestWatchdog:
    def test_timeout_fires_on_hung_statement(self):
        plan = FaultPlan(hang_at=(1,), hang_seconds=60)
        conn = isolated(plan, 0.3)
        try:
            conn.execute("CREATE TABLE t(a)")
            with pytest.raises(DBTimeout) as exc:
                conn.execute("INSERT INTO t VALUES (1)")
            assert "watchdog" in exc.value.message
        finally:
            conn.close()

    def test_state_survives_a_timeout(self):
        plan = FaultPlan(hang_at=(2,), hang_seconds=60)
        conn = isolated(plan, 0.3)
        try:
            conn.execute("CREATE TABLE t(a)")
            conn.execute("INSERT INTO t VALUES (7)")
            with pytest.raises(DBTimeout):
                conn.execute("INSERT INTO t VALUES (8)")
            # The hung statement was dropped; prior state was replayed.
            assert [r[0].v for r in conn.execute("SELECT a FROM t")] \
                == [7]
        finally:
            conn.close()


class UnbuildableTarget:
    """A factory whose target can never come up (fails in the child)."""

    def __call__(self):  # pragma: no cover - runs in the worker child
        raise RuntimeError("cannot build target")


class TestRetryBudget:
    def test_budget_exhaustion_raises_harness_error(self, monkeypatch):
        # Every spawn attempt fails at the handshake, so restore burns
        # through its retry budget and gives up loudly.
        monkeypatch.setattr(subprocess_adapter, "MAX_RESTARTS", 2)
        monkeypatch.setattr(subprocess_adapter, "BACKOFF_BASE", 0.0)
        with pytest.raises(HarnessError):
            SubprocessConnection(UnbuildableTarget(), 1.0)


class TestRunnerIntegration:
    """Acceptance: a fault plan that crashes the target mid-campaign
    yields a crash-oracle BugReport and the campaign completes the
    remaining databases — no process death, no lost results."""

    def test_crash_and_hang_mid_campaign(self):
        plan = FaultPlan(crash_at=(12,), hang_at=(25,), hang_seconds=60)
        def factory():
            return SubprocessConnection(
                FaultyFactory(SQLite3Connection, plan), 0.4)

        runner = PQSRunner(
            factory,
            RunnerConfig(dialect="sqlite", seed=3,
                         documented_quirks=SQLITE3_DOCUMENTED_QUIRKS))
        stats = runner.run(3)
        assert stats.databases == 3, "campaign must complete every db"
        crashes = [r for r in stats.reports
                   if r.oracle.value == "segfault"]
        # The per-round schedule injects one crash and one hang per
        # database round.
        assert len(crashes) == 3
        assert stats.timeouts == 3
        for report in crashes:
            assert "injected segfault" in report.message
            assert report.test_case.statements

    def test_clean_subprocess_run_matches_in_process(self):
        config = RunnerConfig(dialect="sqlite", seed=55,
                              documented_quirks=SQLITE3_DOCUMENTED_QUIRKS)
        in_process = PQSRunner(SQLite3Connection, config).run(2)

        def factory():
            return SubprocessConnection(SQLite3Connection, FAST)

        config2 = RunnerConfig(dialect="sqlite", seed=55,
                               documented_quirks=SQLITE3_DOCUMENTED_QUIRKS)
        isolated_stats = PQSRunner(factory, config2).run(2)
        assert in_process.statements == isolated_stats.statements
        assert in_process.queries == isolated_stats.queries
        assert len(in_process.reports) == len(isolated_stats.reports) == 0
