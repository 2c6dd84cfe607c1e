"""The persistent isolated worker: one process re-targeted per
connection, respawned only after a crash, a timeout or a failed
handshake, and reaped at exit.  Its import path stays free of MiniDB."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.adapters.faults import FaultPlan, FaultyFactory
from repro.adapters.sqlite3_adapter import SQLite3Connection
from repro.adapters import subprocess_adapter
from repro.adapters.subprocess_adapter import SubprocessConnection
from repro.core.error_oracle import SQLITE3_DOCUMENTED_QUIRKS
from repro.core.runner import PQSRunner, RunnerConfig
from repro.errors import DBCrash, DBError, DBTimeout, HarnessError
from repro.telemetry import Telemetry, names

SRC = Path(__file__).resolve().parents[2] / "src"
#: Statement deadline, seconds, for targets that should not hang.
FAST = 5.0


@pytest.fixture(autouse=True)
def fast_backoff(monkeypatch):
    monkeypatch.setattr(subprocess_adapter, "BACKOFF_BASE", 0.01)


def isolated(plan=None, statement_timeout=FAST, telemetry=None):
    factory = (SQLite3Connection if plan is None
               else FaultyFactory(SQLite3Connection, plan))
    return SubprocessConnection(factory, statement_timeout, telemetry)


def fresh_interpreter(script: str) -> str:
    """Run *script* in a new Python process; return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestReuse:
    def test_state_does_not_leak_into_the_next_connection(self):
        first = isolated()
        first.execute("CREATE TABLE t(a)")
        pid = first.worker_pid
        first.close()
        second = isolated()
        try:
            assert second.worker_pid == pid
            with pytest.raises(DBError) as exc:
                second.execute("SELECT * FROM t")
            assert "no such table" in exc.value.message
        finally:
            second.close()

    def test_fault_schedule_restarts_with_each_connection(self):
        # The first connection crashes at statement 2 and ends on a
        # restarted worker whose schedule offset is 3; the second
        # connection re-targets that worker and must crash at 2 again.
        plan = FaultPlan(crash_at=(2,))
        pids = []
        for _ in range(2):
            conn = isolated(plan)
            try:
                pids.append(conn.worker_pid)
                conn.execute("CREATE TABLE t(a)")
                conn.execute("INSERT INTO t VALUES (1)")
                with pytest.raises(DBCrash):
                    conn.execute("INSERT INTO t VALUES (2)")
                conn.execute("INSERT INTO t VALUES (3)")
                pids.append(conn.worker_pid)
            finally:
                conn.close()
        first_start, first_end, second_start, second_end = pids
        assert first_end != first_start
        assert second_start == first_end
        assert second_end != second_start

    def test_crashed_worker_is_never_reused(self):
        conn = isolated(FaultPlan(crash_at=(1,)))
        crashed = conn.worker_pid
        try:
            conn.execute("CREATE TABLE t(a)")
            with pytest.raises(DBCrash):
                conn.execute("INSERT INTO t VALUES (1)")
        finally:
            conn.close()
        after = isolated()
        try:
            assert after.worker_pid != crashed
        finally:
            after.close()

    def test_timed_out_worker_is_never_reused(self):
        conn = isolated(FaultPlan(hang_at=(1,), hang_seconds=60), 0.3)
        hung = conn.worker_pid
        try:
            conn.execute("CREATE TABLE t(a)")
            with pytest.raises(DBTimeout):
                conn.execute("INSERT INTO t VALUES (1)")
        finally:
            conn.close()
        after = isolated()
        try:
            assert after.worker_pid != hung
        finally:
            after.close()

    def test_worker_with_an_unread_reply_is_never_parked(self):
        conn = isolated()
        pid = conn.worker_pid
        conn._send({"op": "execute", "sql": "SELECT 1"})
        conn.close()
        after = isolated()
        try:
            assert after.worker_pid != pid
            assert after.execute("SELECT 2")[0][0].v == 2
        finally:
            after.close()

    def test_clean_rounds_share_one_worker_without_restarts(self):
        telemetry = Telemetry()
        pids = set()

        def factory():
            conn = SubprocessConnection(SQLite3Connection, FAST, telemetry)
            pids.add(conn.worker_pid)
            return conn

        runner = PQSRunner(
            factory,
            RunnerConfig(dialect="sqlite", seed=5,
                         documented_quirks=SQLITE3_DOCUMENTED_QUIRKS),
            telemetry=telemetry)
        stats = runner.run(3)
        assert stats.databases == 3
        assert len(pids) == 1
        registry = telemetry.registry
        assert registry.value(names.WORKER_RESTARTS) == 0
        connect = registry.histogram(names.PHASE_SECONDS,
                                     phase=names.PHASE_CONNECT)
        assert connect.count == 3


class UnbuildableTarget:
    """A factory whose target can never come up (fails in the child)."""

    def __call__(self):  # pragma: no cover - runs in the worker child
        raise RuntimeError("cannot build target")


def _refuse_to_load():  # pragma: no cover - runs in the worker child
    raise RuntimeError("cannot build target")


class UnloadableFactory:
    """A factory the worker cannot unpickle."""

    def __reduce__(self):
        return (_refuse_to_load, ())


class TestFactoryFailure:
    @pytest.mark.parametrize("factory", [UnbuildableTarget(),
                                         UnloadableFactory()])
    def test_factory_error_is_a_harness_error_without_retries(
            self, monkeypatch, factory):
        spawns = []
        plain_spawn = SubprocessConnection._spawn

        def counting_spawn(self):
            spawns.append(1)
            return plain_spawn(self)

        monkeypatch.setattr(SubprocessConnection, "_spawn", counting_spawn)
        monkeypatch.setattr(subprocess_adapter, "MAX_RESTARTS", 3)
        monkeypatch.setattr(subprocess_adapter, "BACKOFF_BASE", 0.0)
        telemetry = Telemetry()
        with pytest.raises(HarnessError) as exc:
            SubprocessConnection(factory, None, telemetry)
        assert "did not survive" not in str(exc.value)
        assert "RuntimeError: cannot build target" in str(exc.value)
        assert len(spawns) == 1
        assert telemetry.registry.value(names.WORKER_RESTARTS) == 0


class TestFreshInterpreter:
    def test_isolated_hunt_starts_one_worker_and_reaps_it(self):
        # The check is registered before the adapter is imported, so
        # it runs after the adapter's own exit hook (atexit is LIFO).
        out = fresh_interpreter("""
            import atexit, io, json, os, sys
            from contextlib import redirect_stdout

            spawned = []

            def check():
                try:
                    os.waitpid(-1, os.WNOHANG)
                    left = True
                except ChildProcessError:
                    left = False
                print(json.dumps({"spawned": len(spawned),
                                  "children_left": left,
                                  "exit": code}))

            atexit.register(check)
            from repro.adapters import subprocess_adapter
            plain = subprocess_adapter._start_worker

            def counting_start():
                spawned.append(1)
                return plain()

            subprocess_adapter._start_worker = counting_start
            from repro import cli

            with redirect_stdout(io.StringIO()):
                code = cli.main(["sqlite", "--isolate", "--databases",
                                 "10", "--seed", "0"])
        """)
        result = json.loads(out.strip().splitlines()[-1])
        assert result == {"spawned": 1, "children_left": False, "exit": 0}

    def test_worker_import_path_skips_minidb(self):
        out = fresh_interpreter("""
            import json, sys
            import repro, repro.adapters.subprocess_worker
            import repro.adapters.sqlite3_adapter
            heavy = ("repro.minidb", "repro.campaigns", "repro.interp",
                     "repro.multiplan")
            loaded = sorted(m for m in sys.modules
                            if m.startswith(heavy))
            import repro.adapters
            missing = [n for n in repro.__all__ if not hasattr(repro, n)]
            missing += [n for n in repro.adapters.__all__
                        if not hasattr(repro.adapters, n)]
            namespace = {}
            exec("from repro import *", namespace)
            starred = sorted(set(repro.__all__) - set(namespace))
            print(json.dumps({"loaded": loaded, "missing": missing,
                              "starred": starred}))
        """)
        result = json.loads(out.strip().splitlines()[-1])
        assert result == {"loaded": [], "missing": [], "starred": []}
