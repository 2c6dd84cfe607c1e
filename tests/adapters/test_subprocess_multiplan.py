"""The optional ``forced_plan`` / ``with_plan`` / ``index_candidates``
hooks across the subprocess harness and the fault proxy.

Forced-plan executions are introspection, exactly like planning:
they must cross the pipe, but never enter the crash-replay log and
never advance a fault schedule — otherwise enabling the multiplan
oracle would change what a restarted worker replays and which
statement a fault plan fires on.
"""

import pytest

from repro.adapters.faults import FaultPlan, FaultyConnection, FaultyFactory
from repro.adapters.minidb_adapter import MiniDBConnection
from repro.adapters.subprocess_adapter import SubprocessConnection
from repro.errors import DBCrash, DBError, UnsupportedError
from repro.multiplan import BASELINE, PlannerHints

STATE = ("CREATE TABLE t0 (c0 TEXT)",
         "CREATE INDEX i0 ON t0 (c0)",
         "INSERT INTO t0 VALUES ('a'), ('b'), ('c')")


class TestSubprocessForwarding:
    def test_with_plan_crosses_the_pipe(self):
        conn = SubprocessConnection(MiniDBConnection)
        try:
            for sql in STATE:
                conn.execute(sql)
            hints = PlannerHints(force_index="i0")
            steps = conn.forced_plan("SELECT c0 FROM t0", hints)
            rows = conn.with_plan("SELECT c0 FROM t0", hints)
            assert [v.v for (v,) in rows] == ["a", "b", "c"]
            assert steps[0].index == "i0"
        finally:
            conn.close()

    def test_index_candidates_cross_the_pipe(self):
        conn = SubprocessConnection(MiniDBConnection)
        try:
            for sql in STATE:
                conn.execute(sql)
            assert conn.index_candidates(["t0"]) == ["i0"]
        finally:
            conn.close()

    def test_forced_plan_errors_cross_typed(self):
        conn = SubprocessConnection(MiniDBConnection)
        try:
            for sql in STATE:
                conn.execute(sql)
            for hook in (conn.forced_plan, conn.with_plan):
                with pytest.raises(DBError):
                    hook("SELECT c0 FROM t0",
                         PlannerHints(force_index="nope"))
        finally:
            conn.close()

    def test_replay_length_regression(self):
        """Introspection never grows the replay log: a worker restarted
        after heavy forced-plan traffic replays only the executes."""
        conn = SubprocessConnection(MiniDBConnection)
        try:
            for sql in STATE:
                conn.execute(sql)
            before = conn.statements_replayed
            for _ in range(5):
                conn.forced_plan("SELECT c0 FROM t0", BASELINE)
                conn.with_plan("SELECT c0 FROM t0", BASELINE)
                conn.with_plan("SELECT c0 FROM t0",
                               PlannerHints(force_full_scan=True))
                conn.index_candidates(["t0"])
            assert conn.statements_replayed == before == len(STATE)
        finally:
            conn.close()

    def test_hooks_work_after_crash_restore(self):
        factory = FaultyFactory(MiniDBConnection,
                                FaultPlan(crash_at=(3,)))
        conn = SubprocessConnection(factory)
        try:
            for sql in STATE:
                conn.execute(sql)
            with pytest.raises(DBCrash):
                conn.execute("SELECT * FROM t0")
            # The restarted worker replays the three state statements
            # (not the forced runs); the hooks answer again.
            hints = PlannerHints(force_index="i0")
            assert conn.forced_plan("SELECT c0 FROM t0", hints)
            rows = conn.with_plan("SELECT c0 FROM t0", hints)
            assert len(rows) == 3
            assert conn.index_candidates(["t0"]) == ["i0"]
            assert conn.statements_replayed == len(STATE)
        finally:
            conn.close()


class TestFaultProxyForwarding:
    def test_forwards_without_schedule_advance(self):
        plan = FaultPlan(error_at=(1,))
        conn = FaultyConnection(MiniDBConnection("sqlite"), plan)
        conn.execute(STATE[0])  # global statement #0
        for _ in range(3):
            conn.forced_plan("SELECT c0 FROM t0", BASELINE)
            conn.with_plan("SELECT c0 FROM t0", BASELINE)
            conn.index_candidates(["t0"])
        # The next execute is global statement #1 and must still fault.
        with pytest.raises(DBError):
            conn.execute(STATE[1])

    def test_unsupported_when_inner_lacks_hooks(self):
        class Bare:
            dialect = "sqlite"

            def execute(self, sql):
                return []

            def close(self):
                pass

        conn = FaultyConnection(Bare(), FaultPlan())
        with pytest.raises(UnsupportedError):
            conn.forced_plan("SELECT 1", BASELINE)
        with pytest.raises(UnsupportedError):
            conn.with_plan("SELECT 1", BASELINE)
        with pytest.raises(UnsupportedError):
            conn.index_candidates(["t0"])
