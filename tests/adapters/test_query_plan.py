"""Query-plan introspection across every adapter: the optional
``forced_plan`` hook under ``BASELINE`` hints returns the plan the
unforced statement stream takes."""

from __future__ import annotations

import pytest

from repro.adapters.faults import FaultPlan, FaultyConnection
from repro.adapters.minidb_adapter import MiniDBConnection
from repro.adapters.sqlite3_adapter import SQLite3Connection
from repro.core.runner import PQSRunner, RunnerConfig
from repro.errors import DBError, UnsupportedError
from repro.guidance import NullGuidance, PlanStep, fingerprint
from repro.guidance.fingerprint import steps_from_minidb
from repro.minidb.bugs import BugRegistry, bugs_for_dialect
from repro.multiplan.hints import BASELINE

STATE = ("CREATE TABLE t0 (c0 INT, c1 TEXT)",
         "CREATE INDEX i0 ON t0(c0)",
         "INSERT INTO t0 VALUES (1, 'a'), (2, 'b')")


def build(conn):
    for sql in STATE:
        conn.execute(sql)
    return conn


class PlanBothWays(NullGuidance):
    """Stands in for guidance at its call site: plans every synthesized
    query with ``forced_plan(sql, BASELINE)`` and with MiniDB's own
    ``EXPLAIN QUERY PLAN sql``."""

    def __init__(self):
        self.pairs = []

    def observe_query(self, connection, sql):
        self.pairs.append((
            sql,
            outcome(lambda: connection.forced_plan(sql, BASELINE)),
            outcome(lambda: steps_from_minidb(connection.engine.execute(
                f"EXPLAIN QUERY PLAN {sql}").python_rows()))))


def outcome(plan):
    try:
        return plan()
    except DBError as error:
        return type(error).__name__, error.message


@pytest.mark.parametrize("dialect", ["sqlite", "mysql", "postgres"])
def test_baseline_plan_is_explain_query_plan(dialect):
    bugs = {bug.bug_id for bug in bugs_for_dialect(dialect)}
    guidance = PlanBothWays()
    runner = PQSRunner(
        lambda: MiniDBConnection(dialect, bugs=BugRegistry(bugs)),
        RunnerConfig(dialect=dialect, seed=2), guidance=guidance)
    runner.run(8)
    assert len(guidance.pairs) > 50
    for sql, forced, explained in guidance.pairs:
        assert forced == explained, sql
    assert any(isinstance(forced, list) and forced
               for _, forced, _ in guidance.pairs)


def test_minidb_query_plan():
    conn = build(MiniDBConnection())
    steps = conn.forced_plan("SELECT * FROM t0 WHERE c0 = 1", BASELINE)
    assert steps and isinstance(steps[0], PlanStep)
    assert steps[0].kind == "index-scan"
    assert steps[0].index == "i0"


def test_minidb_query_plan_does_not_count_statements():
    conn = build(MiniDBConnection())
    before = conn.statements_executed
    conn.forced_plan("SELECT * FROM t0", BASELINE)
    assert conn.statements_executed == before


def test_sqlite3_query_plan():
    conn = build(SQLite3Connection())
    steps = conn.forced_plan("SELECT * FROM t0 WHERE c0 = 1", BASELINE)
    assert steps and steps[0].kind == "index-scan"
    assert steps[0].index == "i0"
    full = conn.forced_plan("SELECT * FROM t0", BASELINE)
    assert full[0].kind == "full-scan"


def test_sqlite3_query_plan_bad_sql_raises_dberror():
    conn = build(SQLite3Connection())
    with pytest.raises(DBError):
        conn.forced_plan("SELECT * FROM nonexistent", BASELINE)


def test_minidb_and_sqlite3_agree_on_shape():
    """Different engines, same schema shape => same fingerprint family
    (index-scan over T0/I0), though constraint details may differ."""
    sql = "SELECT * FROM t0 WHERE c0 = 1"
    mini = build(MiniDBConnection()).forced_plan(sql, BASELINE)
    lite = build(SQLite3Connection()).forced_plan(sql, BASELINE)
    assert mini[0].kind == lite[0].kind == "index-scan"
    assert fingerprint(mini) and fingerprint(lite)


def test_faulty_connection_forwards_without_schedule_advance():
    plan = FaultPlan(error_at=(1,))
    conn = FaultyConnection(MiniDBConnection(), plan)
    conn.execute(STATE[0])  # index 0
    for _ in range(3):
        conn.forced_plan("SELECT * FROM t0", BASELINE)
    # The next execute is global statement #1 and must still fault.
    with pytest.raises(DBError):
        conn.execute(STATE[1])


def test_faulty_connection_without_inner_hook():
    class Bare:
        dialect = "sqlite"

        def execute(self, sql):
            return []

        def close(self):
            pass

    conn = FaultyConnection(Bare(), FaultPlan())
    with pytest.raises(UnsupportedError):
        conn.forced_plan("SELECT 1", BASELINE)


def test_subprocess_forwards_query_plan():
    pytest.importorskip("repro.adapters.subprocess_adapter")
    from repro.adapters.subprocess_adapter import SubprocessConnection

    conn = SubprocessConnection(MiniDBConnection)
    try:
        for sql in STATE:
            conn.execute(sql)
        steps = conn.forced_plan("SELECT * FROM t0 WHERE c0 = 1",
                                 BASELINE)
        assert steps[0].kind == "index-scan"
        assert steps[0].index == "i0"
    finally:
        conn.close()


def test_subprocess_query_plan_not_replayed_after_crash():
    """Plan lookups must not enter the replay log: after a crash the
    worker restores state from executed statements only."""
    from repro.adapters.faults import FaultyFactory
    from repro.adapters.subprocess_adapter import SubprocessConnection
    from repro.errors import DBCrash

    factory = FaultyFactory(MiniDBConnection, FaultPlan(crash_at=(3,)))
    conn = SubprocessConnection(factory)
    try:
        for sql in STATE:
            conn.execute(sql)
        conn.forced_plan("SELECT * FROM t0", BASELINE)
        with pytest.raises(DBCrash):
            conn.execute("SELECT * FROM t0")
        # Restarted worker replays the three state statements; the
        # query still answers and the plan hook still works.
        rows = conn.execute("SELECT c0 FROM t0")
        assert len(rows) == 2
        steps = conn.forced_plan("SELECT * FROM t0 WHERE c0 = 1",
                                 BASELINE)
        assert steps[0].index == "i0"
    finally:
        conn.close()
