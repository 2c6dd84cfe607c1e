"""Runner internals: statement logging, error routing, option tracking,
report caps, and per-database round structure."""

import pytest

from repro.adapters.minidb_adapter import MiniDBConnection
from repro.core.reports import RoundRecord
from repro.core.runner import PQSRunner, RunnerConfig
from repro.minidb.bugs import BugRegistry


def make_runner(dialect="sqlite", bugs=(), **overrides):
    config = RunnerConfig(dialect=dialect, seed=overrides.pop("seed", 0),
                          **overrides)
    return PQSRunner(
        lambda: MiniDBConnection(dialect, bugs=BugRegistry(set(bugs))),
        config)


class TestRunStatistics:
    def test_counters_accumulate(self):
        runner = make_runner(seed=5)
        stats = runner.run(5)
        assert stats.databases == 5
        assert stats.statements > 0
        assert stats.queries > 0
        assert stats.pivots > 0

    def test_expected_errors_counted_not_reported(self):
        runner = make_runner(seed=5)
        stats = runner.run(20)
        assert stats.expected_errors > 0
        assert stats.reports == []


class TestReportCap:
    def test_max_reports_per_database(self):
        runner = make_runner(
            bugs=["sqlite-rename-expr-index"], seed=3,
            max_reports_per_database=2)
        for _ in range(30):
            round_ = runner.run_database_round()
            assert len(round_.reports) <= 2


class TestOptionTracking:
    def test_case_sensitive_like_mirrored_into_oracle(self):
        runner = make_runner()
        connection = MiniDBConnection("sqlite")
        round_ = RoundRecord()
        log = []
        runner._run_statement(connection,
                              "PRAGMA case_sensitive_like = 1", None,
                              log, round_)
        assert runner.interpreter.semantics.like_case_sensitive is True
        runner._run_statement(connection,
                              "PRAGMA case_sensitive_like = 0", None,
                              log, round_)
        assert runner.interpreter.semantics.like_case_sensitive is False

    def test_reset_each_database(self):
        runner = make_runner()
        runner.interpreter.semantics.like_case_sensitive = True
        runner.run_database_round()
        # A fresh database starts with the default PRAGMA value; the
        # round may have toggled it, but the *start* of the round reset
        # it, so a round generating no PRAGMA leaves it False.
        runner2 = make_runner(extra_statements=0)
        runner2.interpreter.semantics.like_case_sensitive = True
        runner2.run_database_round()
        assert runner2.interpreter.semantics.like_case_sensitive is False

    def test_failed_pragma_not_tracked(self):
        runner = make_runner()
        from repro.errors import DBError

        class FailingConnection:
            dialect = "sqlite"

            def execute(self, sql):
                raise DBError("no such pragma")

            def close(self):
                pass

        round_ = RoundRecord()
        runner._run_statement(FailingConnection(),
                              "PRAGMA case_sensitive_like = 1", None,
                              [], round_)
        assert runner.interpreter.semantics.like_case_sensitive is False


class TestErrorRouting:
    def test_unexpected_error_reported_with_log(self):
        runner = make_runner(bugs=["mysql-set-option-error"],
                             dialect="mysql", seed=11)
        found = None
        for _ in range(60):
            round_ = runner.run_database_round()
            for report in round_.reports:
                if "Incorrect arguments" in report.message:
                    found = report
                    break
            if found:
                break
        assert found is not None
        assert found.test_case.statements[-1].startswith("SET")
        # The log prefix holds only statements that succeeded.
        assert all(not s.startswith("SET GLOBAL "
                                    "key_cache_division_limit = 100")
                   for s in found.test_case.statements[:-1])

    def test_crash_reported(self):
        runner = make_runner(bugs=["mysql-check-table-crash"],
                             dialect="mysql", seed=11)
        crashes = []
        for _ in range(80):
            round_ = runner.run_database_round()
            crashes.extend(r for r in round_.reports
                           if r.oracle.value == "segfault")
            if crashes:
                break
        assert crashes
        assert "CHECK TABLE" in crashes[0].test_case.statements[-1]


class TestLogDiscipline:
    def test_every_logged_statement_replays(self):
        """The statement log must be replayable on a fresh engine: every
        entry either succeeds or fails identically — the invariant the
        reducer and the attribution replay depend on."""
        from repro.errors import DBCrash, DBError

        runner = make_runner(seed=21)
        reports = []
        logs = []

        original = runner._run_statement

        def capture(connection, sql, on_success, log, round_):
            original(connection, sql, on_success, log, round_)
            logs.append(list(log))

        runner._run_statement = capture
        runner.run_database_round()
        assert logs
        final_log = logs[-1]
        replay = MiniDBConnection("sqlite")
        failures = 0
        for sql in final_log:
            try:
                replay.execute(sql)
            except (DBError, DBCrash):
                failures += 1
        assert failures == 0, "logged statements must replay cleanly"
