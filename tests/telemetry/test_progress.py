"""The live progress line."""

import io
import time

from repro.telemetry import MetricsRegistry, ProgressReporter, names
from repro.telemetry.progress import _fmt_duration


def registry_with(rounds=0, reports=0, statements=0, queries=0):
    registry = MetricsRegistry()
    registry.counter(names.ROUNDS).inc(rounds)
    registry.counter(names.REPORTS, oracle="error").inc(reports)
    registry.counter(names.STATEMENTS).inc(statements)
    registry.counter(names.QUERIES).inc(queries)
    return registry


class TestRenderLine:
    def test_line_contents(self):
        reporter = ProgressReporter(
            registry_with(rounds=3, reports=2, statements=40, queries=25),
            total_rounds=10, stream=io.StringIO())
        line = reporter.render_line()
        assert line.startswith("[pqs] round 3/10 (30%)")
        assert "reports 2" in line
        assert "40 stmts, 25 queries" in line
        assert "q/s" in line
        assert "ETA" in line

    def test_no_eta_before_first_round(self):
        reporter = ProgressReporter(registry_with(), total_rounds=10,
                                    stream=io.StringIO())
        assert "ETA" not in reporter.render_line()

    def test_unknown_total_omits_fraction(self):
        reporter = ProgressReporter(registry_with(rounds=4),
                                    total_rounds=0, stream=io.StringIO())
        line = reporter.render_line()
        assert "round 4 " in line and "/" not in line.split("|")[0]

    def test_reports_sum_across_oracle_labels(self):
        registry = registry_with(reports=1)
        registry.counter(names.REPORTS, oracle="contains").inc(2)
        reporter = ProgressReporter(registry, total_rounds=5,
                                    stream=io.StringIO())
        assert "reports 3" in reporter.render_line()


class TestSettledRounds:
    def test_duplicate_reruns_never_exceed_total(self):
        # A counter can overshoot the total; the line is clamped.
        registry = registry_with(rounds=12)
        reporter = ProgressReporter(registry, total_rounds=10,
                                    stream=io.StringIO())
        line = reporter.render_line()
        assert "round 10/10 (100%)" in line
        assert "103%" not in line and "120%" not in line

    def test_resumed_hunt_eta_counts_only_rounds_run_here(self):
        # 300 rounds came from the journal, 3 ran here in 6 s: 97 left
        # at 2 s each.  Crediting the 300 would print "ETA 2s".
        registry = registry_with(rounds=303)
        registry.counter(names.JOURNAL_RECOVERED_ROUNDS).inc(300)
        reporter = ProgressReporter(registry, total_rounds=400,
                                    stream=io.StringIO())
        reporter._start_time = time.monotonic() - 6.0
        line = reporter.render_line()
        assert "round 303/400 (76%)" in line
        assert "ETA 3m1" in line  # 194 s, give or take the clock

    def test_fully_recovered_hunt_has_nothing_left(self):
        registry = registry_with(rounds=10)
        registry.counter(names.JOURNAL_RECOVERED_ROUNDS).inc(10)
        reporter = ProgressReporter(registry, total_rounds=10,
                                    stream=io.StringIO())
        assert "ETA 0s" in reporter.render_line()


class TestReporterThread:
    def test_periodic_lines_then_final(self):
        stream = io.StringIO()
        registry = registry_with(rounds=1, statements=10, queries=5)
        reporter = ProgressReporter(registry, total_rounds=2,
                                    interval=0.05, stream=stream)
        reporter.start()
        time.sleep(0.2)
        registry.counter(names.ROUNDS).inc()
        reporter.stop()
        lines = stream.getvalue().splitlines()
        assert len(lines) >= 2, "periodic ticks plus the final line"
        assert "round 2/2 (100%)" in lines[-1]

    def test_context_manager(self):
        stream = io.StringIO()
        with ProgressReporter(registry_with(rounds=1), total_rounds=1,
                              interval=5.0, stream=stream):
            pass
        assert stream.getvalue().count("\n") == 1  # just the final line

    def test_closed_stream_does_not_raise(self):
        stream = io.StringIO()
        reporter = ProgressReporter(registry_with(), total_rounds=1,
                                    interval=0.02, stream=stream)
        reporter.start()
        stream.close()
        time.sleep(0.1)
        reporter._stop.wait(0.5)
        assert reporter._stop.is_set(), \
            "reporter must shut itself down when the stream goes away"
        reporter.stop(final_line=False)


class TestDurationFormat:
    def test_ranges(self):
        assert _fmt_duration(12.4) == "12s"
        assert _fmt_duration(75) == "1m15s"
        assert _fmt_duration(3720) == "1h02m"
        assert _fmt_duration(-3) == "0s"
