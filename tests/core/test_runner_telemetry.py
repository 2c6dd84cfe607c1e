"""Runner instrumentation: the PQS loop measures itself accurately."""

from repro.adapters.minidb_adapter import MiniDBConnection
from repro.core import runner as runner_module
from repro.core.runner import PQSRunner, RunnerConfig
from repro.interp.base import EvalError
from repro.telemetry import ListSink, Telemetry, Tracer, names


def hunted(telemetry, databases=3, seed=7):
    runner = PQSRunner(lambda: MiniDBConnection("sqlite"),
                       RunnerConfig(dialect="sqlite", seed=seed),
                       telemetry=telemetry)
    return runner.run(databases)


class TestCountersMatchStatistics:
    def test_counters_equal_run_statistics(self):
        telemetry = Telemetry()
        stats = hunted(telemetry)
        registry = telemetry.registry
        assert registry.value(names.ROUNDS) == stats.databases
        assert registry.value(names.STATEMENTS) == stats.statements
        assert registry.value(names.QUERIES) == stats.queries
        assert registry.value(names.PIVOTS) == stats.pivots
        assert registry.value(names.EXPECTED_ERRORS) \
            == stats.expected_errors
        assert registry.value(names.TIMEOUTS) == stats.timeouts
        assert registry.value(names.REPORTS) == len(stats.reports)

    def test_expected_errors_labeled_by_statement_kind(self):
        telemetry = Telemetry()
        stats = hunted(telemetry, databases=6)
        if stats.expected_errors == 0:
            return  # nothing to label on this seed
        kinds = [i.labels["kind"]
                 for i in telemetry.registry.instruments()
                 if i.name == names.EXPECTED_ERRORS]
        assert kinds and all(kinds)

    def test_round_seconds_always_measured(self):
        # Timing is telemetry-independent: even a null-telemetry run
        # reports wall-clock (throughput must always be computable).
        stats = hunted(None)
        assert stats.seconds > 0
        assert stats.queries_per_second > 0


class TestSynthesisFailures:
    def test_failed_syntheses_are_counted(self, monkeypatch):
        class FailingQueryGenerator:
            def __init__(self, *args, **kwargs):
                pass

            def synthesize(self, pivot):
                raise EvalError("cannot evaluate on the pivot row")

            synthesize_negative = synthesize

        monkeypatch.setattr(runner_module, "QueryGenerator",
                            FailingQueryGenerator)
        telemetry = Telemetry()
        stats = hunted(telemetry)
        failures = telemetry.registry.value(names.SYNTHESIS_FAILURES)
        assert stats.queries == 0
        assert stats.pivots > 0
        assert failures == stats.pivots * runner_module.QUERIES_PER_PIVOT
        assert names.SYNTHESIS_FAILURES in names.HELP


class TestPhaseHistograms:
    def test_all_four_phases_observed(self):
        telemetry = Telemetry()
        stats = hunted(telemetry)
        registry = telemetry.registry
        for phase in names.ROUND_PHASES:
            histogram = registry.histogram(names.PHASE_SECONDS,
                                           phase=phase)
            assert histogram.count > 0, phase
            assert histogram.sum > 0, phase
        # Synthesis + containment run once per checked query.
        synth = registry.histogram(names.PHASE_SECONDS,
                                   phase=names.PHASE_SYNTH)
        assert synth.count >= stats.queries
        stategen = registry.histogram(names.PHASE_SECONDS,
                                      phase=names.PHASE_STATEGEN)
        assert stategen.count == stats.databases

    def test_phase_time_within_round_time(self):
        telemetry = Telemetry()
        hunted(telemetry)
        registry = telemetry.registry
        phase_total = sum(
            registry.histogram(names.PHASE_SECONDS, phase=p).sum
            for p in names.ROUND_PHASES)
        round_total = registry.histogram(names.ROUND_SECONDS).sum
        assert phase_total <= round_total


class TestTracing:
    def test_spans_cover_the_loop_in_order(self):
        sink = ListSink()
        hunted(Telemetry(tracer=Tracer(sink)), databases=1)
        spans = [e["name"] for e in sink.events if e["kind"] == "span"]
        assert spans[:2] == [names.PHASE_CONNECT, names.PHASE_STATEGEN]
        assert names.PHASE_SYNTH in spans
        assert names.PHASE_CONTAIN in spans
        # Synthesis always closes before its containment check.
        assert spans.index(names.PHASE_SYNTH) \
            < spans.index(names.PHASE_CONTAIN)

    def test_disabled_telemetry_emits_nothing(self):
        sink = ListSink()
        # Default construction: no telemetry argument at all.
        runner = PQSRunner(lambda: MiniDBConnection("sqlite"),
                           RunnerConfig(dialect="sqlite", seed=7))
        stats = runner.run(2)
        assert stats.databases == 2
        assert sink.events == []
        assert runner.telemetry.registry.snapshot() == {}

    def test_telemetry_does_not_perturb_the_hunt(self):
        # Identical seeds must produce identical findings with
        # telemetry on, off, and tracing-only — instrumentation cannot
        # consume randomness or change control flow.
        baseline = hunted(None, databases=4, seed=11)
        metered = hunted(Telemetry(), databases=4, seed=11)
        traced = hunted(Telemetry(tracer=Tracer(ListSink())),
                        databases=4, seed=11)
        for other in (metered, traced):
            assert other.statements == baseline.statements
            assert other.queries == baseline.queries
            assert len(other.reports) == len(baseline.reports)
            assert [r.message for r in other.reports] \
                == [r.message for r in baseline.reports]
