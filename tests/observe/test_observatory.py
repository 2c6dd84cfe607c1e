"""The observatory hub: live views over rounds, registry, coverage."""

import time

from repro.campaigns.campaign import Campaign, CampaignConfig
from repro.campaigns.journal import RoundRecord
from repro.core.reports import BugReport, Oracle, TestCase
from repro.core.runner import RunnerConfig
from repro.observe import NULL_OBSERVATORY, Observatory
from repro.telemetry import MetricsRegistry, names


def record(index, reports=()):
    return RoundRecord(index=index, seed=index * 7, statements=10,
                       queries=5, reports=list(reports))


class TestStatus:
    def test_status_rates_count_only_rounds_run_here(self):
        # A resumed hunt: 300 of 400 rounds came from the journal and 3
        # ran in this process.  Rate and ETA follow the 3, not the 303.
        registry = MetricsRegistry()
        registry.counter(names.ROUNDS).inc(303)
        registry.counter(names.JOURNAL_RECOVERED_ROUNDS).inc(300)
        observatory = Observatory(campaign="sqlite-s3", dialect="sqlite",
                                  seed=3, total_rounds=400,
                                  registry=registry)
        time.sleep(0.05)
        status = observatory.status()
        assert status["campaign"] == "sqlite-s3"
        assert status["rounds"] == {"total": 400, "completed": 303,
                                    "pending": 97}
        elapsed = status["elapsed_seconds"]
        rate = status["throughput"]["rounds_per_second"]
        assert 0.9 < rate * elapsed / 3 < 1.1
        assert 0.9 < status["eta_seconds"] / (97 * elapsed / 3) < 1.1
        assert not status["finished"]

    def test_status_falls_back_to_registry(self):
        registry = MetricsRegistry()
        registry.counter(names.ROUNDS).inc(5)
        registry.counter(names.QUERIES).inc(50)
        observatory = Observatory(total_rounds=10, registry=registry)
        status = observatory.status()
        assert status["rounds"]["completed"] == 5
        assert status["throughput"]["queries"] == 50

    def test_finished_freezes_elapsed(self):
        observatory = Observatory()
        observatory.mark_finished()
        first = observatory.status()["elapsed_seconds"]
        time.sleep(0.02)
        assert observatory.status()["elapsed_seconds"] == first
        assert observatory.status()["finished"]


class TestBugs:
    def test_bugs_tagged_with_round_and_fingerprint(self):
        report = BugReport(
            oracle=Oracle.ERROR, dialect="sqlite",
            test_case=TestCase(statements=["CREATE TABLE t0(c0 INT)",
                                           "VACUUM"]),
            message="boom", seed=99)
        observatory = Observatory()
        observatory.add_round(record(1))
        observatory.add_round(record(0, reports=[report]))
        bugs = observatory.bugs()
        assert len(bugs) == 1
        assert bugs[0]["round"] == 0
        assert bugs[0]["fingerprint"] == report.fingerprint()
        assert bugs[0]["oracle"] == "error"

    def test_no_rounds_no_bugs(self):
        assert Observatory().bugs() == []


class TestCoverage:
    def test_untracked(self):
        assert Observatory().coverage() == {"tracked": False}

    def test_tracked(self):
        from repro.guidance import PlanCoverage

        coverage = PlanCoverage()
        coverage.observe("fp1", "SELECT 1")
        observatory = Observatory()
        observatory.attach_coverage(coverage)
        assert observatory.coverage() == {"tracked": True,
                                          "distinct_plans": 1}


class TestMultiplan:
    def test_status_matches_the_campaign_statistics(self):
        observatory = Observatory(total_rounds=8)
        config = CampaignConfig(dialect="sqlite", seed=0, threads=2,
                                databases=8, reduce=False,
                                observe=observatory,
                                runner=RunnerConfig(multiplan=True))
        stats = Campaign(config).run().stats
        assert stats.multiplan_queries > 0
        assert observatory.status()["multiplan"] == {
            "active": True,
            "queries": stats.multiplan_queries,
            "divergences": stats.multiplan_divergences,
            "forced_failures": stats.multiplan_forced_failures}

    def test_plain_hunt_hands_over_every_round(self):
        # A plain hunt (one stream, no journal) runs the same round
        # loop, so an observatory without a registry still sees every
        # round's multi-plan outcome and raw findings.
        observatory = Observatory(total_rounds=8)
        config = CampaignConfig(dialect="sqlite", seed=0, databases=8,
                                reduce=False, observe=observatory,
                                runner=RunnerConfig(multiplan=True))
        stats = Campaign(config).run().stats
        assert stats.multiplan_queries > 0
        assert observatory.status()["multiplan"] == {
            "active": True,
            "queries": stats.multiplan_queries,
            "divergences": stats.multiplan_divergences,
            "forced_failures": stats.multiplan_forced_failures}
        assert stats.reports
        assert [(bug["message"], bug["fingerprint"])
                for bug in observatory.bugs()] == \
            [(report.message, report.fingerprint())
             for report in stats.reports]


class TestNullObservatory:
    def test_inert_and_shared(self):
        NULL_OBSERVATORY.add_round(object())
        NULL_OBSERVATORY.attach_coverage(object())
        NULL_OBSERVATORY.mark_finished()
        assert NULL_OBSERVATORY.status() == {}
        assert NULL_OBSERVATORY.bugs() == []
        assert not NULL_OBSERVATORY.enabled
