"""The observatory hub: live views over queue, registry, coverage."""

import time

from repro.campaigns.journal import RoundRecord
from repro.campaigns.scheduler import RoundQueue
from repro.core.reports import BugReport, Oracle, TestCase
from repro.observe import NULL_OBSERVATORY, EventLog, Observatory
from repro.telemetry import MetricsRegistry, names


def record(index, reports=()):
    return RoundRecord(index=index, seed=index * 7, statements=10,
                       queries=5, reports=list(reports))


def settled_queue(total=4, completed=2, quarantined=1):
    queue = RoundQueue(range(total), campaign_seed=0,
                       quarantine_threshold=1)
    for i in range(completed):
        queue.lease()
        queue.complete(i, record(i))
    for i in range(completed, completed + quarantined):
        queue.lease()
        queue.fail(i, "poison")
    # One round left in flight so leased/pending are distinguishable.
    if completed + quarantined < total:
        queue.lease()
    return queue


class TestCounts:
    def test_counts_from_queue(self):
        observatory = Observatory(total_rounds=4)
        observatory.attach_queue(settled_queue())
        assert observatory.counts() == (2, 1)

    def test_counts_without_queue(self):
        assert Observatory().counts() == (0, 0)


class TestStatus:
    def test_status_with_queue(self):
        observatory = Observatory(campaign="sqlite-s3", dialect="sqlite",
                                  seed=3, total_rounds=4)
        observatory.attach_queue(settled_queue())
        status = observatory.status()
        assert status["campaign"] == "sqlite-s3"
        assert status["rounds"] == {"total": 4, "completed": 2,
                                    "quarantined": 1, "leased": 1,
                                    "pending": 0}
        assert status["elapsed_seconds"] >= 0
        assert "eta_seconds" in status
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
        queue = RoundQueue(range(1), campaign_seed=0)
        queue.lease()
        queue.complete(0, record(0, reports=[report]))
        observatory = Observatory()
        observatory.attach_queue(queue)
        bugs = observatory.bugs()
        assert len(bugs) == 1
        assert bugs[0]["round"] == 0
        assert bugs[0]["fingerprint"] == report.fingerprint()
        assert bugs[0]["oracle"] == "error"

    def test_no_queue_no_bugs(self):
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


class TestNullObservatory:
    def test_inert_and_shared(self):
        NULL_OBSERVATORY.attach_queue(object())
        NULL_OBSERVATORY.attach_coverage(object())
        NULL_OBSERVATORY.mark_finished()
        assert NULL_OBSERVATORY.status() == {}
        assert NULL_OBSERVATORY.counts() == (0, 0)
        assert NULL_OBSERVATORY.bugs() == []
        assert not NULL_OBSERVATORY.enabled
        assert not NULL_OBSERVATORY.events.enabled


class TestEventsWiring:
    def test_observatory_default_events_are_null(self):
        assert not Observatory().events.enabled

    def test_observatory_holds_live_log(self):
        log = EventLog("c")
        observatory = Observatory(events=log)
        observatory.events.emit("campaign_start")
        assert observatory.status()["events"] == 1
