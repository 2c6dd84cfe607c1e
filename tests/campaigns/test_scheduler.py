"""RoundQueue: lease lifecycle, retries, quarantine, preload."""

from repro.campaigns.journal import QuarantineRecord, RoundRecord, round_seed
from repro.campaigns.scheduler import RoundQueue


def record(index, seed=0):
    return RoundRecord(index=index, seed=round_seed(seed, index))


class TestLeaseLifecycle:
    def test_leases_every_round_once(self):
        queue = RoundQueue(range(5), campaign_seed=0)
        leased = [queue.lease() for _ in range(5)]
        assert leased == [0, 1, 2, 3, 4]

    def test_complete_settles(self):
        queue = RoundQueue(range(2), campaign_seed=0)
        for index in (queue.lease(), queue.lease()):
            queue.complete(index, record(index))
        assert queue.settled
        assert queue.lease() is None

    def test_records_in_order(self):
        queue = RoundQueue(range(3), campaign_seed=0)
        for index in (2, 0, 1):
            queue.lease()
        for index in (2, 0, 1):
            queue.complete(index, record(index))
        assert [r.index for r in queue.records_in_order()] == [0, 1, 2]


class TestFailureAndQuarantine:
    def test_fail_requeues_below_threshold(self):
        queue = RoundQueue(range(1), campaign_seed=0,
                           quarantine_threshold=3)
        index = queue.lease()
        assert queue.fail(index, "boom") is None
        assert queue.attempts(index) == 1
        assert queue.lease() == index, "failed round comes back"

    def test_quarantine_at_threshold(self):
        queue = RoundQueue(range(1), campaign_seed=7,
                           quarantine_threshold=2)
        queue.lease()
        assert queue.fail(0, "boom 1") is None
        queue.lease()
        quarantine = queue.fail(0, "boom 2")
        assert isinstance(quarantine, QuarantineRecord)
        assert quarantine.index == 0
        assert quarantine.seed == round_seed(7, 0)
        assert quarantine.attempts == 2
        assert queue.settled, "quarantine settles the round"
        assert queue.lease() is None

    def test_quarantined_in_order(self):
        queue = RoundQueue(range(3), campaign_seed=0,
                           quarantine_threshold=1)
        for _ in range(3):
            index = queue.lease()
            queue.fail(index, "x")
        assert [q.index for q in queue.quarantined_in_order()] == \
            [0, 1, 2]


class TestPreload:
    def test_preloaded_rounds_are_settled(self):
        queue = RoundQueue(range(4), campaign_seed=0)
        queue.preload({0: record(0), 2: record(2)},
                      {3: QuarantineRecord(index=3, seed=1, attempts=3)})
        assert queue.lease() == 1
        queue.complete(1, record(1))
        assert queue.settled
        assert queue.outstanding == 0

    def test_outstanding_counts_pending_and_leased(self):
        queue = RoundQueue(range(3), campaign_seed=0)
        assert queue.outstanding == 3
        queue.lease()
        assert queue.outstanding == 3
        queue.complete(0, record(0))
        assert queue.outstanding == 2
