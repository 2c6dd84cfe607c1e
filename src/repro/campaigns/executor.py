"""The campaign round executor: the lease-run-journal loop.

An executor owns one :class:`~repro.core.runner.PQSRunner` (its
engines, RNG and guidance scheduler) and drains the campaign's
:class:`~repro.campaigns.scheduler.RoundQueue` in the calling thread:
lease a round index, derive its campaign-global seed, run it, journal
the result, settle the lease.  A journaled campaign and every campaign
with ``threads > 1`` run one executor.

Failure handling is split by blast radius:

* :class:`~repro.errors.HarnessError` (the fault-isolation harness gave
  up on a round, or chaos injected a transient) settles *the round* via
  :meth:`RoundQueue.fail` — requeue below the quarantine threshold,
  quarantine record at it — and the loop moves on;
* anything else escapes the loop and aborts the campaign.
"""

from __future__ import annotations

from typing import Optional

from repro.campaigns.journal import CampaignJournal, RoundRecord, round_seed
from repro.campaigns.chaos import NULL_CHAOS
from repro.campaigns.scheduler import RoundQueue
from repro.errors import HarnessError
from repro.observe.events import NULL_EVENTS
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry import names as metric_names


class RoundExecutor:
    """Drains the round queue with one runner.

    With an event log attached the executor narrates its loop —
    ``round_leased`` / ``round_failed`` / ``round_completed`` /
    ``round_quarantined`` / ``bug_found`` / ``plan_novel`` /
    ``chaos_corruption`` — and binds ``worker``/``round``/``round_seed``
    tracer context around each round so trace spans join the journal and
    the event log on the same keys.  ``worker`` is always 0: there is
    one executor, and the key stays so existing readers still join.
    """

    #: The ``worker`` key on events and spans.
    worker_id = 0

    def __init__(self, runner, queue: RoundQueue, campaign_seed: int,
                 journal: Optional[CampaignJournal] = None,
                 chaos=None,
                 telemetry: Optional[Telemetry] = None,
                 events=None):
        self.runner = runner
        self.queue = queue
        self.campaign_seed = campaign_seed
        self.journal = journal
        self.chaos = chaos or NULL_CHAOS
        self.telemetry = telemetry or NULL_TELEMETRY
        self.events = events if events is not None else NULL_EVENTS
        self._m_requeued = self.telemetry.counter(
            metric_names.SUPERVISOR_REQUEUED)
        self._m_quarantined = self.telemetry.counter(
            metric_names.SUPERVISOR_QUARANTINED)

    # -- the loop -----------------------------------------------------------
    def run_loop(self) -> None:
        """Lease and run rounds until nothing is pending."""
        while True:
            index = self.queue.lease()
            if index is None:
                return
            seed = round_seed(self.campaign_seed, index)
            attempt = self.queue.attempts(index)
            self.events.emit("round_leased", round=index,
                             worker=self.worker_id, round_seed=seed,
                             attempt=attempt)
            try:
                self.chaos.on_round_start(index, attempt)
                with self.telemetry.tracer.context(
                        worker=self.worker_id, round=index,
                        round_seed=seed):
                    record = self.run_round(index)
            except HarnessError as error:
                self._settle_failure(index, error)
                continue
            if self.journal is not None:
                self.journal.append_round(record)
                if self.chaos.on_journal_write(self.journal.path):
                    self.events.emit("chaos_corruption", round=index,
                                     worker=self.worker_id,
                                     path=self.journal.path)
            self.queue.complete(index, record)
            self._emit_outcome(record)

    def run_round(self, index: int) -> RoundRecord:
        """Run one round under its campaign-global derived seed."""
        seed = round_seed(self.campaign_seed, index)
        self.runner.reseed(seed)
        round_ = self.runner.run_database_round()
        return RoundRecord(
            index=index, seed=seed,
            statements=round_.statements, queries=round_.queries,
            pivots=round_.pivots,
            expected_errors=round_.expected_errors,
            timeouts=round_.timeouts, seconds=round_.seconds,
            reports=round_.reports,
            plans=self.runner.guidance.take_round_plans(),
            multiplan=round_.multiplan,
            plantime=round_.plantime)

    # -- internals ----------------------------------------------------------
    def _emit_outcome(self, record: RoundRecord) -> None:
        """Events for a completed round."""
        self.events.emit(
            "round_completed", round=record.index,
            worker=self.worker_id, round_seed=record.seed,
            statements=record.statements, queries=record.queries,
            pivots=record.pivots,
            expected_errors=record.expected_errors,
            timeouts=record.timeouts, reports=len(record.reports))
        for ordinal, report in enumerate(record.reports):
            self.events.emit(
                "bug_found", round=record.index,
                worker=self.worker_id, round_seed=record.seed,
                ordinal=ordinal, oracle=report.oracle.value,
                message=report.message)
        if record.plans:
            self.events.emit(
                "plan_novel", round=record.index,
                worker=self.worker_id, round_seed=record.seed,
                fingerprints=sorted(fp for fp, _ in record.plans))

    def _settle_failure(self, index: int, error: HarnessError) -> None:
        summary = f"{type(error).__name__}: {error}"
        seed = round_seed(self.campaign_seed, index)
        quarantine = self.queue.fail(index, summary)
        if quarantine is None:
            self._m_requeued.inc()
            self.events.emit("round_failed", round=index,
                             worker=self.worker_id, round_seed=seed,
                             attempt=self.queue.attempts(index),
                             error=summary)
            return
        self._m_quarantined.inc()
        if self.journal is not None:
            self.journal.append_quarantine(quarantine)
        self.events.emit("round_quarantined", round=index,
                         worker=self.worker_id, round_seed=seed,
                         error=summary)
