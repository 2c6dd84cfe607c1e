"""The campaign round executor: the run-journal loop.

An executor owns one :class:`~repro.core.runner.PQSRunner` (its
engines, RNG and guidance scheduler) and runs a campaign's rounds in the
calling thread: for each round index, derive its campaign-global seed,
run it, journal the result and hand it on.  A journaled campaign and
every campaign with ``threads > 1`` run one executor.

Any exception a round raises escapes the loop and aborts the campaign;
a round already journaled stays journaled, so ``--resume`` picks up at
the round that failed.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.campaigns.journal import CampaignJournal, RoundRecord, round_seed
from repro.observe.events import NULL_EVENTS
from repro.telemetry import NULL_TELEMETRY, Telemetry


class RoundExecutor:
    """Runs campaign rounds with one runner.

    With an event log attached the executor narrates its loop —
    ``round_leased`` / ``round_completed`` / ``bug_found`` /
    ``plan_novel`` — and binds ``worker``/``round``/``round_seed``
    tracer context around each round so trace spans join the journal and
    the event log on the same keys.  ``worker`` is always 0: there is
    one executor, and the key stays so existing readers still join.
    """

    #: The ``worker`` key on events and spans.
    worker_id = 0

    def __init__(self, runner, campaign_seed: int,
                 journal: Optional[CampaignJournal] = None,
                 telemetry: Optional[Telemetry] = None,
                 events=None,
                 on_complete: Optional[Callable[[RoundRecord],
                                                None]] = None):
        self.runner = runner
        self.campaign_seed = campaign_seed
        self.journal = journal
        self.telemetry = telemetry or NULL_TELEMETRY
        self.events = events if events is not None else NULL_EVENTS
        #: Sees each completed round's record (the campaign hands its
        #: findings to triage while the hunt goes on).
        self.on_complete = on_complete

    # -- the loop -----------------------------------------------------------
    def run_loop(self, indexes: Iterable[int]) -> None:
        """Run, journal and hand on each round of *indexes*, in order."""
        for index in indexes:
            seed = round_seed(self.campaign_seed, index)
            self.events.emit("round_leased", round=index,
                             worker=self.worker_id, round_seed=seed)
            with self.telemetry.tracer.context(
                    worker=self.worker_id, round=index, round_seed=seed):
                record = self.run_round(index)
            if self.journal is not None:
                self.journal.append_round(record)
            self._emit_outcome(record)
            if self.on_complete is not None:
                self.on_complete(record)

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
            multiplan=round_.multiplan)

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
