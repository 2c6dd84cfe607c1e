"""The campaign work queue: round indexes as retryable units of work.

:class:`RoundQueue` holds a campaign's round indexes.  The round
executor leases the next pending round, and a failed round is
*requeued* for another attempt; a round that keeps failing is
*quarantined* after a bounded number of attempts instead of aborting
the campaign.

Because every round derives its own seed
(:func:`~repro.campaigns.journal.round_seed`), a round's outcome does
not depend on when it runs; a retry at the back of the queue, or a
round recovered from a journal, composes into the same statistics as an
uninterrupted run.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Iterable, Optional

from repro.campaigns.journal import QuarantineRecord, RoundRecord, round_seed


class RoundQueue:
    """The queue of campaign round indexes one executor drains.

    Lifecycle of one round: ``pending`` → leased (by :meth:`lease`) →
    either completed (:meth:`complete`), requeued (:meth:`fail` under
    the threshold), or quarantined (:meth:`fail` at the threshold).
    :meth:`lease` returns None once nothing is pending.  One lock
    guards the bookkeeping, because the status server reads it from its
    own thread while the hunt runs.
    """

    def __init__(self, indexes: Iterable[int], campaign_seed: int,
                 quarantine_threshold: int = 3):
        self._pending = deque(sorted(indexes))
        self._campaign_seed = campaign_seed
        self.quarantine_threshold = max(1, quarantine_threshold)
        self._total = len(self._pending)
        #: Rounds leased and not yet settled.
        self._leased: set[int] = set()
        #: index -> failed attempts so far.
        self._attempts: dict[int, int] = {}
        self.completed: dict[int, RoundRecord] = {}
        self.quarantined: dict[int, QuarantineRecord] = {}
        self._lock = threading.Lock()

    # -- preloading (journal resume) ----------------------------------------
    def preload(self, rounds: dict[int, RoundRecord],
                quarantined: dict[int, QuarantineRecord]) -> None:
        """Mark journal-recovered rounds as already settled."""
        with self._lock:
            for index, record in rounds.items():
                if index not in self._pending:
                    continue
                self._pending.remove(index)
                self.completed[index] = record
            for index, record in quarantined.items():
                if index not in self._pending:
                    continue
                self._pending.remove(index)
                self.quarantined[index] = record

    # -- executor-facing ----------------------------------------------------
    def lease(self) -> Optional[int]:
        """Next pending round index; None when nothing is pending."""
        with self._lock:
            if not self._pending:
                return None
            index = self._pending.popleft()
            self._leased.add(index)
            return index

    def complete(self, index: int, record: RoundRecord) -> None:
        """Settle *index* with *record*."""
        with self._lock:
            self._leased.discard(index)
            self.completed[index] = record

    def fail(self, index: int, error: str) -> Optional[QuarantineRecord]:
        """Record a failed attempt; requeue or quarantine.

        Returns the :class:`QuarantineRecord` when the round just hit
        the threshold (the caller journals it), None when it was
        requeued for another attempt.
        """
        with self._lock:
            self._leased.discard(index)
            attempts = self._attempts.get(index, 0) + 1
            self._attempts[index] = attempts
            if attempts >= self.quarantine_threshold:
                record = QuarantineRecord(
                    index=index,
                    seed=round_seed(self._campaign_seed, index),
                    attempts=attempts, error=error)
                self.quarantined[index] = record
                return record
            self._pending.append(index)
            return None

    def attempts(self, index: int) -> int:
        with self._lock:
            return self._attempts.get(index, 0)

    # -- readers -------------------------------------------------------------
    @property
    def settled(self) -> bool:
        """Every round completed or quarantined."""
        return self.outstanding == 0

    @property
    def outstanding(self) -> int:
        """Rounds not yet settled (pending + leased)."""
        with self._lock:
            return self._total - len(self.completed) - len(self.quarantined)

    @property
    def total(self) -> int:
        return self._total

    def counts(self) -> dict[str, int]:
        """One consistent snapshot of the queue's bookkeeping — the
        status service reads this instead of racing four properties."""
        with self._lock:
            completed = len(self.completed)
            quarantined = len(self.quarantined)
            leased = len(self._leased)
            return {"total": self._total, "completed": completed,
                    "quarantined": quarantined, "leased": leased,
                    "pending": (self._total - completed - quarantined
                                - leased)}

    def records_in_order(self) -> list[RoundRecord]:
        """Completed records sorted by round index — merge in this
        order and the result does not depend on retries."""
        with self._lock:
            return [self.completed[i] for i in sorted(self.completed)]

    def quarantined_in_order(self) -> list[QuarantineRecord]:
        with self._lock:
            return [self.quarantined[i] for i in sorted(self.quarantined)]
