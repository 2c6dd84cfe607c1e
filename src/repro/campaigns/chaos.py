"""Deterministic chaos injection for round-queue campaigns.

The round queue's guarantees — retries, quarantine, checksummed journal
recovery — are only believable if they are exercised.
:class:`ChaosPolicy` is a seeded fault schedule that injects transient
round failures and corrupts journal bytes *from outside the unit under
test*, so an acceptance test can assert the strongest property there
is: a chaos-ridden campaign completes and produces results
**bit-identical** to an undisturbed run.

Two fault channels, each seeded and budget-capped so a chaos campaign
always terminates:

* **transient round failures** — :meth:`on_round_start` raises
  :class:`~repro.errors.HarnessError` for a deterministic, seed-chosen
  subset of rounds on their first ``transient_failures`` attempts; the
  queue must requeue and the retry must succeed.  Rounds listed in
  ``poison_rounds`` fail *every* attempt and must end up quarantined;
* **journal corruption** — :meth:`on_journal_write` flips a byte in an
  already-written journal line (never the header); a later resume must
  skip-and-count the line and re-run only that round.

All decisions derive from the policy seed (and, for per-round faults,
the round index), never from wall clock or object identity, so a chaos
run is reproducible under ``PYTHONHASHSEED`` like everything else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import HarnessError
from repro.guidance.scheduler import mix_seed
from repro.rng import RandomSource


@dataclass
class ChaosEvents:
    """What a policy actually did — asserted on by the chaos tests."""

    transients: int = 0
    corruptions: int = 0
    poisoned: int = 0

    @property
    def any(self) -> int:
        return self.transients + self.corruptions + self.poisoned


@dataclass
class ChaosPolicy:
    """A seeded, budget-capped fault schedule for one campaign run."""

    seed: int = 0
    #: Fraction (percent) of round indexes that fail transiently.
    transient_percent: int = 25
    #: Failed attempts each transient round makes before succeeding
    #: (keep below the quarantine threshold).
    transient_failures: int = 1
    #: Probability a journal append corrupts one earlier line.
    corrupt_probability: float = 0.2
    max_corruptions: int = 2
    #: Round indexes that fail on *every* attempt — these must be
    #: quarantined, never abort the campaign.
    poison_rounds: frozenset = frozenset()
    events: ChaosEvents = field(default_factory=ChaosEvents)

    def __post_init__(self) -> None:
        self._rng = RandomSource(mix_seed(self.seed, 0xC4A05))

    enabled = True

    # -- fault channels -----------------------------------------------------
    def on_round_start(self, index: int, attempt: int) -> None:
        """May raise :class:`~repro.errors.HarnessError` before a round
        executes (a stand-in for e.g. the subprocess harness exhausting
        its replay budget)."""
        if index in self.poison_rounds:
            self.events.poisoned += 1
            raise HarnessError(
                f"chaos: poison round {index} (attempt {attempt + 1})")
        if not self._is_transient(index):
            return
        if attempt >= self.transient_failures:
            return
        self.events.transients += 1
        raise HarnessError(
            f"chaos: transient failure on round {index} "
            f"(attempt {attempt + 1})")

    def on_journal_write(self, path: str) -> bool:
        """Maybe flip one byte in an already-written journal line."""
        if self.events.corruptions >= self.max_corruptions:
            return False
        if not self._rng.flip(self.corrupt_probability):
            return False
        if not self._corrupt_line(path, self._rng.int_between(0, 2**30)):
            return False
        self.events.corruptions += 1
        return True

    # -- internals ----------------------------------------------------------
    def _is_transient(self, index: int) -> bool:
        # Membership depends only on (seed, index): stable no matter
        # in what order the round runs or how many times.
        return mix_seed(self.seed, index) % 100 < self.transient_percent

    @staticmethod
    def _corrupt_line(path: str, pick: int) -> bool:
        """Flip a mid-line byte of a non-header line of *path*."""
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return False
        lines = data.split(b"\n")
        # Candidates: complete non-header lines long enough that the
        # flipped byte lands inside the record, not on a newline.
        candidates = [i for i, line in enumerate(lines)
                      if i >= 1 and len(line) > 10]
        if not candidates:
            return False
        target = candidates[pick % len(candidates)]
        offset = sum(len(line) + 1 for line in lines[:target]) \
            + len(lines[target]) // 2
        original = data[offset:offset + 1]
        replacement = b"#" if original != b"#" else b"@"
        try:
            with open(path, "r+b") as handle:
                handle.seek(offset)
                handle.write(replacement)
        except OSError:
            return False
        return True


class NullChaos:
    """Shared no-op: chaos off (the default everywhere)."""

    __slots__ = ()
    enabled = False

    def on_round_start(self, index: int, attempt: int) -> None:
        return None

    def on_journal_write(self, path: str) -> bool:
        return False


#: The library-wide disabled default.
NULL_CHAOS = NullChaos()
