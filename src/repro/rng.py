"""Seeded random source used by every generator in the tool.

Wrapping :class:`random.Random` in one place gives us (a) reproducible
campaigns from a single seed, (b) domain-specific helpers (weighted choice,
identifier and literal drawing), and (c) a single point to instrument when
measuring generator behaviour.
"""

from __future__ import annotations

import random
import string
from typing import Sequence, TypeVar

T = TypeVar("T")

#: Characters used in random TEXT literals.  Deliberately mixes case (to
#: exercise NOCASE), trailing-space candidates (RTRIM), LIKE/GLOB wildcards,
#: quotes and digits — the character classes the paper's test cases hinge on.
TEXT_ALPHABET = string.ascii_letters + string.digits + " %_*?./!#,'\"-+"


class RandomSource:
    """A seeded pseudo-random source with SQL-generation helpers."""

    def __init__(self, seed: int | None = None):
        self.seed = seed if seed is not None else random.randrange(2**32)
        self._rng = random.Random(self.seed)

    def fork(self) -> "RandomSource":
        """Derive an independent child source (used per-thread/per-database)."""
        return RandomSource(self._rng.randrange(2**63))

    # -- primitives ---------------------------------------------------------
    def flip(self, probability: float = 0.5) -> bool:
        return self._rng.random() < probability

    def int_between(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        return self._rng.randint(lo, hi)

    def choice(self, options: Sequence[T]) -> T:
        if not options:
            raise IndexError("choice() on an empty sequence")
        return self._rng.choice(options)

    def sample(self, options: Sequence[T], k: int) -> list[T]:
        return self._rng.sample(options, k)

    def weighted_choice(self, options: Sequence[T], weights: Sequence[float]) -> T:
        return self._rng.choices(options, weights=weights, k=1)[0]

    def random(self) -> float:
        return self._rng.random()

    def gauss(self, mu: float, sigma: float) -> float:
        return self._rng.gauss(mu, sigma)

    # -- SQL-flavoured draws --------------------------------------------------
    def short_text(self, max_len: int = 8) -> str:
        n = self.int_between(0, max_len)
        return "".join(self.choice(TEXT_ALPHABET) for _ in range(n))

    def identifier(self, prefix: str, index: int) -> str:
        return f"{prefix}{index}"
