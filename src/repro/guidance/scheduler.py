"""Feedback scheduling: turn plan novelty into generation pressure.

The scheduler closes the guidance loop described in the Query Plan
Guidance line of work: rounds whose queries exercised *novel* plans are
"interesting", and interesting rounds should be **mutated** — same base
state, plus an index/ANALYZE-heavy burst of extra statements — rather
than thrown away for a fresh random state.  Concretely:

* :meth:`PlanGuidance.begin_round` decides the round's state-generation
  plan.  Every guided round gets a **mutation burst** — extra statements
  drawn with :func:`mutation_weights` (heavy on ``CREATE INDEX`` —
  partial, expression, COLLATE, DESC — and on maintenance, whose ANALYZE
  unlocks skip-scan paths) — because that enrichment reaches plan shapes
  the plain action mix rarely sets up.  With probability
  :data:`REUSE_PROBABILITY` (and a non-empty pool) the round *extends an
  interesting lineage*: it replays a pooled (state seed, burst chain)
  recipe and stacks one more burst on it; otherwise it explores a fresh
  per-round state seed with a single burst.
* :meth:`PlanGuidance.observe_query` fingerprints the plan of each
  synthesized query — the connection's ``forced_plan`` hook under
  ``BASELINE`` hints, i.e. the plan the unforced stream takes — and
  feeds the coverage set.
* :meth:`PlanGuidance.end_round` promotes the round's base seed into a
  bounded interesting-seed pool when the round produced novelty.

Two design rules mirror the telemetry subsystem:

* **off costs nothing** — :data:`NULL_GUIDANCE` is a shared null object;
  the runner's unguided path is bit-identical to a build without this
  package (the scheduler owns a *separate* :class:`RandomSource`, so
  even passive observation never perturbs the generation stream);
* **deterministic** — all scheduling randomness derives from the
  campaign seed via a SplitMix64-style mix, and journal resume replays
  rounds through :meth:`restore_round` so the pool and seen-set are
  reconstructed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import DBCrash, DBError
from repro.guidance.coverage import PlanCoverage
from repro.guidance.fingerprint import fingerprint
from repro.multiplan.hints import BASELINE
from repro.rng import RandomSource
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry import names as metric_names

if TYPE_CHECKING:  # pragma: no cover
    from repro.stategen.actions import ActionWeights

#: Interesting (state seed, burst chain) recipes kept for reuse.
POOL_SIZE = 16
#: Probability that a guided round extends a pooled lineage instead of
#: exploring a fresh state.
REUSE_PROBABILITY = 0.3
#: Extra statements per mutation burst.
MUTATION_STATEMENTS = 16
#: Longest burst chain a lineage grows to.
MAX_MUTATIONS = 5

_MUTATION_WEIGHTS = None


def mutation_weights() -> "ActionWeights":
    """Statement mix for mutation bursts: index creation dominates (that
    is where partial/expression/COLLATE/DESC shape variety comes from),
    maintenance is boosted for ANALYZE (skip-scan precondition), and
    destructive actions are nearly suppressed so the interesting state
    survives its own mutation.

    Resolved lazily: importing :mod:`repro.stategen` at module scope
    would close an import cycle (stategen -> core -> this package's
    consumers), so the weights materialize on first use instead.
    """
    global _MUTATION_WEIGHTS
    if _MUTATION_WEIGHTS is None:
        from repro.stategen.actions import ActionWeights

        _MUTATION_WEIGHTS = ActionWeights(
            insert=10.0, update=6.0, delete=2.0, create_index=42.0,
            create_view=2.0, alter=3.0, maintenance=26.0, option=6.0,
            transaction=2.0, drop=1.0)
    return _MUTATION_WEIGHTS


def __getattr__(name: str):
    if name == "MUTATION_WEIGHTS":
        return mutation_weights()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

_MASK64 = (1 << 64) - 1


def mix_seed(a: int, b: int) -> int:
    """SplitMix64-style deterministic seed derivation (process-stable)."""
    x = ((a & _MASK64) * 0x9E3779B97F4A7C15 + (b & _MASK64)) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


@dataclass(slots=True)
class RoundProfile:
    """What the scheduler wants the runner to do for one round."""

    #: Seed for the round's state-generation RandomSource.
    state_seed: int
    #: Mutation bursts stacked on the base state, oldest first: for each
    #: seed, ``MUTATION_STATEMENTS`` extra actions are drawn from a
    #: RandomSource(seed) with ``weights``.  Replaying the same chain
    #: reproduces the same enriched state; each scheduler reuse extends
    #: the chain by one burst, so interesting states grow progressively
    #: richer instead of being re-derived from the original base.
    mutations: tuple[int, ...] = ()
    #: Statement mix for the mutation bursts; None for non-mutating
    #: profiles (filled with :func:`mutation_weights` by the scheduler).
    weights: Optional["ActionWeights"] = None


class NullGuidance:
    """Shared no-op: guidance off.  Mirrors NULL_TELEMETRY."""

    __slots__ = ()
    enabled = False

    def begin_round(self, round_seed: int) -> Optional[RoundProfile]:
        return None

    def observe_query(self, connection, sql: str) -> Optional[str]:
        return None

    def end_round(self) -> int:
        return 0

    def take_round_plans(self) -> list[tuple[str, str]]:
        return []


#: The library-wide disabled default.
NULL_GUIDANCE = NullGuidance()


class PlanGuidance:
    """Coverage tracker + feedback scheduler (guidance on).

    ``feedback=False`` gives *passive* mode: plans are fingerprinted and
    counted but ``begin_round`` returns None, so state generation is
    exactly the unguided stream — the honest baseline for measuring what
    feedback buys (see ``benchmarks/bench_guidance.py``).
    """

    enabled = True

    def __init__(self, seed: int = 0, feedback: bool = True,
                 telemetry: Optional[Telemetry] = None):
        self.coverage = PlanCoverage()
        #: Interesting states as (state_seed, mutation_chain) recipes.
        self.pool: list[tuple[int, tuple[int, ...]]] = []
        self.feedback = feedback
        # Dedicated stream: scheduling draws must not perturb the
        # runner's generation RNG (the guidance-off bit-identity
        # guarantee extends to passive mode).
        self.rng = RandomSource(mix_seed(seed, 0x67756964616E6365))
        self._rounds_started = 0
        self._round_recipe: Optional[tuple[int, tuple[int, ...]]] = None
        self._round_plans: list[tuple[str, str]] = []
        t = telemetry or NULL_TELEMETRY
        self._g_distinct = t.gauge(metric_names.GUIDANCE_PLANS_DISTINCT)
        self._m_novel_rounds = t.counter(
            metric_names.GUIDANCE_NOVEL_ROUNDS)
        self._m_lookups = t.counter(metric_names.GUIDANCE_PLAN_LOOKUPS)

    # -- the per-round loop -------------------------------------------------
    def begin_round(self, round_seed: int) -> Optional[RoundProfile]:
        """Decide this round's state plan; None means "run unguided"."""
        self._round_plans = []
        self._rounds_started += 1
        if not self.feedback:
            self._round_recipe = None
            return None
        if self.pool and self.rng.flip(REUSE_PROBABILITY):
            # Exploit: extend an interesting lineage by one more burst.
            base, chain = self.rng.choice(self.pool)
            nonce = self.rng.int_between(0, 2**31 - 1)
            if len(chain) >= MAX_MUTATIONS:
                # Fully-grown lineage: replace its newest burst so the
                # chain (and per-round replay cost) stays bounded.
                chain = chain[:MAX_MUTATIONS - 1]
            chain = chain + (mix_seed(base, nonce),)
        else:
            # Explore: a fresh state — still with one mutation burst,
            # because index/ANALYZE-heavy enrichment is what reaches the
            # plan shapes the plain action mix rarely sets up.
            base = mix_seed(round_seed, self._rounds_started)
            chain = (mix_seed(base, 1),)
        profile = RoundProfile(
            state_seed=base,
            mutations=chain,
            weights=mutation_weights())
        self._round_recipe = (profile.state_seed, profile.mutations)
        return profile

    def observe_query(self, connection, sql: str) -> Optional[str]:
        """Fingerprint *sql*'s unforced plan on *connection*; returns the
        fingerprint, or None when the target cannot explain it.

        Introspection failures are swallowed: guidance is advisory and
        must never turn a working hunt into a failing one.
        """
        plan_fn = getattr(connection, "forced_plan", None)
        if plan_fn is None:
            return None
        try:
            steps = plan_fn(sql, BASELINE)
        except (DBError, DBCrash):
            return None
        if not steps:
            return None
        self._m_lookups.inc()
        fp = fingerprint(steps)
        if self.coverage.observe(fp, sql):
            self._round_plans.append((fp, sql))
            self._g_distinct.set(self.coverage.distinct)
        return fp

    def end_round(self) -> int:
        """Close the round; returns its novel-plan count."""
        novel = len(self._round_plans)
        if novel:
            self._m_novel_rounds.inc()
            if self.feedback and self._round_recipe is not None:
                self._pool_add(self._round_recipe)
        return novel

    def take_round_plans(self) -> list[tuple[str, str]]:
        """The round's novel (fingerprint, example) pairs, for journaling."""
        plans, self._round_plans = self._round_plans, []
        return plans

    # -- journal resume -----------------------------------------------------
    def restore_round(self, round_seed: int,
                      plans: list[tuple[str, str]]) -> None:
        """Replay one journaled round without executing anything.

        Makes exactly the RNG draws :meth:`begin_round` made originally,
        then replays the journaled novel plans, so after restoring every
        completed round the pool, seen-set, and scheduling stream are in
        the same state as the original process at that point.
        """
        self.begin_round(round_seed)
        for fp, example in plans:
            if self.coverage.observe(fp, example):
                self._round_plans.append((fp, example))
        self._g_distinct.set(self.coverage.distinct)
        self.end_round()

    # -- internals ----------------------------------------------------------
    def _pool_add(self, recipe: tuple[int, tuple[int, ...]]) -> None:
        if recipe in self.pool:
            return
        self.pool.append(recipe)
        if len(self.pool) > POOL_SIZE:
            self.pool.pop(0)
