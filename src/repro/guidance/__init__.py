"""``repro.guidance`` — query-plan-guided generation.

Plan introspection (the adapters' ``forced_plan`` hook under
``BASELINE`` hints + MiniDB ``EXPLAIN``), schema-shape plan
fingerprinting, coverage tracking, and the feedback scheduler that biases :class:`~repro.core.runner.PQSRunner` toward
mutating states that produced novel plans.  Off by default everywhere:
:data:`NULL_GUIDANCE` follows the telemetry package's null-object
pattern, and a hunt without ``--guidance`` is bit-identical to one run
before this package existed.

Usage::

    from repro.guidance import PlanGuidance

    guidance = PlanGuidance(seed=42, telemetry=t)
    runner = PQSRunner(factory, config, guidance=guidance)
    runner.run(100)
    print(guidance.coverage.distinct, "distinct plans")
"""

from repro.guidance.coverage import PlanCoverage
from repro.guidance.fingerprint import (
    PlanStep,
    canonicalize,
    fingerprint,
    parse_sqlite_eqp_detail,
    steps_from_minidb,
    steps_from_sqlite_eqp,
)
from repro.guidance.scheduler import (
    NULL_GUIDANCE,
    NullGuidance,
    PlanGuidance,
    RoundProfile,
    mix_seed,
    mutation_weights,
)

__all__ = [
    "MUTATION_WEIGHTS", "NULL_GUIDANCE", "NullGuidance", "PlanCoverage",
    "PlanGuidance", "PlanStep", "RoundProfile", "canonicalize",
    "fingerprint", "mix_seed", "mutation_weights",
    "parse_sqlite_eqp_detail", "steps_from_minidb",
    "steps_from_sqlite_eqp",
]


def __getattr__(name: str):
    # MUTATION_WEIGHTS resolves lazily (it needs repro.stategen, which
    # would close an import cycle if pulled in at package-import time).
    if name == "MUTATION_WEIGHTS":
        return mutation_weights()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
