"""PlanGuidance scheduling: determinism, pooling, resume replay."""

from __future__ import annotations

from repro.errors import DBError
from repro.guidance import (
    NULL_GUIDANCE,
    PlanGuidance,
    PlanStep,
    mix_seed,
    mutation_weights,
    scheduler,
)
from repro.multiplan.hints import BASELINE


class FakeConnection:
    """Returns a scripted baseline plan per SQL string."""

    def __init__(self, plans):
        self.plans = plans

    def forced_plan(self, sql, hints):
        assert hints == BASELINE
        value = self.plans[sql]
        if isinstance(value, Exception):
            raise value
        return value


def test_null_guidance_is_inert():
    assert not NULL_GUIDANCE.enabled
    assert NULL_GUIDANCE.begin_round(1) is None
    assert NULL_GUIDANCE.observe_query(object(), "SELECT 1") is None
    assert NULL_GUIDANCE.end_round() == 0
    assert NULL_GUIDANCE.take_round_plans() == []


def test_passive_mode_never_steers():
    guidance = PlanGuidance(seed=1, feedback=False)
    assert guidance.begin_round(10) is None
    assert guidance.begin_round(11) is None
    assert guidance.pool == []


def test_mix_seed_process_stable():
    # Frozen values: the derivation must never drift, or resumed
    # journals would replay different states.
    assert mix_seed(0, 0) == 0
    assert mix_seed(1, 2) == mix_seed(1, 2)
    assert mix_seed(1, 2) != mix_seed(2, 1)
    assert 0 <= mix_seed(2**70, -3) < 2**64


def test_every_guided_round_gets_a_mutation_burst():
    guidance = PlanGuidance(seed=3)
    profile = guidance.begin_round(77)
    assert profile is not None
    assert profile.mutations
    assert profile.weights is not None
    assert profile.weights.create_index > profile.weights.insert


def test_observe_and_round_plans():
    guidance = PlanGuidance(seed=3)
    conn = FakeConnection({
        "q1": [PlanStep("full-scan", "t0")],
        "q2": [PlanStep("full-scan", "t0")],
        "q3": [PlanStep("index-scan", "t0", "i0")],
        "bad": DBError("no plan"),
        "empty": [],
    })
    guidance.begin_round(1)
    assert guidance.observe_query(conn, "q1") is not None
    assert guidance.observe_query(conn, "q2") is not None  # same fp, seen
    assert guidance.observe_query(conn, "q3") is not None
    assert guidance.observe_query(conn, "bad") is None
    assert guidance.observe_query(conn, "empty") is None
    assert guidance.observe_query(object(), "q1") is None  # no hook
    assert guidance.end_round() == 2
    plans = guidance.take_round_plans()
    assert [sql for _, sql in plans] == ["q1", "q3"]
    assert guidance.take_round_plans() == []


def test_novel_rounds_feed_the_pool_and_pool_is_bounded(monkeypatch):
    monkeypatch.setattr(scheduler, "POOL_SIZE", 3)
    guidance = PlanGuidance(seed=5)
    conn = FakeConnection({})
    for i in range(8):
        guidance.begin_round(i)
        conn.plans[f"q{i}"] = [PlanStep("full-scan", f"t{i}", None,
                                        str(i))]
        guidance.observe_query(conn, f"q{i}")
        guidance.end_round()
    assert len(guidance.pool) <= 3


def test_barren_rounds_stay_out_of_the_pool():
    guidance = PlanGuidance(seed=5)
    guidance.begin_round(1)
    assert guidance.end_round() == 0
    assert guidance.pool == []


def test_restore_round_replays_scheduler_state():
    """A journal-resumed scheduler is indistinguishable from one that
    ran the rounds live: same pool, same coverage, same next profile."""
    plans_per_round = [
        [("f1", "q1"), ("f2", "q2")],
        [],
        [("f3", "q3")],
    ]

    live = PlanGuidance(seed=9)
    for index, plans in enumerate(plans_per_round):
        live.begin_round(100 + index)
        for fp, sql in plans:
            if live.coverage.observe(fp, sql):
                live._round_plans.append((fp, sql))
        live.end_round()

    resumed = PlanGuidance(seed=9)
    for index, plans in enumerate(plans_per_round):
        resumed.restore_round(100 + index, plans)

    assert resumed.pool == live.pool
    assert resumed.coverage.to_json() == live.coverage.to_json()
    assert resumed.begin_round(999) == live.begin_round(999)


def test_mutation_weights_shape():
    weights = mutation_weights()
    # Index creation and maintenance dominate; destructive actions are
    # nearly suppressed so mutated states keep their rows.
    assert weights.create_index > weights.maintenance > weights.insert
    assert weights.drop < weights.insert
