"""Memoized replay outcomes: each (defects, statements[, hints]) replay
runs once per finding, below the reducer's predicate, so the reducer's
replay count, its budget and every reduced case stay what they were.
"""

from __future__ import annotations

import os

from repro.campaigns.campaign import Campaign, CampaignConfig
from repro.campaigns.replay import DifferentialReplayer
from repro.core.reducer import TestCaseReducer
from repro.core.reports import TestCase
from repro.core.runner import RunnerConfig
from repro.minidb.bugs import BugRegistry, bugs_for_dialect
from repro.multiplan import MultiPlanReplayer, PlannerHints
from repro.observe.report import _phase_table
from repro.telemetry import Telemetry, names

PADDING = [f"CREATE TABLE p{i}(c0)" for i in range(10)]
LISTING1 = TestCase(statements=PADDING[:5] + [
    "CREATE TABLE t0(c0)",
    "CREATE INDEX i0 ON t0(1) WHERE c0 NOT NULL",
] + PADDING[5:] + [
    "INSERT INTO t0(c0) VALUES (0), (1), (2), (3), (NULL)",
    "SELECT c0 FROM t0 WHERE t0.c0 IS NOT 1",
])

FENCEPOST = TestCase(statements=PADDING[:5] + [
    "CREATE TABLE t0 (c0 TEXT)",
    "CREATE INDEX i0 ON t0 (c0)",
] + PADDING[5:] + [
    "INSERT INTO t0 VALUES ('a'), ('b'), ('c')",
    "SELECT c0 FROM t0",
])
FENCEPOST_HINTS = [PlannerHints(), PlannerHints(force_index="i0")]


def all_sqlite_bugs() -> BugRegistry:
    return BugRegistry({b.bug_id for b in bugs_for_dialect("sqlite")})


def counting(replayer) -> list:
    """Count the replays that actually run an engine."""
    calls: list = []
    plain = replayer._replay

    def replay(*args):
        calls.append(args)
        return plain(*args)

    replayer._replay = replay
    return calls


class TestDifferentialMemo:
    def test_repeated_questions_replay_once(self):
        replayer = DifferentialReplayer("sqlite", all_sqlite_bugs())
        calls = counting(replayer)
        assert replayer.manifests(LISTING1)
        assert len(calls) == 2  # buggy and clean
        assert replayer.manifests(LISTING1)
        assert replayer.difference_kind(LISTING1) == "rows"
        assert len(calls) == 2
        replayer.attribute(LISTING1, ["sqlite-partial-index-is-not"])
        assert len(calls) == 3  # only the single-defect engine is new

    def test_reduction_is_unchanged_by_the_memo(self):
        memoized = DifferentialReplayer("sqlite", all_sqlite_bugs())

        def unmemoized(test_case):
            fresh = DifferentialReplayer("sqlite", all_sqlite_bugs())
            return fresh.manifests(test_case)

        with_memo = TestCaseReducer(memoized.manifests)
        without = TestCaseReducer(unmemoized)
        assert with_memo.reduce(LISTING1) == without.reduce(LISTING1)
        assert with_memo.replays == without.replays
        assert len(with_memo.reduce(LISTING1).statements) == 4


class TestMultiPlanMemo:
    def test_repeated_questions_replay_once(self):
        replayer = MultiPlanReplayer("sqlite", all_sqlite_bugs())
        calls = counting(replayer)
        assert replayer.diverges(FENCEPOST, FENCEPOST_HINTS)
        assert len(calls) == 2
        assert replayer.diverges(FENCEPOST, FENCEPOST_HINTS)
        assert len(calls) == 2
        # Different hints are a different question.
        replayer.diverges(FENCEPOST, FENCEPOST_HINTS[:1])
        assert len(calls) == 3

    def test_reduction_is_unchanged_by_the_memo(self):
        memoized = MultiPlanReplayer("sqlite", all_sqlite_bugs())

        def unmemoized(test_case):
            fresh = MultiPlanReplayer("sqlite", all_sqlite_bugs())
            return fresh.diverges(test_case, FENCEPOST_HINTS)

        with_memo = TestCaseReducer(
            lambda case: memoized.diverges(case, FENCEPOST_HINTS))
        without = TestCaseReducer(unmemoized)
        assert with_memo.reduce(FENCEPOST) == without.reduce(FENCEPOST)
        assert with_memo.replays == without.replays
        assert len(with_memo.reduce(FENCEPOST).statements) == 4


class TestCampaignScope:
    def test_memo_is_dropped_per_finding(self, monkeypatch):
        # Each finding's triage builds its own replayers, so no memo
        # outlives the finding.  Pinned to in-process triage (one
        # usable CPU), where the replayers are counted.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        built: list = []
        for cls in (DifferentialReplayer, MultiPlanReplayer):
            plain = cls.__init__

            def init(self, *args, plain=plain, **kwargs):
                built.append(self)
                plain(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", init)
        result = Campaign(CampaignConfig(dialect="sqlite", seed=0,
                                         databases=20)).run()
        assert result.stats.reports
        assert len({id(replayer) for replayer in built}) == len(built) \
            == 2 * len(result.stats.reports)

    def test_each_finding_is_timed_as_the_reduce_phase(self, tmp_path):
        import json

        telemetry = Telemetry()
        result = Campaign(CampaignConfig(
            dialect="sqlite", seed=0, databases=8, telemetry=telemetry,
            runner=RunnerConfig(multiplan=True))).run()
        reduce = telemetry.registry.histogram(names.PHASE_SECONDS,
                                              phase=names.PHASE_REDUCE)
        assert reduce.count == len(result.stats.reports) > 0
        metrics = tmp_path / "metrics.json"
        metrics.write_text(json.dumps(
            {"snapshot": telemetry.registry.snapshot()}))
        phases = [row["phase"] for row in _phase_table(str(metrics))]
        assert phases == list(names.PHASES)
