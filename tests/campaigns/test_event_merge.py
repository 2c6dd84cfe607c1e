"""Event-log determinism: the merged, filtered stream is schedule-free.

Full event streams are honest about scheduling — which round was
leased when, how many attempts — and therefore differ between runs.
The contract is one level up: :func:`deterministic_view` of the merged
stream (outcome events only, schedule fields projected away) must be
identical across thread counts and chaos injections, exactly like the
campaign results themselves.
"""

from repro.campaigns.campaign import Campaign, CampaignConfig
from repro.campaigns.chaos import ChaosPolicy
from repro.campaigns.journal import round_seed
from repro.observe import (
    EventLog,
    Observatory,
    campaign_id,
    deterministic_view,
    merge_events,
    novel_fingerprints,
)

SEED = 5
TOTAL = 12


def hunt(threads, per_thread, journal=None, chaos=None,
         telemetry=None, tmp_path=None,
         **overrides):
    events = EventLog(campaign_id("sqlite", SEED))
    observatory = Observatory(campaign=events.campaign,
                              dialect="sqlite", seed=SEED,
                              total_rounds=threads * per_thread,
                              events=events)
    if threads == 1 and journal is None:
        # One thread runs per-round events through the round queue only
        # with a journal (the inline executor).
        journal = str(tmp_path / "inline.jsonl")
    config = CampaignConfig(
        dialect="sqlite", seed=SEED, threads=threads,
        databases=threads * per_thread, reduce=False,
        journal=journal, chaos=chaos, observe=observatory,
        telemetry=telemetry, **overrides)
    result = Campaign(config).run()
    return result, events.events()


class TestMergeDeterminism:
    def test_view_identical_across_thread_counts(self, tmp_path):
        views = []
        for threads, per_thread in [(1, 12), (2, 6), (3, 4)]:
            assert threads * per_thread == TOTAL
            _, events = hunt(threads, per_thread, tmp_path=tmp_path)
            views.append(deterministic_view(merge_events(events)))
        assert views[0] == views[1] == views[2]
        completed = [e for e in views[0]
                     if e["kind"] == "round_completed"]
        assert [e["round"] for e in completed] == list(range(TOTAL))

    def test_view_identical_under_chaos(self, tmp_path):
        _, calm = hunt(3, 4)
        chaos = ChaosPolicy(seed=11, transient_percent=30,
                            transient_failures=1,
                            corrupt_probability=0.5, max_corruptions=2)
        _, disturbed = hunt(3, 4, journal=str(tmp_path / "c.jsonl"),
                            chaos=chaos)
        # The raw streams differ: chaos adds round_failed / chaos_*
        # events the calm run never sees.
        disturbed_kinds = {e["kind"] for e in disturbed}
        assert "round_failed" in disturbed_kinds
        assert deterministic_view(merge_events(disturbed)) == \
            deterministic_view(merge_events(calm))

    def test_per_worker_streams_merge_like_one(self):
        # Simulate cross-process collection: each process writes its
        # own event file (here: one per round stream); merging the
        # shards equals merging the whole.
        _, events = hunt(3, 4)
        shards = {}
        for event in events:
            shards.setdefault(event.get("round", 0) % 3, []).append(event)
        assert len(shards) > 1, "more than one stream emitted"
        merged_shards = merge_events(*shards.values())
        assert deterministic_view(merged_shards) == \
            deterministic_view(merge_events(events))

    def test_round_seeds_in_events_match_derivation(self):
        _, events = hunt(2, 6)
        for event in events:
            if event["kind"] == "round_completed":
                assert event["round_seed"] == \
                    round_seed(SEED, event["round"])

    def test_tracked_runs_agree_on_plan_union(self, tmp_path):
        # Per-event plan novelty is worker-relative (which round gets
        # credit depends on scheduling), so plan_novel is excluded from
        # the deterministic view; the schedule-free invariant is the
        # *union* of fingerprints, which must match the merged coverage.
        # Passive tracking (a coverage path without guidance) leaves
        # generation untouched, so the union holds across thread counts;
        # feedback guidance is per-worker by design and makes no such
        # cross-schedule claim.
        unions, views = [], []
        for threads, per_thread in [(1, 12), (3, 4)]:
            path = str(tmp_path / f"cov{threads}.json")
            result, events = hunt(threads, per_thread,
                                  plan_coverage=path, tmp_path=tmp_path)
            unions.append(novel_fingerprints(events))
            views.append(deterministic_view(merge_events(events)))
            assert unions[-1] == \
                sorted(result.plan_coverage.fingerprints())
        assert unions[0] == unions[1]
        assert unions[0], "tracking must surface novel plans"
        assert views[0] == views[1], \
            "tracked outcome stream is still schedule-free"
        assert not any(e["kind"] == "plan_novel" for e in views[0])


class TestSpanEventJoin:
    def test_spans_carry_round_correlation_attrs(self):
        # The tracer context wraps run_round, so every span inside a
        # round carries the same worker/round/round_seed keys as the
        # event log and journal — the three artifacts join on them.
        from repro.telemetry import ListSink, MetricsRegistry, Telemetry
        from repro.telemetry.tracer import Tracer

        sink = ListSink()
        telemetry = Telemetry(registry=MetricsRegistry(),
                              tracer=Tracer(sink))
        _, events = hunt(2, 6, telemetry=telemetry)
        in_round = [e for e in sink.events
                    if "round" in e.get("attrs", {})]
        assert in_round, "round phases must emit spans"
        rounds_spanned = set()
        for span in in_round:
            attrs = span["attrs"]
            assert set(attrs) >= {"worker", "round", "round_seed"}
            assert attrs["round_seed"] == \
                round_seed(SEED, attrs["round"])
            rounds_spanned.add(attrs["round"])
        assert rounds_spanned == set(range(TOTAL))
        # Spot-join: each completion event matches spans of its round.
        for event in events:
            if event["kind"] != "round_completed":
                continue
            matching = [s for s in in_round
                        if s["attrs"]["round"] == event["round"]]
            assert matching
            assert all(s["attrs"]["round_seed"] == event["round_seed"]
                       for s in matching)
