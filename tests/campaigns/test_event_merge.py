"""Event-log determinism: the stream does not depend on ``threads``.

Every round runs in index order in one loop, so apart from the
wall-clock fields ``t`` and ``wall`` a campaign's event stream is the
same whatever the thread count: ``threads=2`` emits exactly what one
journaled round stream of the same rounds emits.
"""

from repro.campaigns.campaign import Campaign, CampaignConfig
from repro.campaigns.journal import round_seed
from repro.observe import EventLog, Observatory, campaign_id

SEED = 5
TOTAL = 12


def hunt(threads, per_thread, journal=None, telemetry=None,
         tmp_path=None, **overrides):
    events = EventLog(campaign_id("sqlite", SEED))
    observatory = Observatory(campaign=events.campaign,
                              dialect="sqlite", seed=SEED,
                              total_rounds=threads * per_thread,
                              events=events)
    if threads == 1 and journal is None:
        # One round stream emits per-round events only with a journal.
        journal = str(tmp_path / "inline.jsonl")
    config = CampaignConfig(
        dialect="sqlite", seed=SEED, threads=threads,
        databases=threads * per_thread, reduce=False,
        journal=journal, observe=observatory,
        telemetry=telemetry, **overrides)
    result = Campaign(config).run()
    return result, events.events()


def timeless(events):
    """The stream minus its wall-clock fields."""
    return [{k: v for k, v in event.items() if k not in ("t", "wall")}
            for event in events]


class TestMergeDeterminism:
    def test_view_identical_across_thread_counts(self, tmp_path):
        streams = []
        for threads, per_thread in [(1, 12), (2, 6), (3, 4)]:
            assert threads * per_thread == TOTAL
            _, events = hunt(threads, per_thread, tmp_path=tmp_path)
            streams.append(timeless(events))
        assert streams[0] == streams[1] == streams[2]
        completed = [e for e in streams[0]
                     if e["kind"] == "round_completed"]
        assert [e["round"] for e in completed] == list(range(TOTAL))

    def test_round_seeds_in_events_match_derivation(self):
        _, events = hunt(2, 6)
        for event in events:
            if event["kind"] == "round_completed":
                assert event["round_seed"] == \
                    round_seed(SEED, event["round"])

    def test_tracked_runs_agree_on_plan_union(self, tmp_path):
        # Passive tracking (a coverage path without guidance) leaves
        # generation untouched, so the whole stream, plan_novel events
        # included, matches across thread counts, and the union of the
        # novel fingerprints is the campaign's coverage set.
        streams = []
        for threads, per_thread in [(1, 12), (3, 4)]:
            path = str(tmp_path / f"cov{threads}.json")
            result, events = hunt(threads, per_thread,
                                  plan_coverage=path, tmp_path=tmp_path)
            union = sorted({fp for e in events
                            if e["kind"] == "plan_novel"
                            for fp in e["attrs"]["fingerprints"]})
            assert union, "tracking must surface novel plans"
            assert union == sorted(result.plan_coverage.fingerprints())
            streams.append(timeless(events))
        assert streams[0] == streams[1]


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
