"""Round-loop determinism: a campaign's journal does not depend on
``threads``.

Every round runs in index order in one loop under a campaign-global
seed, so apart from the wall-clock ``seconds`` (and the ``crc`` over
it) a campaign journals the same lines whatever the thread count:
``threads=2`` writes exactly what one journaled round stream of the
same rounds writes.  Trace spans join the journal on the round index
and seed.
"""

import json

from repro.campaigns.campaign import Campaign, CampaignConfig
from repro.campaigns.journal import round_seed
from repro.telemetry import ListSink, MetricsRegistry, Telemetry
from repro.telemetry.tracer import Tracer

SEED = 5
TOTAL = 12


def hunt(tmp_path, threads, **overrides):
    """Run the campaign with its own journal; (result, journal lines
    minus ``seconds``/``crc``)."""
    journal = tmp_path / f"threads{threads}.jsonl"
    result = Campaign(CampaignConfig(
        dialect="sqlite", seed=SEED, threads=threads, databases=TOTAL,
        reduce=False, journal=str(journal), **overrides)).run()
    lines = []
    for line in journal.read_text().splitlines():
        data = json.loads(line)
        data.pop("seconds", None)
        data.pop("crc", None)
        lines.append(data)
    return result, lines


def rounds(lines):
    return [line for line in lines if line["kind"] == "round"]


class TestJournalDeterminism:
    def test_journal_identical_across_thread_counts(self, tmp_path):
        journals = [hunt(tmp_path, threads)[1] for threads in (1, 2, 3)]
        assert journals[0] == journals[1] == journals[2]
        assert [line["index"] for line in rounds(journals[0])] == \
            list(range(TOTAL))

    def test_round_seeds_in_journal_match_derivation(self, tmp_path):
        journaled = rounds(hunt(tmp_path, 2)[1])
        assert journaled
        for line in journaled:
            assert line["seed"] == round_seed(SEED, line["index"])

    def test_tracked_runs_agree_on_plan_union(self, tmp_path):
        # Passive tracking (a coverage path without guidance) leaves
        # generation untouched, so the journals, per-round plans
        # included, match across thread counts, and the union of the
        # journaled plans is the campaign's coverage set.
        journals = []
        for threads in (1, 2, 3):
            result, lines = hunt(
                tmp_path, threads,
                plan_coverage=str(tmp_path / f"cov{threads}.json"))
            union = sorted({fingerprint for line in rounds(lines)
                            for fingerprint, _ in line.get("plans", ())})
            assert union, "tracking must journal novel plans"
            assert union == sorted(result.plan_coverage.fingerprints())
            journals.append(lines)
        assert journals[0] == journals[1] == journals[2]


class TestSpanJournalJoin:
    def test_spans_carry_round_and_round_seed(self, tmp_path):
        # The tracer context wraps run_round, so every span inside a
        # round carries the journal line's index and seed.
        sink = ListSink()
        telemetry = Telemetry(registry=MetricsRegistry(),
                              tracer=Tracer(sink))
        _, lines = hunt(tmp_path, 2, telemetry=telemetry)
        in_round = [event for event in sink.events
                    if "round" in event.get("attrs", {})]
        assert in_round, "round phases must emit spans"
        for span in in_round:
            attrs = span["attrs"]
            assert attrs["round_seed"] == round_seed(SEED, attrs["round"])
        assert {span["attrs"]["round"] for span in in_round} == \
            set(range(TOTAL))
        seeds = {line["index"]: line["seed"] for line in rounds(lines)}
        assert all(span["attrs"]["round_seed"] ==
                   seeds[span["attrs"]["round"]] for span in in_round)
