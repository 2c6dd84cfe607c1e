"""The triage analytics layer: journal → campaign digest → history."""

import json

import pytest

from repro.campaigns.journal import (
    JOURNAL_VERSION,
    CampaignJournal,
    RoundRecord,
    line_checksum,
)
from repro.core.reports import BugReport, Oracle, TestCase
from repro.observe import (
    append_history,
    build_report,
    campaign_id,
    history_line,
    load_history,
    render_report,
    render_trend,
)
from repro.observe.report import statement_kind


def bug(statements, oracle=Oracle.ERROR, message="boom", seed=1):
    return BugReport(oracle=oracle, dialect="sqlite",
                     test_case=TestCase(statements=list(statements)),
                     message=message, seed=seed)


def write_journal(path, rounds, seed=9, databases=None):
    fingerprint = {"version": JOURNAL_VERSION, "dialect": "sqlite",
                   "seed": seed,
                   "databases": databases if databases is not None
                   else len(rounds),
                   "bug_ids": []}
    with CampaignJournal(str(path)) as journal:
        journal.start(fingerprint, fresh=True)
        for record in rounds:
            journal.append_round(record)
    return str(path)


def append_quarantine_line(path, index, seed):
    """A checksummed ``quarantine`` line, as builds that quarantined
    failing rounds wrote them."""
    data = {"kind": "quarantine", "index": index, "seed": seed,
            "attempts": 3, "error": "HarnessError: harness died"}
    data["crc"] = line_checksum(data)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(data, sort_keys=True) + "\n")


class TestCampaignId:
    def test_campaign_id_format(self):
        assert campaign_id("sqlite", 42) == "sqlite-s42"


class TestStatementKind:
    def test_leading_keyword(self):
        assert statement_kind("  create index i on t(c0)") == "CREATE"
        assert statement_kind("VACUUM") == "VACUUM"
        assert statement_kind("") == "?"


class TestBuildReport:
    def test_digest_from_journal(self, tmp_path):
        rounds = [
            RoundRecord(index=0, seed=11, statements=10, queries=5,
                        pivots=5, seconds=0.5,
                        reports=[bug(["CREATE TABLE t(a)", "VACUUM"])]),
            RoundRecord(index=1, seed=12, statements=8, queries=4,
                        pivots=4, seconds=0.25,
                        reports=[bug(["CREATE TABLE t(a)", "VACUUM"]),
                                 bug(["SELECT 1"],
                                     oracle=Oracle.CONTAINMENT,
                                     message="missing pivot")]),
        ]
        path = write_journal(tmp_path / "j.jsonl", rounds, databases=3)
        report = build_report(path)

        assert report["campaign"] == "sqlite-s9"
        assert report["rounds"] == {
            "configured": 3, "completed": 2,
            "corrupt_journal_lines": 0, "duplicate_journal_rounds": 0}
        assert report["totals"]["statements"] == 18
        assert report["totals"]["raw_findings"] == 3

        # Two identical error findings collapse to one bug.
        assert len(report["bugs"]) == 2
        error_bug = report["bugs"][0]
        assert error_bug["sightings"] == 2
        assert error_bug["rounds"] == [0, 1]
        assert error_bug["first_round"] == 0
        assert error_bug["statement_kind"] == "VACUUM"
        assert report["by_oracle"] == {"contains": 1, "error": 1}
        assert report["by_error_kind"] == {"VACUUM": 1}

    def test_old_quarantine_line_is_skipped(self, tmp_path):
        # A journal from a build that quarantined round 1 still reads:
        # the line is neither a round nor a corrupt line.
        path = write_journal(tmp_path / "j.jsonl",
                             [RoundRecord(index=0, seed=11, statements=10,
                                          reports=[bug(["VACUUM"])])],
                             databases=2)
        append_quarantine_line(path, index=1, seed=12)
        report = build_report(path)
        assert report["rounds"] == {
            "configured": 2, "completed": 1,
            "corrupt_journal_lines": 0, "duplicate_journal_rounds": 0}
        assert report["totals"]["statements"] == 10
        assert len(report["bugs"]) == 1
        assert "rounds: 1/2 completed" in render_report(report)

    def test_reduce_fn_merges_findings(self, tmp_path):
        # Distinct raw statements that reduce to the same core become
        # one fingerprint.
        rounds = [
            RoundRecord(index=0, seed=1,
                        reports=[bug(["CREATE TABLE t(a)", "INSERT x",
                                      "VACUUM"])]),
            RoundRecord(index=1, seed=2,
                        reports=[bug(["CREATE TABLE t(a)", "INSERT y",
                                      "VACUUM"])]),
        ]
        path = write_journal(tmp_path / "j.jsonl", rounds)
        raw = build_report(path)
        assert len(raw["bugs"]) == 2

        def reduce_fn(test_case):
            kept = [s for s in test_case.statements
                    if not s.startswith("INSERT")]
            return TestCase(statements=kept)

        reduced = build_report(path, reduce_fn=reduce_fn)
        assert len(reduced["bugs"]) == 1
        assert reduced["bugs"][0]["sightings"] == 2
        assert reduced["totals"]["raw_findings"] == 2

    def test_coverage_growth_from_plans(self, tmp_path):
        rounds = [RoundRecord(index=i, seed=i,
                              plans=[(f"fp{i % 3}", "SELECT 1")])
                  for i in range(30)]
        path = write_journal(tmp_path / "j.jsonl", rounds)
        growth = build_report(path)["coverage_growth"]
        assert growth[-1] == {"round": 29, "distinct_plans": 3}
        assert len(growth) <= 12
        counts = [g["distinct_plans"] for g in growth]
        assert counts == sorted(counts), "growth is monotone"

    def test_metrics_fold_into_phase_table(self, tmp_path):
        from repro.telemetry import MetricsRegistry, names

        registry = MetricsRegistry()
        registry.histogram(names.PHASE_SECONDS,
                           phase="stategen").observe(0.002)
        registry.histogram(names.PHASE_SECONDS,
                           phase="containment").observe(0.004)
        metrics = tmp_path / "metrics.json"
        metrics.write_text(json.dumps(
            {"snapshot": registry.snapshot(), "derived": {}}))
        path = write_journal(tmp_path / "j.jsonl",
                             [RoundRecord(index=0, seed=1)])
        phases = build_report(path, metrics_path=str(metrics))["phases"]
        assert [row["phase"] for row in phases] == \
            ["stategen", "containment"]
        assert all(row["count"] == 1 for row in phases)

    def test_missing_journal_raises(self, tmp_path):
        from repro.errors import PQSError

        with pytest.raises(PQSError):
            build_report(str(tmp_path / "nope.jsonl"))


class TestRendering:
    def test_render_smoke(self, tmp_path):
        rounds = [RoundRecord(index=0, seed=1, statements=5, queries=2,
                              reports=[bug(["VACUUM"])])]
        path = write_journal(tmp_path / "j.jsonl", rounds, databases=2)
        text = render_report(build_report(path))
        assert "campaign sqlite-s9" in text
        assert "rounds: 1/2 completed" in text
        assert "distinct bugs: 1" in text


class TestHistory:
    def test_append_creates_and_accumulates(self, tmp_path):
        path = write_journal(tmp_path / "j.jsonl",
                             [RoundRecord(index=0, seed=1,
                                          reports=[bug(["VACUUM"])])])
        report = build_report(path)
        history = tmp_path / "results" / "history.jsonl"
        first = append_history(str(history), report)
        append_history(str(history), report)
        lines = [json.loads(line) for line in
                 history.read_text().splitlines()]
        assert len(lines) == 2
        assert lines[0] == first
        assert first["distinct_bugs"] == 1
        assert first["campaign"] == "sqlite-s9"

    def test_history_line_is_flat_summary(self, tmp_path):
        path = write_journal(tmp_path / "j.jsonl",
                             [RoundRecord(index=0, seed=1)])
        line = history_line(build_report(path))
        assert line["rounds_completed"] == 1
        assert line["distinct_bugs"] == 0

    def test_history_line_stamps_throughput(self, tmp_path):
        rounds = [RoundRecord(index=0, seed=1, statements=10, queries=30,
                              seconds=1.5),
                  RoundRecord(index=1, seed=2, statements=10, queries=30,
                              seconds=0.5)]
        line = history_line(
            build_report(write_journal(tmp_path / "j.jsonl", rounds)))
        assert line["seconds"] == 2.0
        assert line["queries_per_second"] == 30.0

    def test_zero_duration_does_not_divide(self, tmp_path):
        path = write_journal(tmp_path / "j.jsonl",
                             [RoundRecord(index=0, seed=1, queries=5,
                                          seconds=0.0)])
        assert history_line(build_report(path))["queries_per_second"] \
            == 0.0


class TestLoadHistory:
    def test_missing_file_is_empty(self, tmp_path):
        assert load_history(str(tmp_path / "nope.jsonl")) == []

    def test_skips_malformed_and_non_dict_lines(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text('{"campaign": "sqlite-s1"}\n'
                        "not json\n"
                        "\n"
                        "[1, 2, 3]\n"
                        '{"campaign": "sqlite-s2"}\n')
        loaded = load_history(str(path))
        assert [l["campaign"] for l in loaded] == \
            ["sqlite-s1", "sqlite-s2"]

    def test_reads_what_append_wrote(self, tmp_path):
        journal = write_journal(tmp_path / "j.jsonl",
                                [RoundRecord(index=0, seed=1)])
        history = tmp_path / "history.jsonl"
        line = append_history(str(history), build_report(journal))
        assert load_history(str(history)) == [line]


class TestRenderTrend:
    def line(self, campaign, bugs, qps=None, rounds=5):
        out = {"campaign": campaign, "rounds_completed": rounds,
               "distinct_bugs": bugs}
        if qps is not None:
            out["queries_per_second"] = qps
        return out

    def test_empty_history_renders_nothing(self):
        assert render_trend([]) == ""

    def test_series_over_campaigns(self):
        text = render_trend([self.line("sqlite-s1", 2, qps=100.0),
                             self.line("sqlite-s2", 3, qps=120.5)])
        assert "history trend (2 of 2 campaign(s)):" in text
        assert "sqlite-s1: 5 rounds, 2 distinct bug(s), 100 q/s" in text
        assert "distinct bugs: 2 -> 3" in text
        assert "queries/s:     100 -> 120.5" in text

    def test_pre_throughput_lines_render_as_unknown(self):
        # History is long memory: lines written before the throughput
        # stamp existed must still render.
        text = render_trend([self.line("sqlite-s1", 1),
                             self.line("sqlite-s2", 1, qps=90.0)])
        assert "queries/s:     ? -> 90" in text
        assert "sqlite-s1: 5 rounds, 1 distinct bug(s), ?" in text

    def test_window_keeps_the_most_recent(self):
        lines = [self.line(f"sqlite-s{i}", i, qps=float(i))
                 for i in range(12)]
        text = render_trend(lines, limit=3)
        assert "history trend (3 of 12 campaign(s)):" in text
        assert "sqlite-s11" in text and "sqlite-s8" not in text
        assert "distinct bugs: 9 -> 10 -> 11" in text
