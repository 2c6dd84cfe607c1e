"""The triage analytics layer: journal → campaign digest."""

import json
from dataclasses import replace

import pytest

from repro.campaigns.journal import (
    JOURNAL_VERSION,
    CampaignJournal,
    RoundRecord,
    line_checksum,
)
from repro.core.reports import BugReport, Oracle, TestCase
from repro.observe import build_report, campaign_id, render_report
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

        def reduce_fn(report):
            kept = [s for s in report.test_case.statements
                    if not s.startswith("INSERT")]
            return replace(report, test_case=TestCase(statements=kept))

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
