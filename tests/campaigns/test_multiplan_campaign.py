"""Campaign-level multiplan wiring: journaling, byte-identity when off,
resume, reduction under forcing hints, and ``pqs report`` grouping."""

from __future__ import annotations

import pytest

from repro.campaigns.campaign import Campaign, CampaignConfig
from repro.core.reports import Oracle
from repro.core.runner import RunnerConfig
from repro.errors import PQSError
from repro.multiplan import MultiPlanReplayer, PlannerHints
from repro.observe.report import build_report

BUG = "sqlite-forced-index-fencepost"

#: Seed whose *journaled* round stream (``round_seed`` derivation)
#: trips the fencepost defect; the unjournaled tests use seed 0.
JOURNAL_SEED = 1


def config(multiplan=False, **kw):
    kw.setdefault("seed", 0)
    kw.setdefault("databases", 3)
    kw.setdefault("reduce", False)
    return CampaignConfig(runner=RunnerConfig(multiplan=multiplan), **kw)


def normalized(path):
    """Journal records minus the wall-clock ``seconds`` field (and the
    per-line ``crc`` that covers it) — everything that is allowed to
    differ between two otherwise identical runs."""
    import json

    records = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        record.pop("seconds", None)
        record.pop("crc", None)
        records.append(record)
    return records


class TestDetection:
    def test_campaign_detects_the_planner_defect(self):
        result = Campaign(config(multiplan=True, bug_ids=[BUG])).run()
        assert any(BUG in r.attributed_bugs for r in result.reports)
        report = next(r for r in result.reports
                      if r.oracle is Oracle.MULTIPLAN)
        assert report.plan_results
        assert any(entry["deviant"] for entry in report.plan_results)
        assert result.stats.multiplan_divergences > 0
        assert result.stats.multiplan_queries > 0

    def test_containment_only_campaign_is_blind(self):
        result = Campaign(config(bug_ids=[BUG])).run()
        assert result.reports == []
        assert result.stats.multiplan_queries == 0


class TestOffIsFree:
    def test_journal_identical_with_feature_off(self, tmp_path):
        """A multiplan-off journal must be indistinguishable from one
        cut by a build without the subsystem: no new keys, same
        fingerprint, same statement stream.  Only wall-clock timing
        (``seconds`` and the line crc covering it) may differ between
        runs."""
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        Campaign(config(journal=str(a))).run()
        Campaign(config(journal=str(b), multiplan=False)).run()
        assert normalized(a) == normalized(b)
        assert "multiplan" not in a.read_text()

    def test_stream_identical_with_feature_on(self, tmp_path):
        """Turning the oracle on adds journal keys but must not change
        the tested statement stream (clean engine: no reports)."""
        off = Campaign(config(bug_ids=[])).run()
        on = Campaign(config(bug_ids=[], multiplan=True)).run()
        assert on.stats.statements == off.stats.statements
        assert on.stats.queries == off.stats.queries

    def test_multiplan_journal_rejects_plain_resume(self, tmp_path):
        journal = tmp_path / "hunt.jsonl"
        Campaign(config(multiplan=True, journal=str(journal))).run()
        with pytest.raises(PQSError):
            Campaign(config(journal=str(journal), resume=True)).run()


class TestJournalAndResume:
    def test_round_records_carry_multiplan_outcomes(self, tmp_path):
        journal = tmp_path / "hunt.jsonl"
        Campaign(config(multiplan=True, bug_ids=[BUG],
                        journal=str(journal))).run()
        import json

        records = [json.loads(line)
                   for line in journal.read_text().splitlines()]
        rounds = [r for r in records if r.get("kind") == "round"]
        outcomes = [r["multiplan"] for r in rounds if "multiplan" in r]
        assert outcomes, "no round journaled a multiplan outcome"
        assert all({"queries", "divergences", "forced_failures",
                    "plans"} <= set(o) for o in outcomes)

    def test_resume_reproduces_multiplan_stats(self, tmp_path):
        journal = tmp_path / "hunt.jsonl"
        full = Campaign(config(seed=JOURNAL_SEED, databases=4,
                               multiplan=True, bug_ids=[BUG],
                               journal=str(journal))).run()
        assert full.stats.multiplan_divergences > 0
        reference = normalized(journal)
        # Simulate an interrupt after round 1: keep header + 2 records.
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:3]) + "\n")
        resumed = Campaign(config(seed=JOURNAL_SEED, databases=4,
                                  multiplan=True, bug_ids=[BUG],
                                  journal=str(journal),
                                  resume=True)).run()
        assert resumed.stats.multiplan_queries == \
            full.stats.multiplan_queries
        assert resumed.stats.multiplan_divergences == \
            full.stats.multiplan_divergences
        # Re-run rounds reproduce the original records bit-for-bit
        # modulo wall-clock timing.
        assert normalized(journal) == reference

    def test_parallel_campaign_counts_multiplan(self):
        result = Campaign(config(threads=2, databases=4,
                                 bug_ids=[BUG], multiplan=True)).run()
        assert result.stats.multiplan_queries > 0


class TestReductionPreservesForcing:
    def test_reduced_case_still_diverges_under_the_same_hints(self):
        result = Campaign(config(multiplan=True, bug_ids=[BUG],
                                 reduce=True)).run()
        report = next(r for r in result.reports
                      if r.oracle is Oracle.MULTIPLAN)
        assert BUG in report.attributed_bugs
        hints_list = [PlannerHints.from_dict(entry.get("hints", {}))
                      for entry in report.plan_results]
        replayer = MultiPlanReplayer(
            "sqlite", Campaign(config(bug_ids=[BUG])).bugs)
        assert replayer.diverges(report.test_case, hints_list)
        # The minimized case kept only what the divergence needs: the
        # indexed table and enough rows for the fencepost to show.
        assert report.test_case.loc < 40


class TestReportGrouping:
    def test_report_groups_by_diverging_plan_pair(self, tmp_path):
        journal = tmp_path / "hunt.jsonl"
        Campaign(config(seed=JOURNAL_SEED, multiplan=True,
                        bug_ids=[BUG], journal=str(journal))).run()
        digest = build_report(str(journal))
        section = digest["multiplan"]
        assert section["findings"] > 0
        assert section["by_plan_pair"]
        for pair, count in section["by_plan_pair"].items():
            assert "<->" in pair and count > 0
        # Plans-per-query distribution: keys are plan counts.
        assert section["plans_per_query"]
        assert all(int(k) >= 0 for k in section["plans_per_query"])

    def test_report_renders_the_section(self, tmp_path):
        from repro.observe.report import render_report

        journal = tmp_path / "hunt.jsonl"
        Campaign(config(seed=JOURNAL_SEED, multiplan=True,
                        bug_ids=[BUG], journal=str(journal))).run()
        text = render_report(build_report(str(journal)))
        assert "multiplan findings:" in text
        assert "plans per query:" in text

    def test_plain_journal_has_no_multiplan_section(self, tmp_path):
        journal = tmp_path / "hunt.jsonl"
        Campaign(config(journal=str(journal))).run()
        assert "multiplan" not in build_report(str(journal))
