"""End-to-end campaign tests: detection, reduction, triage, tables."""

import pytest

from repro.campaigns.campaign import Campaign, CampaignConfig
from repro.core.reports import BugReport, Oracle, TestCase


@pytest.fixture(scope="module")
def sqlite_result():
    # Seeds/sizes chosen to detect several defects quickly (~15s).
    config = CampaignConfig(dialect="sqlite", seed=42, databases=60)
    return Campaign(config).run()


class TestCampaignRun(object):
    def test_detects_injected_defects(self, sqlite_result):
        assert len(sqlite_result.detected_bug_ids) >= 2
        assert all(bug.startswith("sqlite-")
                   for bug in sqlite_result.detected_bug_ids)

    def test_all_reports_attributed_and_reduced(self, sqlite_result):
        for report in sqlite_result.reports:
            assert report.attributed_bugs
            assert report.reduced

    def test_reduced_cases_are_small(self, sqlite_result):
        # Paper §4.3: mean reduced length 3.71, max 8.
        locs = [r.test_case.loc for r in sqlite_result.reports]
        assert locs and sum(locs) / len(locs) <= 10

    def test_reduced_cases_still_manifest(self, sqlite_result):
        from repro.campaigns.replay import DifferentialReplayer

        campaign = Campaign(CampaignConfig(dialect="sqlite", seed=42))
        replayer = DifferentialReplayer("sqlite", campaign.bugs)
        for report in sqlite_result.reports:
            assert replayer.manifests(report.test_case)

    def test_table2_row_counts_match_reports(self, sqlite_result):
        row = sqlite_result.table2_row()
        assert sum(row.values()) == len(sqlite_result.reports)

    def test_table3_counts_true_bugs(self, sqlite_result):
        row = sqlite_result.table3_row()
        assert sum(row.values()) == len(sqlite_result.true_bugs())

    def test_duplicates_marked(self, sqlite_result):
        by_bug = {}
        for report in sqlite_result.reports:
            by_bug.setdefault(report.attributed_bugs[0],
                              []).append(report)
        for reports in by_bug.values():
            if len(reports) > 1:
                assert any(r.triage == "duplicate" for r in reports[1:])

    def test_max_reports_per_bug_respected(self, sqlite_result):
        by_bug = {}
        for report in sqlite_result.reports:
            key = report.attributed_bugs[0]
            by_bug[key] = by_bug.get(key, 0) + 1
        assert all(n <= 2 for n in by_bug.values())


class TestTriage:
    def test_intended_defect_counts_as_intended(self):
        config = CampaignConfig(dialect="postgres", seed=1717,
                                databases=1,
                                bug_ids=["pg-vacuum-int-overflow"])
        campaign = Campaign(config)
        report = BugReport(
            oracle=Oracle.ERROR, dialect="postgres",
            test_case=TestCase(statements=[
                "CREATE TABLE t1(c0 INT)",
                "INSERT INTO t1(c0) VALUES (2147483647)",
                "CREATE INDEX i0 ON t1((1 + t1.c0))",
                "VACUUM FULL"], dialect="postgres"),
            message="integer out of range")
        processed = campaign._process(report)
        assert processed is not None
        assert campaign._triage(processed.attributed_bugs[0], set()) == \
            "intended"

    def test_docs_triage_counts_as_fixed_in_table2(self):
        from repro.campaigns.campaign import CampaignResult
        from repro.core.reports import RunStatistics

        result = CampaignResult(
            config=CampaignConfig(databases=0),
            stats=RunStatistics())
        result.reports.append(BugReport(
            oracle=Oracle.ERROR, dialect="sqlite",
            test_case=TestCase(statements=["VACUUM"]), triage="docs"))
        assert result.table2_row()["fixed"] == 1

    def test_true_bugs_exclude_intended_and_duplicate(self):
        from repro.campaigns.campaign import CampaignResult
        from repro.core.reports import RunStatistics

        result = CampaignResult(config=CampaignConfig(databases=0),
                                stats=RunStatistics())
        for triage in ("fixed", "verified", "docs", "intended",
                       "duplicate"):
            result.reports.append(BugReport(
                oracle=Oracle.CONTAINMENT, dialect="sqlite",
                test_case=TestCase(statements=["SELECT 1"]),
                triage=triage))
        assert len(result.true_bugs()) == 3


class TestPrimaryAttribution:
    def test_oracle_agreement_wins_over_alphabetical(self):
        from repro.campaigns.campaign import primary_attribution

        report = BugReport(
            oracle=Oracle.ERROR, dialect="postgres",
            test_case=TestCase(statements=["SELECT 1"]),
            attributed_bugs=["pg-inherit-groupby",
                             "pg-stats-bitmap-error"])
        # The error-oracle finding is charged to the error defect even
        # though the containment defect sorts first.
        assert primary_attribution(report) == "pg-stats-bitmap-error"

    def test_falls_back_to_first(self):
        from repro.campaigns.campaign import primary_attribution

        report = BugReport(
            oracle=Oracle.CRASH, dialect="postgres",
            test_case=TestCase(statements=["SELECT 1"]),
            attributed_bugs=["pg-stats-bitmap-error"])
        assert primary_attribution(report) == "pg-stats-bitmap-error"

    def test_containment_matches_contains_tag(self):
        from repro.campaigns.campaign import primary_attribution

        report = BugReport(
            oracle=Oracle.CONTAINMENT, dialect="postgres",
            test_case=TestCase(statements=["SELECT 1"]),
            attributed_bugs=["pg-stats-bitmap-error",
                             "pg-inherit-groupby"])
        assert primary_attribution(report) == "pg-inherit-groupby"


class TestConfig:
    def test_runner_inherits_dialect_and_seed(self):
        config = CampaignConfig(dialect="mysql", seed=9)
        assert config.runner.dialect == "mysql"
        assert config.runner.seed == 9

    def test_default_bug_ids_cover_dialect(self):
        campaign = Campaign(CampaignConfig(dialect="mysql"))
        assert all(b.startswith("mysql-") for b in campaign.bugs.enabled)
        assert len(campaign.bugs.enabled) >= 5
