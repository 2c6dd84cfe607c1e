"""Multi-stream campaign tests (paper §3.4: thread per database).

``threads > 1`` runs the round loop: every round derives a
campaign-global seed, so these tests assert that the thread count
changes nothing — totals, merged triage, and journal recovery.
"""

from repro.campaigns.campaign import Campaign, CampaignConfig
from repro.campaigns.executor import RoundExecutor
from repro.campaigns.journal import round_seed
from repro.campaigns.replay import DifferentialReplayer
from repro.core.reports import Oracle


class TestParallelCampaign:
    def test_merges_thread_results(self):
        config = CampaignConfig(dialect="sqlite", seed=42, threads=3,
                                databases=75)
        result = Campaign(config).run()
        assert result.stats.databases == 75
        assert result.detected_bug_ids, "threads found nothing"
        for report in result.reports:
            assert report.attributed_bugs

    def test_max_reports_per_bug_global(self):
        config = CampaignConfig(dialect="sqlite", seed=42, threads=3,
                                databases=75, max_reports_per_bug=1)
        result = Campaign(config).run()
        primaries = [r.attributed_bugs[0] for r in result.reports]
        assert len(primaries) == len(set(primaries))

    def test_duplicate_triage_across_threads(self):
        config = CampaignConfig(dialect="sqlite", seed=42, threads=3,
                                databases=75)
        result = Campaign(config).run()
        by_bug = {}
        for report in result.reports:
            by_bug.setdefault(report.attributed_bugs[0],
                              []).append(report)
        for reports in by_bug.values():
            assert all(r.triage == "duplicate" for r in reports[1:])

    def test_rounds_use_campaign_global_seeds(self):
        config = CampaignConfig(dialect="sqlite", seed=0, threads=2,
                                databases=6, reduce=False)
        result = Campaign(config).run()
        assert result.stats.statements > 0
        assert result.stats.queries > 0
        # Every report's seed must be one of the campaign's round
        # seeds, never a per-worker derived stream.
        expected = {round_seed(0, i) for i in range(6)}
        for report in result.stats.reports:
            assert report.seed in expected

    def test_thread_count_does_not_change_results(self, tmp_path):
        def run(threads, journal=None):
            config = CampaignConfig(
                dialect="sqlite", seed=13, threads=threads,
                databases=12, reduce=False, journal=journal)
            return Campaign(config).run()

        a = run(2)
        b = run(3)
        # One thread needs the round queue (a journal) to run the same
        # campaign-global round seeds; that is the inline executor.
        c = run(1, journal=str(tmp_path / "inline.jsonl"))
        for other in (b, c):
            assert a.stats.statements == other.stats.statements
            assert a.stats.queries == other.stats.queries
            assert [r.seed for r in a.reports] == \
                [r.seed for r in other.reports], \
                "round seeds are campaign-global, so the same 12 " \
                "rounds must produce the same findings under any " \
                "thread count"

    def test_unattributed_findings_are_kept(self, monkeypatch):
        # A finding no single-defect engine reproduces is a tool bug;
        # the campaign must surface it, not drop it.
        monkeypatch.setattr(DifferentialReplayer, "manifests",
                            lambda self, test_case: False)
        config = CampaignConfig(dialect="sqlite", seed=42, threads=2,
                                databases=20, reduce=False)
        result = Campaign(config).run()
        raw = [r for r in result.stats.reports
               if r.oracle in (Oracle.CONTAINMENT, Oracle.ERROR)]
        assert raw, "the hunt must find something to drop"
        assert result.reports == []
        assert result.unattributed == result.stats.reports


class TestParallelJournal:
    def test_single_shared_journal_written(self, tmp_path):
        path = tmp_path / "hunt.jsonl"
        config = CampaignConfig(dialect="sqlite", seed=9, threads=2,
                                databases=8, reduce=False,
                                journal=str(path))
        Campaign(config).run()
        assert path.exists()
        import json

        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert lines[0]["kind"] == "header"
        indexes = sorted(line["index"] for line in lines[1:])
        assert indexes == list(range(8))

    def test_parallel_resume_matches_uninterrupted(self, tmp_path):
        def run(journal, resume=False, threads=2):
            config = CampaignConfig(
                dialect="sqlite", seed=9, threads=threads,
                databases=12, reduce=False,
                journal=str(journal), resume=resume)
            return Campaign(config).run()

        full = run(tmp_path / "full.jsonl")
        # Interrupt: keep the header plus the first 5 journaled rounds.
        run(tmp_path / "cut.jsonl")
        cut = tmp_path / "cut.jsonl"
        cut.write_text("\n".join(
            cut.read_text().splitlines()[:6]) + "\n")
        # Resume under a different thread count: rounds are
        # campaign-global, so the shard shape must not matter.
        resumed = run(cut, resume=True, threads=3)
        assert resumed.stats.databases == full.stats.databases
        assert resumed.stats.statements == full.stats.statements
        assert len(resumed.reports) == len(full.reports)

    def test_resume_runs_only_missing_rounds(self, tmp_path):
        path = tmp_path / "hunt.jsonl"

        def run(resume=False):
            config = CampaignConfig(
                dialect="sqlite", seed=9, threads=2,
                databases=6, reduce=False,
                journal=str(path), resume=resume)
            return Campaign(config).run()

        run()
        executed = []
        original = RoundExecutor.run_round

        def spy(self, index):
            executed.append(index)
            return original(self, index)

        RoundExecutor.run_round = spy
        try:
            result = run(resume=True)
        finally:
            RoundExecutor.run_round = original
        assert executed == [], "complete journal must re-run nothing"
        assert result.stats.databases == 6
