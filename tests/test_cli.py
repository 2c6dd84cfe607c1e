"""CLI smoke tests (argument plumbing, not rendering details)."""

import io
from contextlib import redirect_stdout

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


class TestParser:
    def test_no_command_prints_help(self):
        code, output = run_cli()
        assert code == 2
        assert "hunt" in output

    def test_unknown_dialect_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["hunt", "--dialect", "oracle"])


class TestBugs:
    def test_lists_all(self):
        code, output = run_cli("bugs")
        assert code == 0
        assert "sqlite-partial-index-is-not" in output
        assert "26 defect(s)" in output

    def test_dialect_filter(self):
        code, output = run_cli("bugs", "--dialect", "mysql")
        assert "mysql-double-negation" in output
        assert "sqlite-" not in output


class TestHunt:
    def test_single_bug_hunt(self):
        # Detection odds are per-seed; scan a few so probability shifts
        # in the generators don't make this test flaky.
        for seed in range(6):
            code, output = run_cli(
                "hunt", "--dialect", "sqlite", "--databases", "60",
                "--seed", str(seed),
                "--bugs", "sqlite-partial-index-is-not")
            assert code == 0
            if "detected 1 distinct defect(s)" in output:
                assert "sqlite-partial-index-is-not" in output
                return
        raise AssertionError("no seed in 0..5 detected the defect")

    def test_no_reduce_flag(self):
        code, output = run_cli(
            "hunt", "--dialect", "sqlite", "--databases", "5",
            "--seed", "2", "--no-reduce")
        assert code == 0

    def test_threads_matches_the_inline_round_queue(self, tmp_path):
        import json

        def hunt(journal, *extra):
            code, output = run_cli(
                "hunt", "--dialect", "sqlite", "--multiplan",
                "--seed", "0", "--journal", str(tmp_path / journal),
                *extra)
            assert code == 0
            lines = []
            for line in (tmp_path / journal).read_text().splitlines():
                data = json.loads(line)
                data.pop("seconds", None)
                data.pop("crc", None)
                lines.append(data)
            stdout = [line for line in output.splitlines()
                      if not line.startswith("throughput:")]
            return lines, stdout

        threaded = hunt("a.jsonl", "--threads", "2", "--databases", "8")
        inline = hunt("b.jsonl", "--databases", "16")
        assert threaded == inline

    def test_journal_and_resume(self, tmp_path):
        journal = str(tmp_path / "hunt.jsonl")
        code, first = run_cli(
            "hunt", "--dialect", "sqlite", "--databases", "6",
            "--seed", "2", "--no-reduce", "--journal", journal)
        assert code == 0
        code, second = run_cli(
            "hunt", "--dialect", "sqlite", "--databases", "6",
            "--seed", "2", "--no-reduce", "--journal", journal,
            "--resume")
        assert code == 0
        assert first.splitlines()[0] == second.splitlines()[0], \
            "resume of a finished journal must reproduce its totals"

    def test_resume_without_journal_rejected(self):
        code, output = run_cli("hunt", "--resume")
        assert code == 2
        assert "--journal" in output


class TestHuntTelemetry:
    def test_metrics_json_snapshot(self, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        code, output = run_cli(
            "hunt", "--dialect", "sqlite", "--databases", "8",
            "--seed", "3", "--no-reduce", "--metrics", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        snapshot = payload["snapshot"]
        phases = [k for k in snapshot
                  if k.startswith("pqs_phase_seconds{")]
        # The five round phases plus triage (this hunt has findings).
        assert len(phases) == 6
        assert 'pqs_phase_seconds{phase="reduce"}' in phases
        assert all(snapshot[k]["count"] > 0 for k in phases)
        assert payload["derived"]["queries_per_second"] > 0
        # Stats output grows throughput and phase lines.
        assert "queries/s" in output
        assert "phase " in output

    def test_metrics_prometheus_text(self, tmp_path):
        path = tmp_path / "metrics.prom"
        code, _ = run_cli(
            "hunt", "--dialect", "sqlite", "--databases", "5",
            "--seed", "2", "--no-reduce", "--metrics", str(path))
        assert code == 0
        text = path.read_text()
        assert "# TYPE pqs_rounds_completed_total counter" in text
        assert 'phase="stategen"' in text
        assert "pqs_phase_seconds_bucket{" in text

    def test_trace_jsonl(self, tmp_path):
        import json

        path = tmp_path / "trace.jsonl"
        code, _ = run_cli(
            "hunt", "--dialect", "sqlite", "--databases", "3",
            "--seed", "2", "--no-reduce", "--trace", str(path))
        assert code == 0
        events = [json.loads(line)
                  for line in path.read_text().splitlines()]
        assert events
        assert {"stategen", "synthesize"} \
            <= {e["name"] for e in events}

    def test_progress_writes_to_stderr(self, capsys):
        code, _ = run_cli(
            "hunt", "--dialect", "sqlite", "--databases", "4",
            "--seed", "2", "--no-reduce", "--progress", "0.01")
        assert code == 0
        err = capsys.readouterr().err
        assert "[pqs] round 4/4 (100%)" in err

    def test_progress_counts_live_under_threads(self, capsys):
        code, _ = run_cli(
            "hunt", "--dialect", "sqlite", "--threads", "2",
            "--databases", "10", "--seed", "1", "--no-reduce",
            "--multiplan", "--progress", "0.3")
        assert code == 0
        lines = capsys.readouterr().err.splitlines()
        done = [int(line.split()[2].split("/")[0]) for line in lines
                if line.startswith("[pqs] round ")]
        assert done[-1] == 20
        # Rounds are counted as they finish, not all at once after the
        # hunt: some line shows the hunt part-way through.
        assert any(0 < count < 20 for count in done), done

    def test_parallel_hunt_merges_metrics(self, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        code, _ = run_cli(
            "hunt", "--dialect", "sqlite", "--databases", "4",
            "--seed", "2", "--threads", "2", "--no-reduce",
            "--metrics", str(path))
        assert code == 0
        snapshot = json.loads(path.read_text())["snapshot"]
        assert snapshot["pqs_rounds_completed_total"]["value"] == 8


class TestReplay:
    LISTING1 = (
        "CREATE TABLE t0(c0);\n"
        "CREATE INDEX i0 ON t0(1) WHERE c0 NOT NULL;\n"
        "INSERT INTO t0(c0) VALUES (0), (1), (2), (3), (NULL);\n"
        "SELECT c0 FROM t0 WHERE t0.c0 IS NOT 1;\n")

    def test_manifesting_case(self, tmp_path):
        path = tmp_path / "case.sql"
        path.write_text(self.LISTING1)
        code, output = run_cli("replay", str(path))
        assert code == 1
        assert "sqlite-partial-index-is-not" in output

    def test_clean_case(self, tmp_path):
        path = tmp_path / "clean.sql"
        path.write_text("CREATE TABLE t(a);\nSELECT * FROM t;\n")
        code, output = run_cli("replay", str(path))
        assert code == 0
        assert "manifests" in output

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.sql"
        path.write_text("  \n")
        code, _output = run_cli("replay", str(path))
        assert code == 2


class TestSQLiteCommand:
    def test_clean_run_exits_zero(self):
        code, output = run_cli("sqlite", "--databases", "3",
                               "--seed", "5")
        assert code == 0
        assert "no findings" in output


class TestHuntObservability:
    def test_serve_announces_on_stderr_and_runs_clean(self, capsys,
                                                      tmp_path):
        code, _ = run_cli(
            "hunt", "--dialect", "sqlite", "--databases", "3",
            "--seed", "2", "--no-reduce", "--serve", "0")
        assert code == 0
        err = capsys.readouterr().err
        assert "status server listening on http://127.0.0.1:" in err

    def test_serve_bad_address_fails_fast(self):
        from repro.errors import PQSError

        with pytest.raises(PQSError):
            run_cli("hunt", "--dialect", "sqlite", "--databases", "2",
                    "--seed", "2", "--no-reduce", "--serve", "nope")


class TestReport:
    def hunt_with_journal(self, tmp_path, **_):
        journal = tmp_path / "j.jsonl"
        code, _ = run_cli(
            "hunt", "--dialect", "sqlite", "--databases", "6",
            "--seed", "3", "--no-reduce", "--journal", str(journal),
            "--metrics", str(tmp_path / "metrics.json"))
        assert code == 0
        return journal

    def test_report_renders_digest(self, tmp_path):
        journal = self.hunt_with_journal(tmp_path)
        code, output = run_cli(
            "report", str(journal),
            "--metrics", str(tmp_path / "metrics.json"))
        assert code == 0
        assert "campaign sqlite-s3" in output
        assert "rounds: 6/6 completed" in output
        assert "distinct bugs:" in output
        assert "phase" in output, "metrics fold into the phase table"

    def test_report_json_mode(self, tmp_path):
        import json

        journal = self.hunt_with_journal(tmp_path)
        code, output = run_cli("report", str(journal), "--json")
        assert code == 0
        report = json.loads(output)
        assert report["campaign"] == "sqlite-s3"
        assert report["rounds"]["completed"] == 6

    def test_report_reduce_gives_every_finding_its_own_budget(self,
                                                              tmp_path):
        # 80 sightings of one padded partial-index finding, each of which
        # takes ~27 replays to reduce: one shared 2000-replay budget runs
        # out part-way and leaves the later sightings unreduced (a second
        # "bug" with the raw statements).
        import json

        from repro.campaigns.journal import (
            JOURNAL_VERSION,
            CampaignJournal,
            RoundRecord,
        )
        from repro.core.reports import BugReport, Oracle, TestCase

        padding = [f"CREATE TABLE p{i}(c0)" for i in range(24)]
        statements = padding[:12] + [
            "CREATE TABLE t0(c0)",
            "CREATE INDEX i0 ON t0(1) WHERE c0 NOT NULL",
        ] + padding[12:] + [
            "INSERT INTO t0(c0) VALUES (0), (1), (2), (3), (NULL)",
            "SELECT c0 FROM t0 WHERE t0.c0 IS NOT 1",
        ]
        unreproducible = ["CREATE TABLE t0(c0)", "SELECT c0 FROM t0"]
        journal = tmp_path / "j.jsonl"
        with CampaignJournal(str(journal)) as writer:
            writer.start({"version": JOURNAL_VERSION, "dialect": "sqlite",
                          "seed": 0, "databases": 81, "bug_ids": []},
                         fresh=True)
            cases = [statements] * 80 + [unreproducible]
            for index, case in enumerate(cases):
                finding = BugReport(oracle=Oracle.CONTAINMENT,
                                    dialect="sqlite",
                                    test_case=TestCase(statements=case))
                writer.append_round(RoundRecord(index=index, seed=index,
                                                reports=[finding]))
        code, output = run_cli("report", str(journal), "--reduce",
                               "--json")
        assert code == 0
        report = json.loads(output)
        assert [(bug["loc"], bug["sightings"]) for bug in report["bugs"]] \
            == [(4, 80), (2, 1)]
        assert report["reduction"] == {"reduced": 80, "unreduced": 1}

    def test_report_reduce_triages_each_distinct_finding_once(
            self, tmp_path, monkeypatch):
        # Three sightings that differ only in seed and message, which
        # triage never reads, share one triage; a fourth finding with
        # other statements gets its own.
        import json

        from repro.campaigns import triage
        from repro.campaigns.journal import (
            JOURNAL_VERSION,
            CampaignJournal,
            RoundRecord,
        )
        from repro.core.reports import BugReport, Oracle, TestCase

        calls = []
        plain = triage.triage_finding

        def counted(dialect, bug_ids, reduce, report):
            calls.append(list(report.test_case.statements))
            return plain(dialect, bug_ids, reduce, report)

        monkeypatch.setattr(triage, "triage_finding", counted)
        case = ["CREATE TABLE t0(c0)", "SELECT c0 FROM t0"]
        other = ["CREATE TABLE t1(c0)", "SELECT c0 FROM t1"]
        journal = tmp_path / "j.jsonl"
        with CampaignJournal(str(journal)) as writer:
            writer.start({"version": JOURNAL_VERSION, "dialect": "sqlite",
                          "seed": 0, "databases": 4, "bug_ids": []},
                         fresh=True)
            for index, statements in enumerate([case, case, case, other]):
                finding = BugReport(oracle=Oracle.CONTAINMENT,
                                    dialect="sqlite", seed=index,
                                    message=f"sighting {index}",
                                    test_case=TestCase(
                                        statements=statements))
                writer.append_round(RoundRecord(index=index, seed=index,
                                                reports=[finding]))
        code, output = run_cli("report", str(journal), "--reduce",
                               "--json")
        assert code == 0
        assert calls == [case, other]
        report = json.loads(output)
        assert report["reduction"] == {"reduced": 0, "unreduced": 4}
        assert [bug["sightings"] for bug in report["bugs"]] == [3, 1]

    def test_report_reduce_reduces_multiplan_findings(self, tmp_path):
        # A multi-plan finding reproduces only under its forcing hints,
        # which buggy-vs-clean replay cannot see; --reduce triages it
        # the way the campaign does.
        import json

        journal = tmp_path / "m.jsonl"
        code, _ = run_cli(
            "hunt", "--dialect", "sqlite", "--multiplan", "--no-reduce",
            "--journal", str(journal), "--databases", "8", "--seed", "0")
        assert code == 0
        code, output = run_cli("report", str(journal), "--reduce",
                               "--json")
        assert code == 0
        report = json.loads(output)
        assert report["by_oracle"].get("multiplan")
        assert report["reduction"]["unreduced"] == 0
        assert report["reduction"]["reduced"] == \
            report["totals"]["raw_findings"]

    def test_report_missing_journal_errors(self, tmp_path):
        code, output = run_cli("report", str(tmp_path / "nope.jsonl"))
        assert code == 2
        assert "error:" in output
