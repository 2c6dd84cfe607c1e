"""Journals written by a hunt with the removed ``--plan-timing`` option.

Such a journal has ``"plan_timing": true`` in its header and a
``plantime`` outcome dict on each round record.  A resume must refuse
it through the ordinary fingerprint check, and ``pqs report`` must read
it as if the ``plantime`` keys were not there.
"""

from __future__ import annotations

import json

from repro.campaigns.journal import line_checksum
from tests.test_cli import run_cli

HUNT = ("hunt", "--dialect", "sqlite", "--databases", "3", "--seed", "1",
        "--no-reduce", "--multiplan")

#: One round's outcome in the format the plan-timing collector wrote.
PLANTIME = {
    "timed": 1,
    "queries": [{"shape": "5f0c2a1b9e3d", "sql": "SELECT c0 FROM t0",
                 "slowdown": 2.0,
                 "plans": [{"fingerprint": "a1", "hints": {}, "rows": 3,
                            "elapsed_us": 20.0},
                           {"fingerprint": "b2",
                            "hints": {"force_full_scan": True},
                            "rows": 3, "elapsed_us": 10.0}]}],
    "regressions": [{"shape": "5f0c2a1b9e3d", "sql": "SELECT c0 FROM t0",
                     "slowdown": 2.0, "baseline_us": 20.0,
                     "best_us": 10.0, "baseline_fingerprint": "a1",
                     "best_fingerprint": "b2",
                     "best_hints": {"force_full_scan": True}}]}


def rewrite(path, edit):
    """Apply *edit* to every journal record and re-stamp its ``crc``."""
    lines = []
    for line in path.read_text().splitlines():
        data = json.loads(line)
        data.pop("crc")
        edit(data)
        data["crc"] = line_checksum(data)
        lines.append(json.dumps(data, sort_keys=True,
                                separators=(",", ":")))
    path.write_text("\n".join(lines) + "\n")


def timed_rounds(data):
    if data["kind"] == "round":
        data["plantime"] = PLANTIME


def timed(data):
    if data["kind"] == "header":
        data["plan_timing"] = True
    timed_rounds(data)


class TestPlanTimingJournals:
    def test_resume_refuses_a_plan_timing_journal(self, tmp_path):
        journal = tmp_path / "hunt.jsonl"
        code, _ = run_cli(*HUNT, "--journal", str(journal))
        assert code == 0
        rewrite(journal, timed)
        code, output = run_cli(*HUNT, "--journal", str(journal),
                               "--resume")
        assert code == 2
        assert "written by a different campaign" in output

    def test_report_ignores_plantime_outcomes(self, tmp_path):
        journal = tmp_path / "hunt.jsonl"
        assert run_cli(*HUNT, "--journal", str(journal))[0] == 0
        report = ("report", str(journal))
        plain = run_cli(*report)
        plain_json = run_cli(*report, "--json")
        rewrite(journal, timed_rounds)
        assert '"plantime"' in journal.read_text()
        assert run_cli(*report) == plain
        assert run_cli(*report, "--json") == plain_json
        assert plain[0] == 0
