"""Damaged-journal recovery: a resumed campaign equals an undisturbed one.

A journal is input from outside the program: a disk error or a stray
write can flip a byte of a finished journal.  The checksum catches the
damaged line, the resume skips and counts it, re-runs only the round it
held, and the campaign's statistics come out identical to a run that
was never disturbed.
"""

import dataclasses

from repro.campaigns.campaign import Campaign, CampaignConfig
from repro.telemetry import MetricsRegistry, NullTracer, Telemetry
from repro.telemetry import names as metric_names

BASE = dict(dialect="sqlite", seed=5, threads=3, databases=12,
            reduce=False)


def run(journal=None, resume=False, **overrides):
    config = dict(BASE, journal=journal, resume=resume)
    config.update(overrides)
    return Campaign(CampaignConfig(**config)).run()


def comparable(stats):
    """Everything but wall clock must be reproducible."""
    data = dataclasses.asdict(stats)
    data.pop("seconds")
    for report in data["reports"]:
        report.pop("seconds", None)
    return data


def flip_byte(path, line_number):
    """Overwrite one byte in the middle of line *line_number* (0 is the
    header) so the line fails its checksum."""
    data = bytearray(path.read_bytes())
    lines = bytes(data).split(b"\n")
    offset = sum(len(line) + 1 for line in lines[:line_number]) \
        + len(lines[line_number]) // 2
    data[offset] = ord("#") if data[offset] != ord("#") else ord("@")
    path.write_bytes(bytes(data))


class TestCorruptionRecovery:
    def test_corrupted_journal_resumes_to_identical_results(
            self, tmp_path):
        journal = tmp_path / "c.jsonl"
        undisturbed = run()
        run(journal=str(journal))
        flip_byte(journal, 5)
        telemetry = Telemetry(registry=MetricsRegistry(),
                              tracer=NullTracer())
        # Resume from the damaged journal: the corrupt line is skipped
        # and counted, only its round re-runs, results identical.
        resumed = run(journal=str(journal), resume=True,
                      telemetry=telemetry)
        assert resumed.recovery.corrupt_lines == 1
        assert telemetry.registry.value(
            metric_names.JOURNAL_CORRUPT_LINES) == 1
        assert telemetry.registry.value(
            metric_names.JOURNAL_RECOVERED_ROUNDS) == BASE["databases"] - 1
        assert comparable(resumed.stats) == \
            comparable(undisturbed.stats)
        assert [r.seed for r in resumed.reports] == \
            [r.seed for r in undisturbed.reports]
