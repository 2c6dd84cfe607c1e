"""Campaign durability: journal writes, resume, fingerprint guard."""

import json

import pytest

from repro.campaigns.campaign import Campaign, CampaignConfig
from repro.campaigns.journal import (
    JOURNAL_VERSION,
    CampaignJournal,
    RoundRecord,
    line_checksum,
    round_seed,
)
from repro.core.reports import BugReport, Oracle, TestCase
from repro.errors import PQSError
from repro.values import Value


def fingerprint(result):
    return [(r.oracle.value, tuple(r.test_case.statements), r.triage,
             tuple(r.attributed_bugs)) for r in result.reports]


def config(path=None, resume=False, seed=7, databases=14):
    return CampaignConfig(dialect="sqlite", seed=seed,
                          databases=databases,
                          journal=str(path) if path else None,
                          resume=resume)


class TestRoundSeed:
    def test_deterministic(self):
        assert round_seed(7, 3) == round_seed(7, 3)

    def test_varies_by_index_and_seed(self):
        seeds = {round_seed(7, i) for i in range(100)}
        assert len(seeds) == 100
        assert round_seed(7, 0) != round_seed(8, 0)


class TestSerialization:
    def test_report_roundtrip_with_values(self):
        report = BugReport(
            oracle=Oracle.CONTAINMENT, dialect="sqlite",
            test_case=TestCase(
                statements=["CREATE TABLE t(a)", "SELECT * FROM t"],
                expected_row=[Value.integer(1), Value.real(2.5),
                              Value.text("x"), Value.blob(b"\x00\xff"),
                              Value.null()],
                dialect="sqlite"),
            message="pivot row not contained", seed=3)
        clone = BugReport.from_json(
            json.loads(json.dumps(report.to_json())))
        assert clone.oracle is Oracle.CONTAINMENT
        assert clone.test_case.statements == report.test_case.statements
        assert clone.test_case.expected_row == report.test_case.expected_row
        assert clone.message == report.message
        assert clone.seed == report.seed

    def test_round_record_roundtrip(self):
        record = RoundRecord(index=4, seed=99, statements=20, queries=10,
                             pivots=2, expected_errors=1, timeouts=3)
        clone = RoundRecord.from_json(
            json.loads(json.dumps(record.to_json())))
        assert clone == record


class TestJournaledCampaign:
    def test_journal_written_per_round(self, tmp_path):
        path = tmp_path / "hunt.jsonl"
        result = Campaign(config(path, databases=6)).run()
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "header"
        assert header["dialect"] == "sqlite"
        rounds = [json.loads(line) for line in lines[1:]]
        assert [r["index"] for r in rounds] == list(range(6))
        assert sum(r["statements"] for r in rounds) == \
            result.stats.statements

    def test_resume_reproduces_uninterrupted_totals(self, tmp_path):
        full = tmp_path / "full.jsonl"
        uninterrupted = Campaign(config(full)).run()

        # Interrupt: keep the header plus the first 5 rounds, with a
        # torn (half-written) line the kill left behind.
        partial = tmp_path / "partial.jsonl"
        lines = full.read_text().splitlines()
        partial.write_text("\n".join(lines[:6]) +
                           '\n{"kind": "round", "ind')
        resumed = Campaign(config(partial, resume=True)).run()

        assert resumed.stats.databases == uninterrupted.stats.databases
        assert resumed.stats.statements == uninterrupted.stats.statements
        assert resumed.stats.queries == uninterrupted.stats.queries
        assert fingerprint(resumed) == fingerprint(uninterrupted)

    def test_resume_skips_completed_rounds(self, tmp_path):
        path = tmp_path / "hunt.jsonl"
        Campaign(config(path, databases=5)).run()

        executed = []
        from repro.core import runner as runner_mod

        original = runner_mod.PQSRunner.run_database_round

        def spy(self):
            executed.append(1)
            return original(self)

        runner_mod.PQSRunner.run_database_round = spy
        try:
            Campaign(config(path, resume=True, databases=5)).run()
        finally:
            runner_mod.PQSRunner.run_database_round = original
        assert executed == [], "complete journal must re-run nothing"

    def test_resume_reruns_old_quarantined_round(self, tmp_path):
        # A journal from a build that quarantined round 2: the resume
        # runs that round and ends where an uninterrupted hunt ends.
        full = tmp_path / "full.jsonl"
        uninterrupted = Campaign(config(full, databases=5)).run()
        old = tmp_path / "old.jsonl"
        lines = full.read_text().splitlines()
        old.write_text("\n".join(lines[:3] + lines[4:]) + "\n")
        _append_quarantine_line(old, index=2, seed=7)
        resumed = Campaign(config(old, resume=True, databases=5)).run()
        assert resumed.recovery.clean
        assert resumed.stats.statements == uninterrupted.stats.statements
        assert fingerprint(resumed) == fingerprint(uninterrupted)
        rounds = [json.loads(line) for line in
                  old.read_text().splitlines()[1:]]
        assert [r["index"] for r in rounds
                if r["kind"] == "round"] == [0, 1, 3, 4, 2]

    def test_mismatched_fingerprint_rejected(self, tmp_path):
        path = tmp_path / "hunt.jsonl"
        Campaign(config(path, databases=4)).run()
        with pytest.raises(PQSError):
            Campaign(config(path, resume=True, seed=8,
                            databases=4)).run()

    def test_without_resume_starts_over(self, tmp_path):
        import json

        def deterministic_lines(text):
            # Everything but the measured per-round wall clock must be
            # reproducible run-to-run.
            out = []
            for line in text.splitlines():
                data = json.loads(line)
                data.pop("seconds", None)
                # The checksum covers "seconds", so it varies with it.
                data.pop("crc", None)
                out.append(data)
            return out

        path = tmp_path / "hunt.jsonl"
        Campaign(config(path, databases=4)).run()
        first = path.read_text()
        Campaign(config(path, databases=4)).run()
        assert deterministic_lines(path.read_text()) \
            == deterministic_lines(first), \
            "a fresh run overwrites rather than appends"

    def test_journaled_matches_rerun_of_itself(self, tmp_path):
        a = Campaign(config(tmp_path / "a.jsonl")).run()
        b = Campaign(config(tmp_path / "b.jsonl")).run()
        assert fingerprint(a) == fingerprint(b)
        assert a.stats.statements == b.stats.statements


class TestJournalFile:
    def test_load_missing_file_is_empty(self, tmp_path):
        journal = CampaignJournal(str(tmp_path / "nope.jsonl"))
        assert journal.load({"any": "thing"}) == {}

    def test_load_rejects_headerless_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "round", "index": 0, "seed": 1}\n')
        with pytest.raises(PQSError):
            CampaignJournal(str(path)).load({})


def _write_journal(path, fingerprint, records):
    with CampaignJournal(str(path)) as journal:
        journal.start(fingerprint, fresh=True)
        for record in records:
            journal.append_round(record)


def _append_quarantine_line(path, index, seed=1):
    """Append a checksummed ``quarantine`` record, as builds that
    retried and quarantined failing rounds wrote them."""
    data = {"kind": "quarantine", "index": index,
            "seed": round_seed(seed, index), "attempts": 3,
            "error": "HarnessError: boom"}
    data["crc"] = line_checksum(data)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(data, sort_keys=True,
                                separators=(",", ":")) + "\n")


def _records(n):
    return [RoundRecord(index=i, seed=round_seed(1, i), statements=5)
            for i in range(n)]


class TestJournalV2:
    FP = {"version": JOURNAL_VERSION, "seed": 1}

    def test_every_line_checksummed(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write_journal(path, self.FP, _records(3))
        for line in path.read_text().splitlines():
            data = json.loads(line)
            assert data["crc"] == line_checksum(data)

    def test_corrupt_midfile_line_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write_journal(path, self.FP, _records(5))
        lines = path.read_text().splitlines()
        # Flip a byte in round 2's line: checksum mismatch.
        lines[3] = lines[3].replace('"statements":5',
                                    '"statements":9')
        path.write_text("\n".join(lines) + "\n")
        state = CampaignJournal(str(path)).load_state(self.FP)
        assert sorted(state.rounds) == [0, 1, 3, 4], \
            "a corrupt line must not hide the valid lines after it"
        assert state.recovery.corrupt_lines == 1
        assert not state.recovery.clean

    def test_unparseable_midfile_line_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write_journal(path, self.FP, _records(4))
        lines = path.read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]  # torn mid-file line
        path.write_text("\n".join(lines) + "\n")
        state = CampaignJournal(str(path)).load_state(self.FP)
        assert sorted(state.rounds) == [0, 2, 3]
        assert state.recovery.corrupt_lines == 1

    def test_duplicate_rounds_first_occurrence_wins(self, tmp_path):
        path = tmp_path / "j.jsonl"
        first = RoundRecord(index=1, seed=round_seed(1, 1), statements=5)
        late = RoundRecord(index=1, seed=round_seed(1, 1), statements=8)
        _write_journal(path, self.FP,
                       [_records(1)[0], first, late])
        state = CampaignJournal(str(path)).load_state(self.FP)
        assert state.rounds[1].statements == 5
        assert state.recovery.duplicate_rounds == 1

    def test_old_quarantine_line_skipped_not_corrupt(self, tmp_path):
        # Older builds journaled a retired round as a ``quarantine``
        # line.  It still loads: the line is skipped, not counted as
        # corrupt, and its round is simply missing.
        path = tmp_path / "j.jsonl"
        _write_journal(path, self.FP, _records(2))
        _append_quarantine_line(path, index=2)
        state = CampaignJournal(str(path)).load_state(self.FP)
        assert sorted(state.rounds) == [0, 1]
        assert state.recovery.clean

    def test_v1_journal_still_loads(self, tmp_path):
        # A pre-checksum journal: version-1 header, no crc anywhere.
        path = tmp_path / "old.jsonl"
        v1_header = {"kind": "header", "version": 1, "seed": 1}
        record = RoundRecord(index=0, seed=round_seed(1, 0),
                             statements=4)
        path.write_text(json.dumps(v1_header) + "\n" +
                        json.dumps(record.to_json()) + "\n")
        state = CampaignJournal(str(path)).load_state(self.FP)
        assert state.rounds[0].statements == 4
        assert state.recovery.clean

    def test_v2_journal_requires_crc(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write_journal(path, self.FP, _records(1))
        record = RoundRecord(index=1, seed=round_seed(1, 1))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record.to_json()) + "\n")
        state = CampaignJournal(str(path)).load_state(self.FP)
        assert 1 not in state.rounds, \
            "a v2 journal line without a checksum is untrusted"
        assert state.recovery.corrupt_lines == 1

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write_journal(path, self.FP, _records(1))
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace('"seed":1', '"seed":2')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PQSError):
            CampaignJournal(str(path)).load_state(self.FP)


class TestJournalLifecycle:
    def test_context_manager_closes(self, tmp_path):
        with CampaignJournal(str(tmp_path / "j.jsonl")) as journal:
            journal.start({"version": JOURNAL_VERSION}, fresh=True)
            assert not journal.closed
        assert journal.closed

    def test_close_is_idempotent(self, tmp_path):
        journal = CampaignJournal(str(tmp_path / "j.jsonl"))
        journal.start({"version": JOURNAL_VERSION}, fresh=True)
        journal.close()
        journal.close()
        assert journal.closed

    def test_campaign_closes_journal_on_failure(self, tmp_path,
                                                monkeypatch):
        """Regression: Campaign.run() must close the journal on *every*
        exit path, including a runner blowing up mid-round."""
        opened = []
        original_init = CampaignJournal.__init__

        def spy_init(self, path):
            original_init(self, path)
            opened.append(self)

        monkeypatch.setattr(CampaignJournal, "__init__", spy_init)

        from repro.core import runner as runner_mod

        def boom(self):
            raise RuntimeError("mid-campaign explosion")

        monkeypatch.setattr(runner_mod.PQSRunner,
                            "run_database_round", boom)
        with pytest.raises(RuntimeError):
            Campaign(config(tmp_path / "j.jsonl", databases=3)).run()
        assert opened and all(j.closed for j in opened)
