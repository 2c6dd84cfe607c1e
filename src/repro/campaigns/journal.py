"""Campaign durability: a checksummed JSONL journal of per-round results.

A journaled campaign writes one line per completed database round as it
runs, so an interrupted hunt (crash of the *tool* host, SIGKILL, power
loss) can continue with ``resume=True`` instead of starting over.  The
file layout is append-only JSONL:

* line 1 — a header fingerprinting the campaign (dialect, seed,
  database count, enabled defects, journal version); resuming under a
  different configuration is an error, not silent corruption;
* each further line — one record: a ``round`` (index, derived seed,
  counters, raw pre-reduction findings serialized via
  :meth:`~repro.core.reports.BugReport.to_json`) or a ``quarantine``
  (a poison round retired after exhausting its retry threshold).

**Format v2** adds a per-line CRC32 checksum: every line is plain JSON
carrying a ``crc`` field computed over the canonical serialization of
the rest of the line.  On load, a line that fails to parse *or* fails
its checksum is skipped and counted — not trusted, and crucially not
treated as end-of-file, so one corrupt line in the middle of a journal
no longer drops every later valid round.  Repeated round indexes
(journals written by older thread fleets could hold the same round
twice, and a journal is input from outside the program) are
deduplicated on load, first occurrence wins.  v1 journals (no checksums) remain
readable: ``crc`` is verified whenever present and required only when
the header declares version ≥ 2.

Journaled campaigns derive an **independent seed per round**
(:func:`round_seed`) so round *i* can be re-run — or skipped on resume —
without replaying rounds ``0..i-1`` through the RNG.  A truncated final
line (the tool died mid-write) is discarded on load; that round simply
re-runs.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Optional, TextIO

from repro.core.reports import BugReport
from repro.errors import PQSError

JOURNAL_VERSION = 2

#: SplitMix64-style constants; any fixed odd multipliers would do.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX = 0xBF58476D1CE4E5B9


def round_seed(campaign_seed: int, index: int) -> int:
    """Deterministic, campaign-global seed for database round *index*."""
    x = (campaign_seed * _GOLDEN + (index + 1) * _MIX) % 2**64
    x ^= x >> 31
    return (x * _GOLDEN) % 2**63


def _canonical(data: dict) -> str:
    """The byte-stable serialization the checksum is computed over."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def line_checksum(data: dict) -> str:
    """CRC32 (hex) of a record's canonical JSON, ``crc`` key excluded."""
    body = {k: v for k, v in data.items() if k != "crc"}
    return format(zlib.crc32(_canonical(body).encode("utf-8")), "08x")


@dataclass
class RoundRecord:
    """One journaled database round."""

    index: int
    seed: int
    statements: int = 0
    queries: int = 0
    pivots: int = 0
    expected_errors: int = 0
    timeouts: int = 0
    #: Wall-clock seconds the round took when it actually ran — carried
    #: in the journal so a --resume continuation reports the same
    #: throughput an uninterrupted run would have.
    seconds: float = 0.0
    reports: list[BugReport] = field(default_factory=list)
    #: Novel (plan fingerprint, example SQL) pairs the round discovered
    #: under plan-coverage guidance; empty when guidance is off.  Carried
    #: in the journal so ``--resume`` reconstructs the guidance seen-set
    #: and scheduler pool without re-running completed rounds.
    plans: list[tuple[str, str]] = field(default_factory=list)
    #: Multi-plan oracle outcome for the round (queries / divergences /
    #: forced_failures / plans-per-query distribution); empty unless
    #: ``--multiplan`` is on.  Carried in the journal so a ``--resume``
    #: continuation reports the same multiplan statistics an
    #: uninterrupted run would — and omitted from the JSON form when
    #: empty so multiplan-off journals stay byte-identical.
    multiplan: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        data = {"kind": "round", "index": self.index, "seed": self.seed,
                "statements": self.statements, "queries": self.queries,
                "pivots": self.pivots,
                "expected_errors": self.expected_errors,
                "timeouts": self.timeouts, "seconds": self.seconds,
                "reports": [r.to_json() for r in self.reports]}
        if self.plans:
            data["plans"] = [[fp, example] for fp, example in self.plans]
        if self.multiplan:
            data["multiplan"] = dict(self.multiplan)
        return data

    @staticmethod
    def from_json(data: dict) -> "RoundRecord":
        return RoundRecord(
            index=data["index"], seed=data["seed"],
            statements=data.get("statements", 0),
            queries=data.get("queries", 0),
            pivots=data.get("pivots", 0),
            expected_errors=data.get("expected_errors", 0),
            timeouts=data.get("timeouts", 0),
            seconds=data.get("seconds", 0.0),
            reports=[BugReport.from_json(r)
                     for r in data.get("reports", [])],
            plans=[(fp, example)
                   for fp, example in data.get("plans", [])],
            multiplan=dict(data.get("multiplan", {})))


@dataclass
class QuarantineRecord:
    """A poison round retired after exhausting its retry threshold.

    Quarantine is the campaign-level analogue of the subprocess
    harness's restart budget: a round that fails deterministically
    (e.g. :class:`~repro.errors.HarnessError` on every attempt) is
    journaled and surfaced instead of aborting the whole hunt.
    """

    index: int
    seed: int
    attempts: int
    error: str = ""

    def to_json(self) -> dict:
        return {"kind": "quarantine", "index": self.index,
                "seed": self.seed, "attempts": self.attempts,
                "error": self.error}

    @staticmethod
    def from_json(data: dict) -> "QuarantineRecord":
        return QuarantineRecord(
            index=data["index"], seed=data["seed"],
            attempts=data.get("attempts", 0),
            error=data.get("error", ""))

    def harness_report(self) -> str:
        """A human-readable synthesized report for the final stats."""
        return (f"round {self.index} (seed {self.seed}) quarantined "
                f"after {self.attempts} attempt(s): {self.error}")


@dataclass
class RecoveryStats:
    """What journal recovery had to do while loading."""

    #: Checksum-mismatched or unparseable lines skipped (a torn final
    #: line counts here too).
    corrupt_lines: int = 0
    #: Re-run round indexes deduplicated (first occurrence won).
    duplicate_rounds: int = 0

    @property
    def clean(self) -> bool:
        return not (self.corrupt_lines or self.duplicate_rounds)


@dataclass
class JournalState:
    """Everything :meth:`CampaignJournal.load_state` recovered."""

    rounds: dict[int, RoundRecord] = field(default_factory=dict)
    quarantined: dict[int, QuarantineRecord] = field(default_factory=dict)
    recovery: RecoveryStats = field(default_factory=RecoveryStats)

    @property
    def empty(self) -> bool:
        return not (self.rounds or self.quarantined)


class CampaignJournal:
    """Append-only checksummed JSONL journal for one campaign.

    Written by the campaign's one round executor.  Usable as a context
    manager; :meth:`close` is idempotent.
    """

    def __init__(self, path: str):
        self.path = path
        self._handle: Optional[TextIO] = None

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    @property
    def closed(self) -> bool:
        return self._handle is None

    # -- reading ------------------------------------------------------------
    def load(self, fingerprint: dict) -> dict[int, RoundRecord]:
        """Completed rounds from an existing journal (``{}`` if absent).

        Raises :class:`~repro.errors.PQSError` when the journal was
        written by a differently-configured campaign.
        """
        return self.load_state(fingerprint).rounds

    def load_state(self, fingerprint: dict) -> JournalState:
        """Full recovery: rounds, quarantines, and recovery counters.

        Corrupt lines (bad JSON or checksum mismatch) are *skipped and
        counted*, never treated as end-of-file; duplicate round indexes
        keep their first occurrence.  Raises
        :class:`~repro.errors.PQSError` when the header is unreadable or
        fingerprints a differently-configured campaign.
        """
        return self._load(fingerprint)[1]

    def read_header(self) -> dict:
        """The header fields of an existing journal, fingerprint-free.

        Offline analytics (``pqs report``) reads a journal it did not
        write — it learns the campaign's dialect, seed, and enabled
        defects *from* the header rather than validating against them.
        Raises :class:`~repro.errors.PQSError` on a missing file or an
        unreadable/corrupt header.
        """
        if not os.path.exists(self.path):
            raise PQSError(f"journal {self.path}: no such file")
        with open(self.path, encoding="utf-8") as handle:
            first = handle.readline().rstrip("\n")
        if not first:
            raise PQSError(f"journal {self.path}: empty file")
        return self._check_header(first, None)

    def load_any(self) -> tuple[dict, JournalState]:
        """Fingerprint-free full load: ``(header, state)``."""
        return self._load(None)

    def _load(self, fingerprint: Optional[dict],
              ) -> tuple[dict, JournalState]:
        state = JournalState()
        if not os.path.exists(self.path):
            if fingerprint is None:
                raise PQSError(f"journal {self.path}: no such file")
            return {}, state
        with open(self.path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        if not lines:
            if fingerprint is None:
                raise PQSError(f"journal {self.path}: empty file")
            return {}, state
        header = self._check_header(lines[0], fingerprint)
        require_crc = header.get("version", 1) >= 2
        for line in lines[1:]:
            if not line.strip():
                continue
            data = self._check_line(line, require_crc)
            if data is None:
                state.recovery.corrupt_lines += 1
                continue
            kind = data.get("kind")
            if kind == "round":
                record = RoundRecord.from_json(data)
                if record.index in state.rounds:
                    state.recovery.duplicate_rounds += 1
                    continue
                state.rounds[record.index] = record
            elif kind == "quarantine":
                record = QuarantineRecord.from_json(data)
                if record.index in state.quarantined:
                    state.recovery.duplicate_rounds += 1
                    continue
                state.quarantined[record.index] = record
        return header, state

    def _check_header(self, line: str,
                      fingerprint: Optional[dict]) -> dict:
        try:
            header = json.loads(line)
        except json.JSONDecodeError:
            raise PQSError(f"journal {self.path}: unreadable header")
        if header.get("kind") != "header":
            raise PQSError(f"journal {self.path}: missing header line")
        crc = header.get("crc")
        if crc is not None and crc != line_checksum(header):
            raise PQSError(f"journal {self.path}: corrupt header")
        recorded = {k: v for k, v in header.items()
                    if k not in ("kind", "crc")}
        if fingerprint is None:
            # Fingerprint-free read (offline analytics): any valid
            # header is accepted as-is.
            return recorded
        expected = dict(fingerprint)
        if recorded.get("version") == 1 and expected.get("version") == \
                JOURNAL_VERSION:
            # Backward-compatible read: a v1 journal resumes under a v2
            # campaign whose configuration otherwise matches.
            expected["version"] = 1
        if recorded != expected:
            raise PQSError(
                f"journal {self.path} was written by a different "
                f"campaign: {recorded!r} != {fingerprint!r}")
        return recorded

    @staticmethod
    def _check_line(line: str, require_crc: bool) -> Optional[dict]:
        """Parse + verify one record line; None means corrupt."""
        try:
            data = json.loads(line)
        except json.JSONDecodeError:
            return None
        if not isinstance(data, dict):
            return None
        crc = data.get("crc")
        if crc is None:
            return None if require_crc else data
        if crc != line_checksum(data):
            return None
        return data

    # -- writing ------------------------------------------------------------
    def start(self, fingerprint: dict, fresh: bool) -> None:
        """Open for appending; ``fresh`` truncates and writes the header."""
        if fresh or not os.path.exists(self.path):
            self._handle = open(self.path, "w", encoding="utf-8")
            self._write_line({"kind": "header", **fingerprint})
        else:
            self._handle = open(self.path, "a", encoding="utf-8")

    def append_round(self, record: RoundRecord) -> None:
        assert self._handle is not None, "journal not started"
        self._write_line(record.to_json())

    def append_quarantine(self, record: QuarantineRecord) -> None:
        assert self._handle is not None, "journal not started"
        self._write_line(record.to_json())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def _write_line(self, data: dict) -> None:
        data = dict(data)
        data["crc"] = line_checksum(data)
        self._handle.write(_canonical(data) + "\n")
        # One durable line per record: a kill between rounds loses
        # nothing, a kill mid-round loses only that round.
        self._handle.flush()
        os.fsync(self._handle.fileno())
