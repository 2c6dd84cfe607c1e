"""Bug reports, test cases, round records, and run statistics.

Reports and test cases serialize to plain JSON (``to_json`` /
``from_json``) so a campaign can journal findings as it runs and a
``--resume`` continuation can reload them byte-for-byte.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Optional

from repro.values import SQLType, Value


def value_to_json(value: Value) -> dict:
    """Encode a :class:`~repro.values.Value` as a JSON-safe dict.

    BLOBs are hex-encoded; every other payload is a native JSON scalar
    (Python's ``json`` round-trips ``inf``/``nan`` reals natively).
    """
    if value.t is SQLType.BLOB:
        return {"t": value.t.value, "v": value.v.hex()}
    return {"t": value.t.value, "v": value.v}


def value_from_json(data: dict) -> Value:
    t = SQLType(data["t"])
    if t is SQLType.BLOB:
        return Value.blob(bytes.fromhex(data["v"]))
    if t is SQLType.REAL:
        # JSON integers (e.g. a journaled 2.0 written as 2) must come
        # back as the REAL they were.
        return Value(t, float(data["v"]))
    return Value(t, data["v"])


class Oracle(enum.Enum):
    """Which oracle detected a finding (paper Table 3's three columns)."""

    CONTAINMENT = "contains"
    ERROR = "error"
    CRASH = "segfault"
    #: Multi-plan differential execution (repro.multiplan): two forced
    #: plans of the same query returned different row multisets.
    MULTIPLAN = "multiplan"


@dataclass
class TestCase:
    """A replayable sequence of SQL statements.

    The last statement is the one that exposes the finding: the
    synthesized query for containment findings, the erroring/crashing
    statement otherwise.
    """

    #: Not a pytest class, despite the name.
    __test__ = False

    statements: list[str]
    #: For containment findings: the literal pivot values the final
    #: query must contain (rendered per dialect by the reducer/replayer).
    expected_row: Optional[list] = None
    dialect: str = "sqlite"

    @property
    def loc(self) -> int:
        """Statement count — the 'LOC of the reduced test case' metric
        behind the paper's Figure 2."""
        return len(self.statements)

    def render(self) -> str:
        return ";\n".join(self.statements) + ";"

    def to_json(self) -> dict:
        out: dict = {"statements": list(self.statements),
                     "dialect": self.dialect}
        if self.expected_row is not None:
            out["expected_row"] = [value_to_json(v)
                                   for v in self.expected_row]
        return out

    @staticmethod
    def from_json(data: dict) -> "TestCase":
        expected = data.get("expected_row")
        return TestCase(
            statements=list(data["statements"]),
            expected_row=(None if expected is None
                          else [value_from_json(v) for v in expected]),
            dialect=data.get("dialect", "sqlite"))


@dataclass
class BugReport:
    """One finding, as the campaign records it."""

    oracle: Oracle
    dialect: str
    test_case: TestCase
    message: str = ""
    seed: int = 0
    #: Ground-truth attribution: ids of injected defects that reproduce
    #: this test case (filled by the campaign's attribution pass).
    attributed_bugs: list[str] = field(default_factory=list)
    #: Table 2 status taxonomy: fixed / verified / docs / intended /
    #: duplicate.
    triage: str = "verified"
    reduced: bool = False
    #: Multi-plan findings only: one entry per distinct executed plan —
    #: ``{"hints": <PlannerHints.as_dict()>, "fingerprint": str,
    #: "rows": int, "digest": str, "deviant": bool}``.  ``None`` for
    #: every other oracle, and omitted from the JSON form when unset so
    #: pre-multiplan journals stay byte-identical.
    plan_results: Optional[list[dict]] = None

    def to_json(self) -> dict:
        out = {"oracle": self.oracle.value, "dialect": self.dialect,
               "test_case": self.test_case.to_json(),
               "message": self.message, "seed": self.seed,
               "attributed_bugs": list(self.attributed_bugs),
               "triage": self.triage, "reduced": self.reduced}
        if self.plan_results is not None:
            out["plan_results"] = [dict(entry)
                                   for entry in self.plan_results]
        return out

    @staticmethod
    def from_json(data: dict) -> "BugReport":
        plans = data.get("plan_results")
        return BugReport(
            oracle=Oracle(data["oracle"]), dialect=data["dialect"],
            test_case=TestCase.from_json(data["test_case"]),
            message=data.get("message", ""), seed=data.get("seed", 0),
            attributed_bugs=list(data.get("attributed_bugs", [])),
            triage=data.get("triage", "verified"),
            reduced=data.get("reduced", False),
            plan_results=(None if plans is None
                          else [dict(entry) for entry in plans]))

    def fingerprint(self) -> str:
        """Stable content hash for triage dedup: two findings with the
        same oracle and (reduced) statement sequence are one bug however
        many rounds rediscovered it.  Seed and message are excluded —
        they vary per discovery, not per defect."""
        body = "\x1f".join([self.oracle.value, self.dialect,
                            *self.test_case.statements])
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        return digest[:12]


@dataclass
class RoundRecord:
    """One database round: what the runner counted and found, and what
    the journal writes as one line."""

    #: The round's place in its campaign, and the seed its runner ran
    #: under (the campaign-global derived seed of a journaled round).
    index: int = 0
    seed: int = 0
    statements: int = 0
    queries: int = 0
    pivots: int = 0
    expected_errors: int = 0
    timeouts: int = 0
    #: Wall-clock seconds for the whole round (always measured — two
    #: monotonic reads per round — so throughput is computable even with
    #: telemetry off, and journals carry timing across --resume).
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
class RunStatistics:
    """Counters for throughput and distribution benchmarks."""

    databases: int = 0
    statements: int = 0
    queries: int = 0
    pivots: int = 0
    expected_errors: int = 0
    #: Watchdog expirations — counted apart from expected_errors because
    #: a hang is an availability event, not an error-oracle outcome.
    timeouts: int = 0
    #: Summed per-round wall clock: busy time, which excludes the
    #: campaign's setup, journal writes and triage.
    seconds: float = 0.0
    #: Multi-plan oracle activity (zero unless ``--multiplan`` is on).
    multiplan_queries: int = 0
    multiplan_plans: int = 0
    multiplan_divergences: int = 0
    multiplan_forced_failures: int = 0
    reports: list[BugReport] = field(default_factory=list)

    @property
    def queries_per_second(self) -> float:
        return self.queries / self.seconds if self.seconds > 0 else 0.0

    @property
    def statements_per_second(self) -> float:
        return self.statements / self.seconds if self.seconds > 0 else 0.0

    def absorb_round(self, record: RoundRecord) -> None:
        """Fold one finished round into these counters."""
        self.databases += 1
        self.statements += record.statements
        self.queries += record.queries
        self.pivots += record.pivots
        self.expected_errors += record.expected_errors
        self.timeouts += record.timeouts
        self.seconds += record.seconds
        # The multi-plan outcome dict is the shape
        # MultiPlanOracle.take_round_outcome produces.
        outcome = record.multiplan
        self.multiplan_queries += outcome.get("queries", 0)
        self.multiplan_divergences += outcome.get("divergences", 0)
        self.multiplan_forced_failures += outcome.get(
            "forced_failures", 0)
        for plans, count in outcome.get("plans", {}).items():
            self.multiplan_plans += int(plans) * count
        self.reports.extend(record.reports)
