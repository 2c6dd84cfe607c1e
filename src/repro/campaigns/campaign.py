"""End-to-end bug-hunting campaigns with ground-truth scoring.

A campaign mirrors the paper's §4.1 methodology, compressed: run PQS
against a target with known (injected) defects, report findings, reduce
each finding's test case, and triage.  Where the paper's triage came
from upstream developers, ours comes from differential replay against
single-defect engines plus the defect catalog's recorded upstream
resolution (fixed / verified / docs / intended / duplicate).

Every campaign runs one round loop: :meth:`Campaign._run_rounds` runs,
in this thread and in index order, every round the journal lacks (all
of them without a journal), each by :func:`run_round`.  A journaled or
``threads > 1`` campaign runs each round under a campaign-global
derived seed, so an interrupted hunt resumes where it stopped; a plain
campaign keeps the runner's one random stream.  Any exception a round
raises aborts the campaign; a round already journaled stays journaled,
so ``--resume`` picks up at the round that failed.

The paper runs one thread per database (§3.4).  Here ``threads`` only
counts round streams: Python threads do not overlap CPU-bound work (the
GIL), and a measured thread fleet was no faster than this one loop, so
``threads=N`` runs the same campaign-global rounds inline.

Each finding is reduced, shrunk and attributed by one task,
:func:`triage_finding`, which depends on that finding alone.  A
:class:`~repro.campaigns.pool.TriagePool` of worker processes, one per
usable CPU, runs the tasks, and each round's findings are submitted as
soon as the round completes (journal-loaded rounds on ``--resume``
first), so triage overlaps the hunt.  With one
usable CPU, or when the pool is lost, the task runs here instead.
After the hunt, :meth:`Campaign._process` takes each finding's result
in round order, and ``_triage_all`` folds them into reports: the
per-defect cap, ``duplicate`` triage and ``unattributed``.  The
reports do not depend on where a task ran.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.adapters.minidb_adapter import MiniDBConnection
from repro.campaigns.journal import (
    JOURNAL_VERSION,
    CampaignJournal,
    JournalState,
    RecoveryStats,
    round_seed,
)
from repro.campaigns.pool import TriagePool
from repro.campaigns.replay import DifferentialReplayer
from repro.core.reducer import TestCaseReducer
from repro.core.reports import BugReport, Oracle, RoundRecord, RunStatistics
from repro.core.runner import PQSRunner, RunnerConfig
from repro.errors import ReductionError
from repro.guidance import NULL_GUIDANCE, PlanGuidance
from repro.minidb.bugs import BUG_CATALOG, BugRegistry, bugs_for_dialect
from repro.multiplan.hints import BASELINE, PlannerHints
from repro.multiplan.replay import MultiPlanReplayer
from repro.observe.observatory import NULL_OBSERVATORY, Observatory
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry import names as metric_names

#: BugReport oracle value -> catalog oracle tag.
_ORACLE_TAG = {"contains": "contains", "error": "error",
               "segfault": "crash", "multiplan": "multiplan"}

#: DifferentialReplayer.difference_kind -> the oracle a case now trips.
_KIND_ORACLE = {"rows": Oracle.CONTAINMENT, "error": Oracle.ERROR,
                "crash": Oracle.CRASH}


def primary_attribution(report: BugReport) -> str:
    """The defect a report is charged to.

    A test case sometimes manifests under several single-defect engines
    (its statements trip more than one injection point); the report is
    charged to a defect whose *catalog oracle* matches the oracle that
    actually detected it, so e.g. an error-oracle finding is never
    credited to a containment defect that happens to co-manifest.
    """
    assert report.attributed_bugs
    tag = _ORACLE_TAG.get(report.oracle.value)
    for bug_id in report.attributed_bugs:
        if BUG_CATALOG[bug_id].oracle == tag:
            return bug_id
    return report.attributed_bugs[0]


#: The BugReport fields triage sets.
TRIAGED_FIELDS = ("test_case", "reduced", "attributed_bugs", "oracle")


@dataclass
class Triaged:
    """One finding's triage, as it comes back from a worker process."""

    #: The report's :data:`TRIAGED_FIELDS` after triage.
    fields: dict
    #: False when the finding does not reproduce or no enabled defect
    #: explains it.
    ok: bool
    #: When triage started (``time.monotonic``, system-wide on Linux)
    #: and how long it took, measured where it ran.
    started: float
    seconds: float
    #: Why the shrinker left the final query as it was, if it did.
    unshrunk: Optional[str] = None

    def apply(self, report: BugReport) -> Optional[BugReport]:
        """Set the triaged fields on *report*; the processed report, or
        None when it was not charged to a defect."""
        for name, value in self.fields.items():
            setattr(report, name, value)
        return report if self.ok else None


def triage_finding(dialect: str, bug_ids: tuple, reduce: bool,
                   report: BugReport) -> Triaged:
    """Reduce, shrink and attribute one raw finding, then re-derive the
    oracle its reduced case trips.

    The one triage task, run in a triage worker or in the campaign's
    process alike.  Its inputs are picklable; it builds fresh
    replayers, so a finding's replay memo lives exactly as long as its
    triage; and it runs without telemetry, touching nothing a campaign
    thread may lock (the campaign records the returned seconds and
    skip reason).  Mutates *report*, which in a worker is a copy.
    """
    started = time.monotonic()
    bugs = BugRegistry(set(bug_ids))
    ok, unshrunk = _triage(report, DifferentialReplayer(dialect, bugs),
                           MultiPlanReplayer(dialect, bugs), reduce)
    return Triaged(
        fields={name: getattr(report, name) for name in TRIAGED_FIELDS},
        ok=ok, started=started, seconds=time.monotonic() - started,
        unshrunk=unshrunk)


def _triage(report: BugReport, replayer: DifferentialReplayer,
            multiplan_replayer: MultiPlanReplayer,
            reduce: bool) -> tuple[bool, Optional[str]]:
    """:func:`triage_finding`'s body: (charged to a defect, unshrunk
    reason)."""
    if report.oracle is Oracle.MULTIPLAN:
        still_fails, attribute = _multiplan_replay(multiplan_replayer,
                                                   report)
    else:
        still_fails = replayer.manifests
        attribute = replayer.attribute
    if not still_fails(report.test_case):
        return False, None
    unshrunk = None
    if reduce:
        reducer = TestCaseReducer(still_fails)
        try:
            report.test_case = reducer.reduce(report.test_case)
        except ReductionError:
            return False, None
        report.reduced = True
        # Expression-level shrinking of the final query (the paper's
        # authors "manually shortened them where possible", §4.1).
        from repro.core.shrink import QueryShrinker

        shrinker = QueryShrinker(still_fails)
        report.test_case = shrinker.shrink(report.test_case)
        unshrunk = shrinker.unshrunk
    report.attributed_bugs = attribute(report.test_case)
    if not report.attributed_bugs:
        return False, unshrunk
    if report.oracle is not Oracle.MULTIPLAN:
        # The reduced case is the reported artifact; re-derive which
        # oracle it now trips (reduction may have turned an error
        # case into a wrong-rows case, or vice versa).
        kind = replayer.difference_kind(report.test_case)
        report.oracle = _KIND_ORACLE.get(kind, report.oracle)
    # Order the primary attribution first so every consumer of
    # attributed_bugs[0] charges the same defect.
    primary = primary_attribution(report)
    report.attributed_bugs = [primary] + [
        b for b in report.attributed_bugs if b != primary]
    return True, unshrunk


def _multiplan_replay(replayer: MultiPlanReplayer, report: BugReport):
    """Failure predicate and attribution for a multi-plan finding.

    The predicate is *plan divergence under the hints that exposed the
    finding* (recovered from the report's ``plan_results``), not
    buggy-vs-clean disagreement: a multiplan defect is by construction
    invisible to single-plan replay, so minimization must preserve the
    forced executions and the cross-plan check."""
    hints_list = [PlannerHints.from_dict(entry.get("hints", {}))
                  for entry in (report.plan_results or [])]
    if not hints_list:
        # A journal predating plan_results: retry with the two
        # cheapest universally-feasible plans.
        hints_list = [BASELINE, PlannerHints(force_full_scan=True)]

    def still_diverges(test_case) -> bool:
        return replayer.diverges(test_case, hints_list)

    def attribute(test_case) -> list[str]:
        return replayer.attribute(test_case, hints_list)

    return still_diverges, attribute


@dataclass
class CampaignConfig:
    dialect: str = "sqlite"
    seed: int = 0
    #: Database rounds in the whole campaign.
    databases: int = 50
    #: Round streams (paper §3.4's thread count).  More than 1 runs
    #: every round under a campaign-global seed, as a journal does; the
    #: count does not change results.
    threads: int = 1
    #: Defects to enable; None enables the dialect's full catalog.
    bug_ids: Optional[list[str]] = None
    reduce: bool = True
    #: Stop re-reporting a defect after this many reports (the authors
    #: likewise stopped filing duplicates).
    max_reports_per_bug: int = 2
    #: JSONL journal path.  When set, each database round gets an
    #: independently-derived seed and its raw results are persisted as
    #: the campaign runs, so an interrupted hunt can be continued, under
    #: any thread count.
    journal: Optional[str] = None
    #: Continue from an existing journal instead of starting over.
    resume: bool = False
    #: Observability sink (metrics registry + tracer); None runs with
    #: the no-op :data:`repro.telemetry.NULL_TELEMETRY`.  Deliberately
    #: not part of the journal fingerprint: turning telemetry on must
    #: not invalidate a resumable hunt.
    telemetry: Optional["Telemetry"] = None
    #: Observability hub (repro.observe.Observatory): live status
    #: views.  Like telemetry — and unlike guidance — it is
    #: strictly read-side: never journal-fingerprinted, never feeds
    #: back into generation, so turning it on cannot perturb the
    #: statement stream or invalidate a resumable hunt.
    observe: Optional["Observatory"] = None
    #: Query-plan-coverage guidance (repro.guidance).  Unlike telemetry
    #: this *is* journal-fingerprinted when on: feedback changes what
    #: the campaign generates, so a guided journal cannot silently
    #: continue an unguided hunt (or vice versa).  The scheduler is
    #: seeded with the campaign seed under any thread count.
    guidance: bool = False
    #: Write the final plan-coverage set (PlanCoverage JSON) here.
    #: Setting a path without ``guidance=True`` observes plans
    #: *passively*: coverage is tracked and dumped but generation is the
    #: exact unguided stream.
    plan_coverage: Optional[str] = None
    #: Per-runner knobs, including the multi-plan oracle.  It is
    #: journal-fingerprinted when on: its outcomes are journaled, so
    #: such a journal must not silently continue (or be continued by) a
    #: hunt without it.
    runner: RunnerConfig = field(default_factory=RunnerConfig)

    def __post_init__(self) -> None:
        # Dialect and seed are the campaign's identity; this is the one
        # place the runner inherits them.
        self.runner.dialect = self.dialect
        self.runner.seed = self.seed


@dataclass
class CampaignResult:
    config: CampaignConfig
    #: Statistics over every completed round; ``stats.reports`` holds
    #: the raw findings in round order.
    stats: RunStatistics
    #: Final plan-coverage set when the campaign tracked plans
    #: (``guidance`` or ``plan_coverage`` configured); None otherwise.
    plan_coverage: Optional["PlanCoverage"] = None
    #: Reduced, attributed reports.
    reports: list[BugReport] = field(default_factory=list)
    #: Raw findings that did not reproduce or could not be charged to a
    #: defect — tool bugs, which the test suite asserts never happen.
    unattributed: list[BugReport] = field(default_factory=list)
    #: Always empty: no round is ever quarantined.  Kept only because
    #: the benchmark harness (``perfbench/child.py``) reads it.
    quarantined: list = field(default_factory=list)
    #: What journal recovery had to repair on ``--resume``.
    recovery: RecoveryStats = field(default_factory=RecoveryStats)

    @property
    def detected_bug_ids(self) -> set[str]:
        out: set[str] = set()
        for report in self.reports:
            out.update(report.attributed_bugs)
        return out

    def true_bugs(self) -> list[BugReport]:
        """Reports the paper would count as true bugs (code fixes,
        documentation fixes, confirmed)."""
        return [r for r in self.reports
                if r.triage in ("fixed", "docs", "verified")]

    def table2_row(self) -> dict[str, int]:
        """This dialect's row of the paper's Table 2."""
        row = {"fixed": 0, "verified": 0, "intended": 0, "duplicate": 0}
        for report in self.reports:
            key = "fixed" if report.triage == "docs" else report.triage
            row[key] = row.get(key, 0) + 1
        return row

    def table3_row(self) -> dict[str, int]:
        """This dialect's row of the paper's Table 3 (true bugs per
        detecting oracle)."""
        row = {"contains": 0, "error": 0, "segfault": 0, "multiplan": 0}
        for report in self.true_bugs():
            row[report.oracle.value] += 1
        return row


def run_round(runner: PQSRunner, campaign_seed: Optional[int],
              index: int) -> RoundRecord:
    """Run round *index* of a campaign: under its campaign-global
    derived seed, or, when *campaign_seed* is None, on the runner's own
    random stream.  The round's spans carry its ``round`` and
    ``round_seed``, the record's ``index`` and ``seed``."""
    if campaign_seed is not None:
        runner.reseed(round_seed(campaign_seed, index))
    with runner.telemetry.tracer.context(round=index,
                                         round_seed=runner.config.seed):
        record = runner.run_database_round()
    record.index = index
    return record


class Campaign:
    """Runs PQS against defect-injected MiniDB and scores the findings."""

    def __init__(self, config: CampaignConfig):
        self.config = config
        bug_ids = config.bug_ids
        if bug_ids is None:
            bug_ids = [b.bug_id for b in bugs_for_dialect(config.dialect)]
        self.bugs = BugRegistry(set(bug_ids))
        self._telemetry = config.telemetry or NULL_TELEMETRY
        self._reduce_phase = self._telemetry.phase(
            metric_names.PHASE_REDUCE)
        #: triage_finding's inputs before the report.
        self._triage_args = (config.dialect,
                             tuple(sorted(self.bugs.enabled)),
                             config.reduce)
        self._pool = TriagePool(triage_finding, self._triage_args,
                                telemetry=self._telemetry)

    def _connection(self) -> MiniDBConnection:
        return MiniDBConnection(self.config.dialect,
                                bugs=BugRegistry(set(self.bugs.enabled)))

    def build_runner(self) -> PQSRunner:
        """A fresh runner wired exactly as this campaign hunts: own
        connection factory, telemetry, and guidance scheduler."""
        telemetry = self.config.telemetry
        guidance = NULL_GUIDANCE
        if self.config.guidance or self.config.plan_coverage:
            # plan_coverage without guidance observes passively: plans
            # are fingerprinted and dumped, generation is untouched.
            guidance = PlanGuidance(
                seed=self.config.seed,
                feedback=self.config.guidance,
                telemetry=telemetry)
        # The runner gets its own RunnerConfig: reseed() mutates
        # config.seed, which must not leak into the campaign's config.
        return PQSRunner(self._connection, replace(self.config.runner),
                         telemetry=telemetry, guidance=guidance)

    def run(self) -> CampaignResult:
        """Hunt (see the module docstring), then reduce, attribute, and
        triage the findings.  The triage workers are joined on every
        exit path."""
        try:
            return self._run()
        finally:
            self._pool.close()

    def _run(self) -> CampaignResult:
        config = self.config
        observe = config.observe or NULL_OBSERVATORY
        runner = self.build_runner()
        result = self._run_rounds(runner, observe)
        if runner.guidance.enabled:
            result.plan_coverage = runner.guidance.coverage
            observe.attach_coverage(result.plan_coverage)
            if config.plan_coverage:
                result.plan_coverage.dump(config.plan_coverage)
        observe.mark_finished()
        self._triage_all(result)
        return result

    def _triage_all(self, result: CampaignResult) -> None:
        """Fold every raw finding's triage in round order, capping
        reports per defect."""
        reports_per_bug: dict[str, int] = {}
        seen_bugs: set[str] = set()
        for report in result.stats.reports:
            processed = self._process(report)
            if processed is None:
                result.unattributed.append(report)
                continue
            primary = primary_attribution(processed)
            if reports_per_bug.get(primary, 0) >= \
                    self.config.max_reports_per_bug:
                continue
            reports_per_bug[primary] = reports_per_bug.get(primary, 0) + 1
            processed.triage = self._triage(primary, seen_bugs)
            seen_bugs.add(primary)
            result.reports.append(processed)

    # -- the round loop ------------------------------------------------------
    def _fingerprint(self) -> dict:
        fingerprint = {"version": JOURNAL_VERSION,
                       "dialect": self.config.dialect,
                       "seed": self.config.seed,
                       "databases": self.config.databases,
                       "bug_ids": sorted(self.bugs.enabled)}
        if self.config.guidance:
            # Feedback changes generation, so a guided journal must not
            # silently continue an unguided hunt.  The key is added only
            # when on, keeping journals from before this field resumable.
            fingerprint["guidance"] = True
        if self.config.runner.multiplan:
            # Same only-when-on rule: multiplan journals carry multiplan
            # findings and outcome records, so they must not be resumed
            # by (or resume) a plain hunt; off leaves journal bytes
            # identical to a pre-multiplan build.
            fingerprint["multiplan"] = True
        return fingerprint

    @contextmanager
    def _open_journal(self):
        """The open journal (None without one) and the state recovered
        from it; the journal is closed on every exit path."""
        config = self.config
        telemetry = self._telemetry
        if not config.journal:
            yield None, JournalState()
            return
        with CampaignJournal(config.journal) as journal:
            fingerprint = self._fingerprint()
            state = (journal.load_state(fingerprint)
                     if config.resume else JournalState())
            journal.start(fingerprint, fresh=state.empty)
            # What recovery did, as counters.  The runner counts rounds
            # it actually executes; journal-loaded rounds still advance
            # the live progress line.
            recovery = state.recovery
            for name, count in (
                    (metric_names.JOURNAL_RECOVERED_ROUNDS,
                     len(state.rounds)),
                    (metric_names.JOURNAL_CORRUPT_LINES,
                     recovery.corrupt_lines),
                    (metric_names.JOURNAL_DUPLICATE_ROUNDS,
                     recovery.duplicate_rounds)):
                if count:
                    telemetry.counter(name).inc(count)
            telemetry.counter(metric_names.ROUNDS).inc(len(state.rounds))
            yield journal, state

    def _run_rounds(self, runner: PQSRunner, observe) -> CampaignResult:
        """Run, journal and settle every round the journal lacks, in
        index order, in this thread.

        A journaled or ``threads > 1`` campaign runs every round under
        :func:`~repro.campaigns.journal.round_seed` — an independent
        derivation from (campaign seed, round index) — so journal-loaded
        and freshly-run rounds compose into exactly the statistics an
        uninterrupted run would produce.
        """
        config = self.config
        # A plain campaign (no journal, one stream) keeps the runner's
        # one random stream: perfbench/expected.json pins its outputs.
        # ROADMAP item 2 drops this condition and re-pins.
        campaign_seed = (config.seed if config.journal or config.threads > 1
                         else None)
        rounds: dict[int, RoundRecord] = {}

        def settle(record: RoundRecord) -> None:
            rounds[record.index] = record
            observe.add_round(record)
            self._pool.submit(record.reports)

        with self._open_journal() as (journal, state):
            loaded = [state.rounds[index] for index in sorted(state.rounds)]
            if runner.guidance.enabled:
                # Guidance replays each journaled round so its seen-set,
                # pool, and scheduling stream match the original
                # process exactly (exact for prefix-complete journals;
                # a corruption gap re-runs only the lost round).
                for record in loaded:
                    runner.guidance.restore_round(record.seed,
                                                  record.plans)
            for record in loaded:
                settle(record)
            for index in range(config.databases):
                if index in rounds:
                    continue
                record = run_round(runner, campaign_seed, index)
                if journal is not None:
                    journal.append_round(record)
                settle(record)
        # Folded in round-index order, so the outcome does not depend on
        # what a resume loaded.
        stats = RunStatistics()
        for index in sorted(rounds):
            stats.absorb_round(rounds[index])
        return CampaignResult(config=self.config, stats=stats,
                              recovery=state.recovery)

    # -- per-report processing ---------------------------------------------
    def _process(self, report: BugReport) -> Optional[BugReport]:
        """Triage one raw finding: apply the triage pool's result for
        it, or run :func:`triage_finding` here when there is none.
        Returns the processed report, or None when it does not
        reproduce or no enabled defect explains it."""
        triaged = self._pool.take(report)
        if triaged is None:
            triaged = triage_finding(*self._triage_args, report)
        self._reduce_phase.record(triaged.started, triaged.seconds)
        if triaged.unshrunk is not None:
            self._telemetry.counter(metric_names.REDUCE_UNSHRUNK,
                                    reason=triaged.unshrunk).inc()
        return triaged.apply(report)

    def _triage(self, bug_id: str, seen: set[str]) -> str:
        if bug_id in seen:
            return "duplicate"
        return BUG_CATALOG[bug_id].triage
