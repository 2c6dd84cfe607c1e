"""End-to-end bug-hunting campaigns with ground-truth scoring.

A campaign mirrors the paper's §4.1 methodology, compressed: run PQS
against a target with known (injected) defects, report findings, reduce
each finding's test case, and triage.  Where the paper's triage came
from upstream developers, ours comes from differential replay against
single-defect engines plus the defect catalog's recorded upstream
resolution (fixed / verified / docs / intended / duplicate).

One engine, three run modes, picked from the config:

* no journal, one thread — the runner's own sequential RNG stream;
* a journal, one thread — a one-shard fleet: the shared
  :class:`~repro.campaigns.scheduler.RoundQueue` drained by one
  :class:`~repro.campaigns.executor.RoundExecutor` inline, each round
  under a campaign-global derived seed, so an interrupted hunt resumes;
* several threads — paper §3.4's recipe, "running each thread on a
  distinct database", supervised.  Each worker owns its own engines,
  runner, random stream and metrics registry, so the hot path shares no
  mutable state.  A :class:`~repro.campaigns.supervisor.Supervisor`
  requeues a dead worker's leased rounds and restarts it under a bounded
  budget; a round that keeps failing is quarantined instead of aborting
  the hunt.  Python threads do not overlap CPU-bound work (the GIL), so
  against the pure-Python MiniDB this is about workload *shape*, not
  speedup; against an out-of-process DBMS adapter the same structure
  pipelines naturally.

Every mode ends the same way: findings are reduced, attributed and
triaged centrally in round order, so results do not depend on worker
scheduling.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.adapters.minidb_adapter import MiniDBConnection
from repro.campaigns.chaos import NULL_CHAOS
from repro.campaigns.executor import RoundExecutor
from repro.campaigns.journal import (
    JOURNAL_VERSION,
    CampaignJournal,
    JournalState,
    QuarantineRecord,
    RecoveryStats,
)
from repro.campaigns.replay import DifferentialReplayer
from repro.campaigns.scheduler import RoundQueue
from repro.campaigns.supervisor import (
    SupervisionReport,
    Supervisor,
    SupervisorConfig,
)
from repro.core.reducer import TestCaseReducer
from repro.core.reports import BugReport, Oracle, RunStatistics
from repro.core.runner import PQSRunner, RunnerConfig
from repro.errors import PQSError, ReductionError
from repro.guidance import NULL_GUIDANCE, PlanCoverage, PlanGuidance
from repro.minidb.bugs import BUG_CATALOG, BugRegistry, bugs_for_dialect
from repro.multiplan.hints import BASELINE, PlannerHints
from repro.multiplan.replay import MultiPlanReplayer
from repro.observe.observatory import NULL_OBSERVATORY, Observatory
from repro.plantime.archive import TimingArchive
from repro.telemetry import NULL_TELEMETRY, MetricsRegistry, Telemetry
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


@dataclass
class CampaignConfig:
    dialect: str = "sqlite"
    seed: int = 0
    #: Database rounds in the whole campaign (shared by all threads).
    databases: int = 50
    #: Worker threads.  1 runs in this thread; more run a supervised
    #: fleet over one shared round queue.
    threads: int = 1
    #: Defects to enable; None enables the dialect's full catalog.
    bug_ids: Optional[list[str]] = None
    reduce: bool = True
    #: Stop re-reporting a defect after this many reports (the authors
    #: likewise stopped filing duplicates).
    max_reports_per_bug: int = 2
    #: JSONL journal path.  When set, each database round gets an
    #: independently-derived seed and its raw results are persisted as
    #: the campaign runs, so an interrupted hunt can be continued.  A
    #: fleet shares one journal (it is internally locked), and a resume
    #: redistributes the remaining rounds over however many threads the
    #: resuming run has.
    journal: Optional[str] = None
    #: Continue from an existing journal instead of starting over.
    resume: bool = False
    #: Observability sink (metrics registry + tracer); None runs with
    #: the no-op :data:`repro.telemetry.NULL_TELEMETRY`.  Deliberately
    #: not part of the journal fingerprint: turning telemetry on must
    #: not invalidate a resumable hunt.  Fleet workers hunt with
    #: *private* registries (no cross-thread contention on the hot
    #: path); after the join each snapshot is merged into this one and
    #: kept in :attr:`CampaignResult.worker_snapshots`.
    telemetry: Optional["Telemetry"] = None
    #: Observability hub (repro.observe.Observatory): event log plus
    #: live status views.  Like telemetry — and unlike guidance — it is
    #: strictly read-side: never journal-fingerprinted, never feeds
    #: back into generation, so turning it on cannot perturb the
    #: statement stream or invalidate a resumable hunt.
    observe: Optional["Observatory"] = None
    #: Query-plan-coverage guidance (repro.guidance).  Unlike telemetry
    #: this *is* journal-fingerprinted when on: feedback changes what
    #: the campaign generates, so a guided journal cannot silently
    #: continue an unguided hunt (or vice versa).  Each fleet worker
    #: runs its own scheduler; feedback under work stealing is
    #: best-effort per worker, but the merged coverage is rebuilt from
    #: the per-round records in round-index order.
    guidance: bool = False
    #: Write the final plan-coverage set (PlanCoverage JSON) here.
    #: Setting a path without ``guidance=True`` observes plans
    #: *passively*: coverage is tracked and dumped but generation is the
    #: exact unguided stream.
    plan_coverage: Optional[str] = None
    #: Failed attempts before a queued round is quarantined (a poison
    #: round — e.g. HarnessError on every try — is journaled and
    #: surfaced instead of aborting the hunt).
    quarantine_threshold: int = 3
    #: Write the final merged TimingArchive (JSONL) here; needs
    #: ``runner.plan_timing``.
    timing_archive: Optional[str] = None
    #: Fault-injection schedule (repro.campaigns.chaos.ChaosPolicy) for
    #: the supervised fleet; None runs undisturbed.
    chaos: Optional[object] = None
    #: Per-runner knobs, including the multi-plan oracle and plan timing.
    #: Both are journal-fingerprinted when on: their outcomes are
    #: journaled, so such a journal must not silently continue (or be
    #: continued by) a hunt without them.
    runner: RunnerConfig = field(default_factory=RunnerConfig)
    #: Fleet restart, backoff and stall knobs (threads > 1 only).
    supervisor: SupervisorConfig = field(default_factory=SupervisorConfig)

    def __post_init__(self) -> None:
        # Dialect and seed are the campaign's identity; this is the one
        # place the runner inherits them.
        self.runner.dialect = self.dialect
        self.runner.seed = self.seed
        if self.chaos is not None and self.threads <= 1:
            raise PQSError("chaos requires threads > 1 (it targets the "
                           "supervised fleet)")


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
    #: Merged per-plan timing archive when the campaign timed plans
    #: (``runner.plan_timing``); None otherwise.
    timing_archive: Optional["TimingArchive"] = None
    #: Poison rounds retired after exhausting the retry threshold
    #: (round-queue modes only).
    quarantined: list[QuarantineRecord] = field(default_factory=list)
    #: What journal recovery had to repair on ``--resume``.
    recovery: RecoveryStats = field(default_factory=RecoveryStats)
    # -- fleet only (threads > 1) ------------------------------------------
    #: Rounds completed per logical worker slot (restarted incarnations
    #: count toward their slot; journal-preloaded rounds toward none).
    per_thread_rounds: list[int] = field(default_factory=list)
    #: Distinct plans per slot, when plans were tracked.
    per_thread_plans: list[int] = field(default_factory=list)
    #: One entry per worker death: the summary line followed by the
    #: full formatted traceback — a fleet failure must be debuggable
    #: from the campaign result alone.
    worker_errors: list[str] = field(default_factory=list)
    #: Per-worker metric snapshots (one per spawned incarnation), kept
    #: so per-worker skew is inspectable.
    worker_snapshots: list[dict] = field(default_factory=list)
    #: What supervision did (restarts, stalls, backoff, failures).
    supervision: SupervisionReport = field(
        default_factory=SupervisionReport)

    def harness_reports(self) -> list[str]:
        """Synthesized human-readable reports for quarantined rounds —
        availability failures of the harness, never DBMS findings."""
        return [record.harness_report() for record in self.quarantined]

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


class Campaign:
    """Runs PQS against defect-injected MiniDB and scores the findings."""

    def __init__(self, config: CampaignConfig):
        self.config = config
        bug_ids = config.bug_ids
        if bug_ids is None:
            bug_ids = [b.bug_id for b in bugs_for_dialect(config.dialect)]
        self.bugs = BugRegistry(set(bug_ids))
        self.replayer = DifferentialReplayer(config.dialect, self.bugs)
        self.multiplan_replayer = MultiPlanReplayer(config.dialect,
                                                    self.bugs)

    def _connection(self) -> MiniDBConnection:
        return MiniDBConnection(self.config.dialect,
                                bugs=BugRegistry(set(self.bugs.enabled)))

    def build_runner(self, telemetry=None, seed: Optional[int] = None,
                     ) -> PQSRunner:
        """A fresh runner wired exactly as this campaign hunts: own
        connection factory, telemetry, and guidance scheduler (each
        fleet worker — and each supervisor restart — gets its own)."""
        if telemetry is None:
            telemetry = self.config.telemetry
        guidance = NULL_GUIDANCE
        if self.config.guidance or self.config.plan_coverage:
            # plan_coverage without guidance observes passively: plans
            # are fingerprinted and dumped, generation is untouched.
            guidance = PlanGuidance(
                seed=self.config.seed if seed is None else seed,
                feedback=self.config.guidance,
                telemetry=telemetry)
        # Each runner gets its own RunnerConfig: reseed() mutates
        # config.seed, and concurrent workers sharing one config would
        # race on it (stamping reports with another worker's seed).
        return PQSRunner(self._connection, replace(self.config.runner),
                         telemetry=telemetry, guidance=guidance)

    def run(self) -> CampaignResult:
        """Hunt in the mode the config picks (see the module docstring),
        then reduce, attribute, and triage the findings."""
        config = self.config
        telemetry = config.telemetry or NULL_TELEMETRY
        observe = config.observe or NULL_OBSERVATORY
        if config.threads > 1:
            result = self._run_fleet(telemetry, observe)
        else:
            runner = self.build_runner()
            if config.journal:
                result = self._run_inline(runner, telemetry, observe)
            else:
                result = CampaignResult(
                    config=config, stats=runner.run(config.databases))
            if runner.guidance.enabled:
                result.plan_coverage = runner.guidance.coverage
        if result.plan_coverage is not None:
            observe.attach_coverage(result.plan_coverage)
            if config.plan_coverage:
                result.plan_coverage.dump(config.plan_coverage)
        if config.runner.plan_timing:
            # Built from the per-round outcome dicts — the same records
            # a journal carries, min-merged order-insensitively — so
            # live, resumed, and fleet campaigns produce byte-identical
            # archives.
            result.timing_archive = TimingArchive.from_outcomes(
                result.stats.plantime_outcomes)
            if config.timing_archive:
                result.timing_archive.dump(config.timing_archive)
        observe.mark_finished()
        self._triage_all(result)
        return result

    def _triage_all(self, result: CampaignResult) -> None:
        """Reduce, attribute, and triage every raw finding in round
        order, capping reports per defect."""
        reports_per_bug: dict[str, int] = {}
        seen_bugs: set[str] = set()
        telemetry = self.config.telemetry or NULL_TELEMETRY
        reduce_phase = telemetry.phase(metric_names.PHASE_REDUCE)
        for report in result.stats.reports:
            with reduce_phase:
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

    # -- round-queue execution (journaled or threaded) ----------------------
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
        if self.config.runner.plan_timing:
            # Timing journals carry plantime outcomes the resumed
            # archive is rebuilt from; an untimed continuation would
            # silently produce a partial archive.
            fingerprint["plan_timing"] = True
        return fingerprint

    @contextmanager
    def _round_queue(self, telemetry: Telemetry, observe):
        """The campaign's round queue, preloaded from the journal (when
        one is configured) and yielded with the open journal and the
        recovered state; the journal is closed on every exit path.

        Every round runs under :func:`~repro.campaigns.journal.round_seed`
        — an independent derivation from (campaign seed, round index) —
        so journal-loaded and freshly-run rounds compose into exactly
        the statistics an uninterrupted run would produce, under any
        thread count.
        """
        config = self.config
        queue = RoundQueue(range(config.databases), config.seed,
                           quarantine_threshold=config.quarantine_threshold)
        observe.attach_queue(queue)
        if not config.journal:
            yield queue, None, JournalState()
            return
        with CampaignJournal(config.journal) as journal:
            fingerprint = self._fingerprint()
            state = (journal.load_state(fingerprint)
                     if config.resume else JournalState())
            journal.start(fingerprint, fresh=state.empty)
            queue.preload(state.rounds, state.quarantined)
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
            yield queue, journal, state

    def _queue_result(self, queue: RoundQueue,
                      state: JournalState) -> CampaignResult:
        """Statistics folded from the settled queue in round-index order,
        so the outcome is independent of worker scheduling."""
        quarantined = queue.quarantined_in_order()
        stats = RunStatistics()
        for record in queue.records_in_order():
            stats.absorb_round(record)
        stats.quarantined_rounds = len(quarantined)
        return CampaignResult(config=self.config, stats=stats,
                              quarantined=quarantined,
                              recovery=state.recovery)

    def _run_inline(self, runner: PQSRunner, telemetry: Telemetry,
                    observe) -> CampaignResult:
        """A one-shard fleet: one executor drains the queue in this
        thread (no supervisor), with the fleet's quarantine and recovery
        semantics."""
        with self._round_queue(telemetry, observe) as (queue, journal,
                                                       state):
            if runner.guidance.enabled:
                # Guidance replays each journaled round so its seen-set,
                # pool, and scheduling stream match the original
                # process exactly (exact for prefix-complete journals;
                # a corruption gap re-runs only the lost round).
                for index in sorted(state.rounds):
                    record = state.rounds[index]
                    runner.guidance.restore_round(record.seed,
                                                  record.plans)
            RoundExecutor(0, runner, queue, self.config.seed,
                          journal=journal, telemetry=telemetry,
                          events=observe.events).run_loop()
        return self._queue_result(queue, state)

    def _run_fleet(self, telemetry: Telemetry, observe) -> CampaignResult:
        config = self.config
        chaos = config.chaos or NULL_CHAOS
        spawned: list[Telemetry] = []
        with self._round_queue(telemetry, observe) as (queue, journal,
                                                       state):
            def worker_factory(worker_id: int,
                               heartbeats: dict) -> RoundExecutor:
                child = None
                if telemetry.enabled:
                    # Private registry per worker; the shared tracer is
                    # lock-protected, so spans interleave but each line
                    # stays whole.
                    child = Telemetry(registry=MetricsRegistry(),
                                      tracer=telemetry.tracer)
                    spawned.append(child)
                runner = self.build_runner(
                    telemetry=child,
                    # Distinct guidance streams per incarnation.
                    seed=config.seed + 7919 * (worker_id + 1))
                return RoundExecutor(
                    worker_id, runner, queue, config.seed,
                    journal=journal, chaos=chaos, telemetry=child,
                    heartbeats=heartbeats, events=observe.events)

            supervisor = Supervisor(queue, config.threads, worker_factory,
                                    config=config.supervisor,
                                    telemetry=telemetry,
                                    events=observe.events)
            observe.attach_heartbeats(supervisor.heartbeats)
            observe.attach_supervision(supervisor.report)
            supervision = supervisor.run()
        if not queue.completed and supervision.failures:
            # Nothing survived; there is nothing to degrade to.
            raise supervision.failures[0].exception

        result = self._queue_result(queue, state)
        result.supervision = supervision
        result.worker_errors = [
            f"worker slot {failure.slot}: {failure.summary}\n"
            f"{failure.traceback}"
            for failure in supervision.failures]
        result.worker_snapshots = [t.registry.snapshot() for t in spawned]
        for snapshot in result.worker_snapshots:
            telemetry.registry.merge_snapshot(snapshot)

        # Rounds and plans attributed to logical slots.  completed_by
        # holds the completing incarnation's worker_id (None for
        # journal-preloaded rounds); worker_slots maps it home.
        rounds_per_slot = [0] * config.threads
        coverage = (PlanCoverage()
                    if config.guidance or config.plan_coverage else None)
        per_slot_coverage = [PlanCoverage() for _ in range(config.threads)]
        for record in queue.records_in_order():
            worker_id = queue.completed_by.get(record.index)
            slot = supervision.worker_slots.get(worker_id) \
                if worker_id is not None else None
            if slot is not None:
                rounds_per_slot[slot] += 1
            if coverage is None:
                continue
            # Index-order rebuild: the globally-earliest round holding
            # a fingerprint always recorded it (no worker saw it
            # before), so the merged set — including which example
            # query witnesses each plan — is schedule-independent.
            for fingerprint, example in record.plans:
                coverage.observe(fingerprint, example)
                if slot is not None:
                    per_slot_coverage[slot].observe(fingerprint, example)
        result.per_thread_rounds = rounds_per_slot
        if coverage is not None:
            result.plan_coverage = coverage
            result.per_thread_plans = [c.distinct
                                       for c in per_slot_coverage]
        return result

    # -- per-report processing ---------------------------------------------
    def _process(self, report: BugReport) -> Optional[BugReport]:
        """Reduce, shrink, and attribute one raw finding; None when it
        does not reproduce or no enabled defect explains it."""
        # Replay memos live for one finding, which keeps them bounded.
        self.replayer.forget()
        self.multiplan_replayer.forget()
        if report.oracle is Oracle.MULTIPLAN:
            still_fails, attribute = self._multiplan_replay(report)
        else:
            still_fails = self.replayer.manifests
            attribute = self.replayer.attribute
        if not still_fails(report.test_case):
            return None
        if self.config.reduce:
            reducer = TestCaseReducer(still_fails)
            try:
                report.test_case = reducer.reduce(report.test_case)
            except ReductionError:
                return None
            report.reduced = True
            # Expression-level shrinking of the final query (the paper's
            # authors "manually shortened them where possible", §4.1).
            from repro.core.shrink import QueryShrinker

            shrinker = QueryShrinker(still_fails,
                                     telemetry=self.config.telemetry)
            report.test_case = shrinker.shrink(report.test_case)
        report.attributed_bugs = attribute(report.test_case)
        if not report.attributed_bugs:
            return None
        if report.oracle is not Oracle.MULTIPLAN:
            # The reduced case is the reported artifact; re-derive which
            # oracle it now trips (reduction may have turned an error
            # case into a wrong-rows case, or vice versa).
            kind = self.replayer.difference_kind(report.test_case)
            report.oracle = _KIND_ORACLE.get(kind, report.oracle)
        # Order the primary attribution first so every consumer of
        # attributed_bugs[0] charges the same defect.
        primary = primary_attribution(report)
        report.attributed_bugs = [primary] + [
            b for b in report.attributed_bugs if b != primary]
        return report

    def _multiplan_replay(self, report: BugReport):
        """Failure predicate and attribution for a multi-plan finding.

        The predicate is *plan divergence under the hints that exposed
        the finding* (recovered from the report's ``plan_results``), not
        buggy-vs-clean disagreement: a multiplan defect is by
        construction invisible to single-plan replay, so minimization
        must preserve the forced executions and the cross-plan check."""
        hints_list = [PlannerHints.from_dict(entry.get("hints", {}))
                      for entry in (report.plan_results or [])]
        if not hints_list:
            # A journal predating plan_results: retry with the two
            # cheapest universally-feasible plans.
            hints_list = [BASELINE, PlannerHints(force_full_scan=True)]
        replayer = self.multiplan_replayer

        def still_diverges(test_case) -> bool:
            return replayer.diverges(test_case, hints_list)

        def attribute(test_case) -> list[str]:
            return replayer.attribute(test_case, hints_list)

        return still_diverges, attribute

    def _triage(self, bug_id: str, seen: set[str]) -> str:
        if bug_id in seen:
            return "duplicate"
        return BUG_CATALOG[bug_id].triage
