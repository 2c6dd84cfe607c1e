"""Canonical metric and span names.

One vocabulary, used by the instrumentation sites (runner, subprocess
harness, campaigns), the progress reporter, the CLI snapshot writer,
and the benchmarks — so a dashboard built against one hunt works
against every hunt.  Naming follows the Prometheus conventions:
``_total`` for counters, ``_seconds`` for latency histograms.
"""

# -- PQS loop (repro.core.runner) -------------------------------------------
#: Completed database rounds (counter).
ROUNDS = "pqs_rounds_completed_total"
#: Statements sent during state generation (counter).
STATEMENTS = "pqs_statements_total"
#: Synthesized queries checked (counter).
QUERIES = "pqs_queries_total"
#: Pivot rows selected (counter).
PIVOTS = "pqs_pivots_total"
#: Errors the error oracle classified as expected (counter,
#: label ``kind`` = leading statement keyword).
EXPECTED_ERRORS = "pqs_expected_errors_total"
#: Watchdog expirations (counter).
TIMEOUTS = "pqs_timeouts_total"
#: Query syntheses abandoned because the oracle could not evaluate the
#: generated expression on the pivot row (counter).
SYNTHESIS_FAILURES = "pqs_synthesis_failures_total"
#: Findings (counter, label ``oracle`` in contains/error/segfault).
REPORTS = "pqs_reports_total"
#: Per-phase latency (histogram, label ``phase`` — see PHASES).
PHASE_SECONDS = "pqs_phase_seconds"
#: Whole-round wall clock (histogram).
ROUND_SECONDS = "pqs_round_seconds"

#: The five instrumented phases of one PQS round: connection setup
#: (the factory call; an isolated worker's start or re-target), then
#: paper Figure 1's random state generation (step 1), pivot selection
#: (step 2, including the relation probe), query synthesis incl.
#: rectification (steps 3–5), and the containment check (steps 6–7).
PHASE_CONNECT = "connect"
PHASE_STATEGEN = "stategen"
PHASE_PIVOT = "pivot_select"
PHASE_SYNTH = "synthesize"
PHASE_CONTAIN = "containment"
ROUND_PHASES = (PHASE_CONNECT, PHASE_STATEGEN, PHASE_PIVOT, PHASE_SYNTH,
                PHASE_CONTAIN)
#: Triage of one raw finding after the hunt (reduce, shrink, attribute;
#: paper §4.1) — outside every round.
PHASE_REDUCE = "reduce"
#: Every phase, in report order: the round phases, then triage.
PHASES = ROUND_PHASES + (PHASE_REDUCE,)

# -- triage (repro.campaigns.campaign, repro.core.shrink) -------------------
#: Findings whose final query the shrinker left as it was (counter,
#: label ``reason``; ``unparseable``: MiniDB cannot parse it).
REDUCE_UNSHRUNK = "pqs_reduce_unshrunk_total"
#: Times the triage process pool was given up and the remaining
#: findings were triaged in the campaign's own process (counter, label
#: ``reason``: ``worker_died`` — a worker exited mid-task, so the pool
#: broke; ``start_failed`` — the workers could not be started).
TRIAGE_WORKER_FAILURES = "pqs_triage_worker_failures_total"

# -- plan-coverage guidance (repro.guidance) --------------------------------
#: Distinct plan fingerprints seen so far (gauge).
GUIDANCE_PLANS_DISTINCT = "pqs_guidance_plans_distinct"
#: Rounds that produced at least one novel plan (counter).
GUIDANCE_NOVEL_ROUNDS = "pqs_guidance_novel_rounds_total"
#: Successful query_plan introspections (counter).
GUIDANCE_PLAN_LOOKUPS = "pqs_guidance_plan_lookups_total"

# -- multi-plan differential oracle (repro.multiplan) -----------------------
#: Queries the multi-plan oracle cross-checked (counter).
MULTIPLAN_QUERIES = "pqs_multiplan_queries_total"
#: Distinct feasible plans executed per query (histogram; unit is plans,
#: so it uses count-shaped buckets).
MULTIPLAN_PLANS_PER_QUERY = "pqs_multiplan_plans_per_query"
#: Queries where two plans returned different row multisets (counter).
MULTIPLAN_DIVERGENCES = "pqs_multiplan_divergences_total"
#: Forced-plan executions the target rejected (counter).
MULTIPLAN_FORCED_FAILURES = "pqs_multiplan_forced_failures_total"

# -- journal durability (repro.campaigns.journal) ----------------------------
#: Corrupt (checksum-mismatched or unparseable) journal lines skipped on
#: load (counter); a torn final line counts here too.
JOURNAL_CORRUPT_LINES = "pqs_journal_corrupt_lines_total"
#: Duplicate round indexes deduplicated on journal load (counter).
JOURNAL_DUPLICATE_ROUNDS = "pqs_journal_duplicate_rounds_total"
#: Rounds recovered (loaded and skipped) from a journal on resume
#: (counter).
JOURNAL_RECOVERED_ROUNDS = "pqs_journal_recovered_rounds_total"

# -- fault-isolation harness (repro.adapters.subprocess_adapter) ------------
#: Worker restarts after a crash or timeout (counter).
WORKER_RESTARTS = "pqs_worker_restarts_total"
#: Hung workers killed by the statement watchdog (counter).
WATCHDOG_KILLS = "pqs_watchdog_kills_total"
#: Statements replayed per state restoration (histogram; unit is
#: statements, not seconds, so it uses count-shaped buckets).
REPLAY_STATEMENTS = "pqs_replay_statements"
#: Parent-observed execute() round-trip latency (histogram).
ROUNDTRIP_SECONDS = "pqs_subprocess_roundtrip_seconds"
#: Bytes written to worker pipes, frame headers included (counter).
PIPE_BYTES_SENT = "pqs_pipe_bytes_sent_total"
#: Bytes read from worker pipes, frame headers included (counter).
PIPE_BYTES_RECEIVED = "pqs_pipe_bytes_received_total"

#: Bucket layout for count-valued histograms (replay lengths).
COUNT_BUCKETS = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000)

#: ``# HELP`` text per metric family, emitted by
#: :meth:`~repro.telemetry.registry.MetricsRegistry.to_prometheus` —
#: the exposition-format conformance audit showed scrapes without HELP
#: lines render as bare names in every Prometheus UI.
HELP = {
    ROUNDS: "Completed database rounds",
    STATEMENTS: "Statements sent during state generation",
    QUERIES: "Synthesized queries checked by the containment oracle",
    PIVOTS: "Pivot rows selected",
    EXPECTED_ERRORS: "Errors the error oracle classified as expected",
    TIMEOUTS: "Watchdog expirations",
    SYNTHESIS_FAILURES:
        "Query syntheses abandoned on an oracle evaluation error",
    REPORTS: "Findings, labeled by detecting oracle",
    PHASE_SECONDS: "Per-phase latency of the PQS loop",
    ROUND_SECONDS: "Whole-round wall clock",
    REDUCE_UNSHRUNK: "Findings whose final query was left unshrunk",
    TRIAGE_WORKER_FAILURES:
        "Triage process pools given up for in-process triage",
    GUIDANCE_PLANS_DISTINCT: "Distinct plan fingerprints seen so far",
    GUIDANCE_NOVEL_ROUNDS: "Rounds that produced at least one novel plan",
    GUIDANCE_PLAN_LOOKUPS: "Successful query_plan introspections",
    MULTIPLAN_QUERIES: "Queries cross-checked by the multi-plan oracle",
    MULTIPLAN_PLANS_PER_QUERY: "Distinct feasible plans executed per query",
    MULTIPLAN_DIVERGENCES:
        "Queries where two plans returned different row multisets",
    MULTIPLAN_FORCED_FAILURES:
        "Forced-plan executions the target rejected",
    JOURNAL_CORRUPT_LINES: "Corrupt journal lines skipped on load",
    JOURNAL_DUPLICATE_ROUNDS:
        "Duplicate round indexes deduplicated on journal load",
    JOURNAL_RECOVERED_ROUNDS: "Rounds recovered from a journal on resume",
    WORKER_RESTARTS: "Subprocess worker restarts after a crash or timeout",
    WATCHDOG_KILLS: "Hung subprocess workers killed by the watchdog",
    REPLAY_STATEMENTS: "Statements replayed per state restoration",
    ROUNDTRIP_SECONDS: "Parent-observed execute() round-trip latency",
    PIPE_BYTES_SENT: "Bytes written to worker pipes",
    PIPE_BYTES_RECEIVED: "Bytes read from worker pipes",
}
