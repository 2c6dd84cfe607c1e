"""The ``pqs`` command-line interface.

Subcommands:

* ``pqs hunt``   — run a bug-hunting campaign against defect-injected
  MiniDB (the offline analogue of the paper's evaluation runs);
* ``pqs sqlite`` — run the PQS loop against the real SQLite build
  shipped with Python;
* ``pqs bugs``   — list the injected-defect catalog and the paper bugs
  each entry models;
* ``pqs report`` — offline triage analytics over a hunt's artifacts
  (journal + metrics snapshot → campaign digest);
* ``pqs shell``  — a minimal interactive MiniDB shell, handy for
  replaying reduced test cases by hand.
"""

from __future__ import annotations

import argparse
import sys

from repro.campaigns.campaign import Campaign, CampaignConfig
from repro.core.runner import PQSRunner, RunnerConfig
from repro.errors import DBCrash, DBError, PQSError
from repro.minidb.bugs import BUG_CATALOG, bugs_for_dialect


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    return args.handler(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqs",
        description="Pivoted Query Synthesis — find logic bugs in "
                    "database engines (OSDI 2020 reproduction)")
    sub = parser.add_subparsers(dest="command")

    hunt = sub.add_parser("hunt", help="campaign against MiniDB with "
                                       "injected defects")
    hunt.add_argument("--dialect", default="sqlite",
                      choices=["sqlite", "mysql", "postgres"])
    hunt.add_argument("--databases", type=int, default=100)
    hunt.add_argument("--seed", type=int, default=0)
    hunt.add_argument("--bugs", default=None,
                      help="comma-separated defect ids (default: all "
                           "for the dialect)")
    hunt.add_argument("--no-reduce", action="store_true",
                      help="skip delta-debugging reduction")
    hunt.add_argument("--threads", type=int, default=1,
                      help="round streams, each of --databases rounds "
                           "(default: 1); more than 1 runs every round "
                           "in one loop in this process under "
                           "campaign-global round seeds, like --journal; "
                           "no extra threads are started")
    hunt.add_argument("--journal", default=None, metavar="PATH",
                      help="write per-database results to a JSONL "
                           "journal as the hunt runs")
    hunt.add_argument("--resume", action="store_true",
                      help="continue an interrupted hunt from --journal")
    hunt.add_argument("--metrics", default=None, metavar="PATH",
                      help="write a JSON metrics snapshot (counters, "
                           "per-phase latency histograms, derived "
                           "throughput) when the hunt finishes; "
                           "PATH ending in .prom writes Prometheus "
                           "text format instead")
    hunt.add_argument("--trace", default=None, metavar="PATH",
                      help="write JSONL span trace events (one per "
                           "timed phase) as the hunt runs")
    hunt.add_argument("--guidance", action="store_true",
                      help="query-plan-guided generation: fingerprint "
                           "each query's plan and bias state generation "
                           "toward states that produced novel plans")
    hunt.add_argument("--multiplan", action="store_true",
                      help="cross-check every query across distinct "
                           "forced execution plans (full scan, forced "
                           "indexes, pre/post-ANALYZE) and report plans "
                           "that disagree on the row multiset")
    hunt.add_argument("--plan-coverage", default=None, metavar="PATH",
                      help="write the distinct-plan coverage set (JSON) "
                           "when the hunt finishes; without --guidance "
                           "plans are observed passively")
    hunt.add_argument("--progress", type=float, default=0.0,
                      metavar="SECS",
                      help="print a live progress line (rounds, "
                           "reports, queries/s, ETA) to stderr every "
                           "SECS seconds")
    hunt.add_argument("--serve", default=None, metavar="[HOST:]PORT",
                      help="serve a live status dashboard over HTTP "
                           "while the hunt runs: / (HTML), /status, "
                           "/metrics (Prometheus), /bugs, /coverage; "
                           "binds 127.0.0.1 unless HOST is "
                           "given, port 0 picks a free port")
    hunt.set_defaults(handler=cmd_hunt)

    report = sub.add_parser(
        "report", help="offline triage analytics: digest a hunt's "
                       "journal (+ optional metrics snapshot) into a "
                       "campaign report")
    report.add_argument("journal", help="campaign journal (JSONL)")
    report.add_argument("--metrics", default=None, metavar="PATH",
                        help="JSON metrics snapshot from hunt --metrics")
    report.add_argument("--json", action="store_true",
                        help="print the full report as JSON instead of "
                             "text")
    report.add_argument("--reduce", action="store_true",
                        help="delta-debug each finding's test case "
                             "before fingerprinting (slower, tighter "
                             "dedup)")
    report.set_defaults(handler=cmd_report)

    sqlite_cmd = sub.add_parser("sqlite", help="PQS against the real "
                                               "SQLite build")
    sqlite_cmd.add_argument("--databases", type=int, default=25)
    sqlite_cmd.add_argument("--seed", type=int, default=0)
    sqlite_cmd.add_argument("--isolate", action="store_true",
                            help="run SQLite in a crash-isolated child "
                                 "process (the paper's process moat)")
    sqlite_cmd.add_argument("--timeout", type=float, default=10.0,
                            metavar="SECONDS",
                            help="per-statement watchdog deadline with "
                                 "--isolate (default: 10)")
    sqlite_cmd.add_argument("--multiplan", action="store_true",
                            help="cross-check every query across "
                                 "distinct forced plans (INDEXED BY / "
                                 "NOT INDEXED / ANALYZE rewrites)")
    sqlite_cmd.set_defaults(handler=cmd_sqlite)

    bugs = sub.add_parser("bugs", help="list the injected-defect catalog")
    bugs.add_argument("--dialect", default=None,
                      choices=["sqlite", "mysql", "postgres"])
    bugs.set_defaults(handler=cmd_bugs)

    replay = sub.add_parser(
        "replay", help="replay a ;-separated SQL test case against "
                       "clean and defect-injected engines")
    replay.add_argument("path", help="file of SQL statements (the last "
                                     "one is the checked statement)")
    replay.add_argument("--dialect", default="sqlite",
                        choices=["sqlite", "mysql", "postgres"])
    replay.add_argument("--bugs", default=None,
                        help="comma-separated defect ids to enable "
                             "(default: all for the dialect)")
    replay.set_defaults(handler=cmd_replay)

    paper = sub.add_parser("paper", help="print the paper-artifact "
                                         "index (what reproduces what)")
    paper.set_defaults(handler=cmd_paper)

    shell = sub.add_parser("shell", help="interactive MiniDB shell")
    shell.add_argument("--dialect", default="sqlite",
                       choices=["sqlite", "mysql", "postgres"])
    shell.add_argument("--enable-bug", action="append", default=[],
                       help="defect id to inject (repeatable)")
    shell.set_defaults(handler=cmd_shell)
    return parser


def cmd_hunt(args) -> int:
    bug_ids = args.bugs.split(",") if args.bugs else None
    if args.resume and not args.journal:
        print("--resume requires --journal")
        return 2
    threads = max(args.threads, 1)
    # --databases counts per thread.
    total_rounds = args.databases * threads
    telemetry, sink = _build_telemetry(args)
    observatory, server = _build_observatory(args, telemetry)
    reporter = None
    if args.progress > 0:
        from repro.telemetry import ProgressReporter

        reporter = ProgressReporter(telemetry.registry, total_rounds,
                                    interval=args.progress).start()
    try:
        config = CampaignConfig(
            dialect=args.dialect, seed=args.seed,
            databases=total_rounds, threads=threads,
            bug_ids=bug_ids, reduce=not args.no_reduce,
            journal=args.journal, resume=args.resume,
            telemetry=telemetry,
            observe=observatory if observatory.enabled else None,
            guidance=args.guidance, plan_coverage=args.plan_coverage,
            runner=RunnerConfig(multiplan=args.multiplan))
        result = Campaign(config).run()
    except PQSError as error:
        print(f"error: {error}")
        return 2
    finally:
        if reporter is not None:
            reporter.stop()
        if server is not None:
            server.stop()
        if sink is not None:
            sink.close()
    _write_metrics(args, telemetry, result.stats)
    _print_hunt_stats(result.stats, telemetry,
                      coverage=result.plan_coverage,
                      recovery=result.recovery)
    for report in result.reports:
        print(f"\n[{report.oracle.value}] {report.message} "
              f"(triage: {report.triage})")
        print(f"  defect: {', '.join(report.attributed_bugs)}")
        for statement in report.test_case.statements:
            print(f"    {statement};")
    print(f"\ndetected {len(result.detected_bug_ids)} distinct "
          f"defect(s) in {len(result.reports)} report(s)")
    return 0


def _build_telemetry(args):
    """A Telemetry bundle for the hunt; null unless a flag asks for it.

    Returns ``(telemetry, sink)`` — the sink (when ``--trace`` is set)
    must be closed by the caller once the hunt ends.
    """
    from repro.telemetry import (
        NULL_TELEMETRY,
        JsonlSink,
        MetricsRegistry,
        NullTracer,
        Telemetry,
        Tracer,
    )

    wants = (getattr(args, "metrics", None)
             or getattr(args, "trace", None)
             or getattr(args, "progress", 0) > 0
             # --serve exposes /metrics, so serving implies counting.
             or getattr(args, "serve", None))
    if not wants:
        return NULL_TELEMETRY, None
    sink = None
    tracer = NullTracer()
    if getattr(args, "trace", None):
        sink = JsonlSink(args.trace)
        tracer = Tracer(sink)
    return Telemetry(registry=MetricsRegistry(), tracer=tracer), sink


def _build_observatory(args, telemetry):
    """An Observatory and its started StatusServer when ``--serve``
    asks for one; the null observatory and None otherwise.

    The server is already listening — its URL goes to *stderr* so
    stdout stays parseable.
    """
    from repro.observe import NULL_OBSERVATORY

    if not getattr(args, "serve", None):
        return NULL_OBSERVATORY, None
    from repro.observe import (
        Observatory,
        StatusServer,
        campaign_id,
        parse_address,
    )

    observatory = Observatory(
        campaign=campaign_id(args.dialect, args.seed),
        dialect=args.dialect, seed=args.seed,
        total_rounds=args.databases * max(args.threads, 1),
        registry=(telemetry.registry if telemetry.registry.enabled
                  else None))
    host, port = parse_address(args.serve)
    server = StatusServer(observatory, host, port).start()
    print(f"[pqs] status server listening on {server.url}",
          file=sys.stderr)
    return observatory, server


def cmd_report(args) -> int:
    import json

    from repro.observe import build_report, render_report

    reduce_fn = _report_reducer(args) if args.reduce else None
    try:
        report = build_report(args.journal, metrics_path=args.metrics,
                              reduce_fn=reduce_fn)
    except PQSError as error:
        print(f"error: {error}")
        return 2
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_report(report))
    return 0


def _report_reducer(args):
    """A BugReport→BugReport reducer for ``pqs report --reduce``: the
    campaign's own :func:`~repro.campaigns.triage.triage_finding`,
    built from the journal header's dialect and defect set.

    Each distinct raw finding is triaged once: sightings that differ
    only in ``seed`` and ``message``, which triage never reads, share
    that one result."""
    import json
    from dataclasses import replace

    from repro.campaigns.journal import CampaignJournal
    from repro.campaigns.triage import triage_finding
    from repro.errors import ReductionError

    header = CampaignJournal(args.journal).read_header()
    dialect = header.get("dialect", "sqlite")
    bug_ids = tuple(sorted(header.get("bug_ids") or [
        b.bug_id for b in bugs_for_dialect(dialect)]))
    # triage key -> the reduced report, or None when it did not reduce.
    triaged: dict = {}

    def reduce_report(raw):
        key = raw.to_json()
        del key["seed"], key["message"]
        key = json.dumps(key, sort_keys=True)
        if key not in triaged:
            # triage_finding builds fresh replayers, so each distinct
            # finding gets the whole replay budget.
            report = replace(raw)
            triage_finding(dialect, bug_ids, True, report)
            triaged[key] = report if report.reduced else None
        reduced = triaged[key]
        if reduced is None:
            # build_report keeps the raw finding and counts it as
            # unreduced.
            raise ReductionError("the finding does not reproduce")
        return replace(reduced, seed=raw.seed, message=raw.message)

    return reduce_report


def _write_metrics(args, telemetry, stats) -> None:
    if not getattr(args, "metrics", None) \
            or not telemetry.registry.enabled:
        return
    import json

    path = args.metrics
    if path.endswith(".prom"):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(telemetry.registry.to_prometheus())
        return
    document = {
        "snapshot": telemetry.registry.snapshot(),
        "derived": {
            "seconds": stats.seconds,
            "queries_per_second": stats.queries_per_second,
            "statements_per_second": stats.statements_per_second,
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _print_hunt_stats(stats, telemetry=None, coverage=None,
                      recovery=None) -> None:
    print(f"statements={stats.statements} "
          f"queries={stats.queries} "
          f"expected-errors={stats.expected_errors} "
          f"timeouts={stats.timeouts}")
    _print_multiplan_stats(stats)
    if recovery is not None and not recovery.clean:
        print(f"journal recovery: {recovery.corrupt_lines} corrupt "
              f"line(s) skipped, {recovery.duplicate_rounds} duplicate "
              f"round(s) deduplicated")
    if coverage is not None:
        novel_rounds = 0
        if telemetry is not None and telemetry.registry.enabled:
            from repro.telemetry import names as metric_names

            novel_rounds = telemetry.counter(
                metric_names.GUIDANCE_NOVEL_ROUNDS).value
        line = f"plan coverage: {coverage.distinct} distinct plan(s)"
        if novel_rounds:
            line += f", {novel_rounds} round(s) with novelty"
        print(line)
    executions = stats.statements + stats.queries
    if stats.seconds > 0 and executions:
        print(f"throughput: {stats.queries_per_second:,.1f} queries/s, "
              f"{stats.statements_per_second:,.1f} statements/s "
              f"over {stats.seconds:.2f}s of hunting")
        timeout_rate = 100.0 * stats.timeouts / executions
        expected_rate = 100.0 * stats.expected_errors / executions
        print(f"rates: {expected_rate:.1f}% expected errors, "
              f"{timeout_rate:.2f}% timeouts")
    if telemetry is not None and telemetry.registry.enabled:
        from repro.telemetry import names as metric_names

        phases = [
            (i.labels.get("phase"), i)
            for i in telemetry.registry.instruments()
            if i.name == metric_names.PHASE_SECONDS and i.count]
        for phase, histogram in sorted(phases):
            print(f"  phase {phase}: n={histogram.count} "
                  f"mean={histogram.mean * 1e3:.2f}ms "
                  f"p95={histogram.percentile(95) * 1e3:.2f}ms")


def _print_multiplan_stats(stats) -> None:
    if stats.multiplan_queries or stats.multiplan_forced_failures:
        print(f"multiplan: {stats.multiplan_queries} queries "
              f"cross-checked over {stats.multiplan_plans} plan "
              f"executions, {stats.multiplan_divergences} "
              f"divergence(s), {stats.multiplan_forced_failures} "
              f"forced-plan failure(s)")


def cmd_sqlite(args) -> int:
    from repro.adapters.sqlite3_adapter import SQLite3Connection
    from repro.core.error_oracle import SQLITE3_DOCUMENTED_QUIRKS

    factory = SQLite3Connection
    if args.isolate:
        from repro.adapters.subprocess_adapter import SubprocessConnection

        def factory() -> SubprocessConnection:
            # Positional: wrappers of the class forward it by position.
            return SubprocessConnection(SQLite3Connection, args.timeout)

    runner = PQSRunner(factory,
                       RunnerConfig(dialect="sqlite", seed=args.seed,
                                    multiplan=args.multiplan,
                                    documented_quirks=SQLITE3_DOCUMENTED_QUIRKS))
    stats = runner.run(args.databases)
    print(f"databases={stats.databases} statements={stats.statements} "
          f"queries={stats.queries} timeouts={stats.timeouts} "
          f"findings={len(stats.reports)}")
    _print_multiplan_stats(stats)
    for report in stats.reports:
        print(f"\n[{report.oracle.value}] {report.message}")
        print(report.test_case.render())
    if not stats.reports:
        print("no findings — the production engine passed.")
    return 0 if not stats.reports else 1


def cmd_bugs(args) -> int:
    bugs = (bugs_for_dialect(args.dialect) if args.dialect
            else list(BUG_CATALOG.values()))
    for bug in bugs:
        print(f"{bug.bug_id}")
        print(f"    dialect: {bug.dialect}  oracle: {bug.oracle}  "
              f"component: {bug.component}  triage: {bug.triage}")
        print(f"    models: {bug.paper_ref}")
        print(f"    {bug.description}")
    print(f"\n{len(bugs)} defect(s)")
    return 0


def cmd_paper(_args) -> int:
    from repro.paper import format_index

    print(format_index())
    return 0


def cmd_replay(args) -> int:
    from repro.campaigns.replay import DifferentialReplayer
    from repro.core.reports import TestCase
    from repro.minidb.bugs import BugRegistry, bugs_for_dialect

    with open(args.path) as handle:
        text = handle.read()
    statements = [s.strip() for s in text.split(";") if s.strip()]
    if not statements:
        print("no statements in file")
        return 2
    case = TestCase(statements=statements, dialect=args.dialect)
    bug_ids = (args.bugs.split(",") if args.bugs
               else [b.bug_id for b in bugs_for_dialect(args.dialect)])
    replayer = DifferentialReplayer(args.dialect,
                                    BugRegistry(set(bug_ids)))
    manifests = replayer.manifests(case)
    print(f"statements: {len(statements)}")
    print(f"manifests (buggy vs clean engines disagree): {manifests}")
    if manifests:
        attributed = replayer.attribute(case)
        print("attributed defects:")
        for bug_id in attributed:
            print(f"    {bug_id}: {BUG_CATALOG[bug_id].paper_ref}")
        return 1
    return 0


def cmd_shell(args) -> int:
    from repro.minidb.bugs import BugRegistry
    from repro.minidb.engine import Engine

    engine = Engine(args.dialect,
                    bugs=BugRegistry(set(args.enable_bug)))
    print(f"MiniDB shell ({args.dialect}); end statements with Enter, "
          "Ctrl-D to exit")
    while True:
        try:
            line = input("minidb> ").strip()
        except EOFError:
            print()
            return 0
        if not line:
            continue
        if line.lower() in ("quit", "exit", ".q"):
            return 0
        try:
            result = engine.execute(line.rstrip(";"))
        except DBCrash as crash:
            print(f"CRASH: {crash.message} (engine process gone; "
                  "restarting)")
            engine = Engine(args.dialect,
                            bugs=BugRegistry(set(args.enable_bug)))
            continue
        except DBError as error:
            print(f"error: {error.message}")
            continue
        if result.columns:
            print("  " + " | ".join(result.columns))
        for row in result.python_rows():
            print("  " + " | ".join(repr(v) for v in row))


if __name__ == "__main__":
    sys.exit(main())
