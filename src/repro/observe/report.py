"""Campaign triage analytics: digest the artifacts into one report.

``pqs report`` joins two artifacts a hunt leaves behind — the
checksummed journal (authoritative results) and the metrics snapshot
(distributions) — into a single campaign digest:

* **bugs**, deduplicated by reduced-testcase content fingerprint
  (:meth:`~repro.core.reports.BugReport.fingerprint` — the same defect
  rediscovered by ten rounds is one line with ten sightings), grouped
  by detecting oracle and, for error-oracle findings, by the erroring
  statement's kind;
* a **phase-latency table** from the metrics snapshot's
  ``pqs_phase_seconds`` histograms;
* **plan-coverage growth** — distinct fingerprints after each round,
  reconstructed from the journal's per-round novelty lists.

Everything is computed offline from files: the journal is loaded
fingerprint-free (:meth:`~repro.campaigns.journal.CampaignJournal
.load_any`), so a report can be cut for any journal without knowing how
the campaign was configured.  :func:`append_history` adds one summary
line per report to ``results/history.jsonl`` — the long-memory file
that lets hunt N be compared against hunts 1..N-1.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.campaigns.journal import CampaignJournal
from repro.core.reports import RunStatistics
from repro.errors import ReductionError
from repro.telemetry import names as metric_names
from repro.telemetry.registry import MetricsRegistry


def campaign_id(dialect: str, seed: int) -> str:
    """The canonical campaign id (``<dialect>-s<seed>``): seeded and
    human-readable."""
    return f"{dialect}-s{seed}"


def statement_kind(sql: str) -> str:
    """The leading keyword of a statement — the error-grouping axis."""
    stripped = sql.strip()
    return stripped.split(None, 1)[0].upper() if stripped else "?"


def build_report(journal_path: str,
                 metrics_path: Optional[str] = None,
                 reduce_fn=None) -> dict:
    """The full campaign digest, as a JSON-safe dict.

    ``reduce_fn`` (BugReport → BugReport), when given, reduces each
    finding before fingerprinting — two raw findings that reduce to the
    same statements then collapse into one bug.  A finding it rejects
    with :class:`~repro.errors.ReductionError` keeps its raw statements
    and is counted under ``report["reduction"]``.
    """
    header, state = CampaignJournal(journal_path).load_any()
    dialect = header.get("dialect", "?")
    seed = header.get("seed", 0)
    report: dict = {
        "campaign": campaign_id(dialect, seed),
        "dialect": dialect,
        "seed": seed,
        "journal": journal_path,
    }
    records = [state.rounds[i] for i in sorted(state.rounds)]
    report["rounds"] = {
        "configured": header.get("databases", 0),
        "completed": len(records),
        "corrupt_journal_lines": state.recovery.corrupt_lines,
        "duplicate_journal_rounds": state.recovery.duplicate_rounds,
    }
    report["totals"] = _totals(records)
    report["bugs"], unreduced = _dedupe_bugs(records, reduce_fn)
    if reduce_fn is not None:
        report["reduction"] = {
            "reduced": report["totals"]["raw_findings"] - unreduced,
            "unreduced": unreduced}
    report["by_oracle"] = _count_by(report["bugs"], "oracle")
    report["by_error_kind"] = _count_by(
        [b for b in report["bugs"] if b["oracle"] == "error"],
        "statement_kind")
    report["coverage_growth"] = _coverage_growth(records)
    multiplan = _multiplan_section(records)
    if multiplan:
        report["multiplan"] = multiplan
    if metrics_path and os.path.exists(metrics_path):
        report["phases"] = _phase_table(metrics_path)
    return report


def _totals(records) -> dict:
    stats = RunStatistics()
    for record in records:
        stats.absorb_round(record)
    return {"statements": stats.statements, "queries": stats.queries,
            "pivots": stats.pivots,
            "expected_errors": stats.expected_errors,
            "timeouts": stats.timeouts,
            "seconds": round(stats.seconds, 3),
            "raw_findings": len(stats.reports)}


def _dedupe_bugs(records, reduce_fn=None) -> tuple[list[dict], int]:
    """Distinct findings by content fingerprint, first sighting first,
    and how many findings *reduce_fn* left unreduced."""
    bugs: dict[str, dict] = {}
    unreduced = 0
    for record in records:
        for raw in record.reports:
            report = raw
            if reduce_fn is not None:
                try:
                    report = reduce_fn(raw)
                except ReductionError:
                    unreduced += 1
            key = report.fingerprint()
            entry = bugs.get(key)
            if entry is None:
                final = report.test_case.statements[-1] \
                    if report.test_case.statements else ""
                bugs[key] = {
                    "fingerprint": key,
                    "oracle": report.oracle.value,
                    "statement_kind": statement_kind(final),
                    "loc": report.test_case.loc,
                    "message": report.message,
                    "first_round": record.index,
                    "first_seed": report.seed,
                    "sightings": 1,
                    "rounds": [record.index],
                }
            else:
                entry["sightings"] += 1
                if record.index not in entry["rounds"]:
                    entry["rounds"].append(record.index)
    ordered = sorted(bugs.values(),
                     key=lambda b: (b["first_round"], b["fingerprint"]))
    return ordered, unreduced


def _count_by(entries, field: str) -> dict:
    counts: dict[str, int] = {}
    for entry in entries:
        counts[entry[field]] = counts.get(entry[field], 0) + 1
    return dict(sorted(counts.items()))


def _coverage_growth(records, points: int = 10) -> list[dict]:
    """Distinct plan fingerprints after each round, decimated to at
    most *points* samples (plus the final total)."""
    seen: set[str] = set()
    growth: list[tuple[int, int]] = []
    for record in records:
        for fingerprint, _example in record.plans:
            seen.add(fingerprint)
        growth.append((record.index, len(seen)))
    if not growth or not seen:
        return []
    stride = max(len(growth) // points, 1)
    sampled = growth[::stride]
    if sampled[-1] != growth[-1]:
        sampled.append(growth[-1])
    return [{"round": index, "distinct_plans": count}
            for index, count in sampled]


def _multiplan_section(records) -> Optional[dict]:
    """Multi-plan triage: findings grouped by the diverging
    plan-fingerprint pair (deviant plan vs. a plan that agreed with the
    arbiter), plus the plans-per-query distribution accumulated from
    the journal's per-round multiplan outcomes."""
    pairs: dict[str, int] = {}
    findings = 0
    plans: dict[str, int] = {}
    for record in records:
        outcome = getattr(record, "multiplan", {}) or {}
        for count, n in (outcome.get("plans") or {}).items():
            plans[str(count)] = plans.get(str(count), 0) + int(n)
        for report in record.reports:
            if report.oracle.value != "multiplan":
                continue
            findings += 1
            results = report.plan_results or []
            deviant = sorted({entry.get("fingerprint", "?")
                              for entry in results
                              if entry.get("deviant")})
            agreed = sorted({entry.get("fingerprint", "?")
                             for entry in results
                             if not entry.get("deviant")})
            for bad in (deviant or ["?"]):
                for good in (agreed or ["?"]):
                    key = f"{bad}<->{good}"
                    pairs[key] = pairs.get(key, 0) + 1
    if not findings and not plans:
        return None
    return {
        "findings": findings,
        "by_plan_pair": dict(sorted(pairs.items(),
                                    key=lambda kv: (-kv[1], kv[0]))),
        "plans_per_query": {key: plans[key]
                            for key in sorted(plans, key=int)},
    }


def _phase_table(metrics_path: str) -> list[dict]:
    with open(metrics_path, encoding="utf-8") as handle:
        snapshot = json.load(handle)
    # ``hunt --metrics`` wraps the registry dump in a document with a
    # ``snapshot`` key; accept both shapes.
    if isinstance(snapshot.get("snapshot"), dict):
        snapshot = snapshot["snapshot"]
    registry = MetricsRegistry.from_snapshot(snapshot)
    table = []
    for instrument in registry.instruments():
        if instrument.name != metric_names.PHASE_SECONDS \
                or instrument.kind != "histogram":
            continue
        if instrument.count == 0:
            continue
        table.append({
            "phase": instrument.labels.get("phase", "?"),
            "count": instrument.count,
            "mean_ms": round(instrument.mean * 1000, 3),
            "p50_ms": round(instrument.percentile(50) * 1000, 3),
            "p99_ms": round(instrument.percentile(99) * 1000, 3),
        })
    order = {phase: i for i, phase in enumerate(metric_names.PHASES)}
    table.sort(key=lambda row: order.get(row["phase"], 99))
    return table


# -- rendering ---------------------------------------------------------------
def render_report(report: dict) -> str:
    """Human-readable text rendering of :func:`build_report`."""
    lines = [f"campaign {report['campaign']} "
             f"(dialect={report['dialect']}, seed={report['seed']})"]
    rounds = report["rounds"]
    lines.append(
        f"rounds: {rounds['completed']}/{rounds['configured']} completed")
    if rounds["corrupt_journal_lines"] or rounds["duplicate_journal_rounds"]:
        lines.append(
            f"journal recovery: {rounds['corrupt_journal_lines']} corrupt"
            f" line(s), {rounds['duplicate_journal_rounds']} duplicate(s)")
    totals = report["totals"]
    lines.append(
        f"totals: {totals['statements']} stmts, {totals['queries']} "
        f"queries, {totals['raw_findings']} raw finding(s) in "
        f"{totals['seconds']}s busy time")
    lines.append("")
    bugs = report["bugs"]
    lines.append(f"distinct bugs: {len(bugs)}"
                 + (f"  (by oracle: {_fmt_counts(report['by_oracle'])})"
                    if bugs else ""))
    for bug in bugs:
        lines.append(
            f"  {bug['fingerprint']}  {bug['oracle']:<9} "
            f"{bug['statement_kind']:<8} loc={bug['loc']:<3} "
            f"sightings={bug['sightings']}  first round "
            f"{bug['first_round']} (seed {bug['first_seed']})")
    reduction = report.get("reduction")
    if reduction:
        lines.append(f"reduction: {reduction['reduced']} finding(s) "
                     f"reduced, {reduction['unreduced']} left unreduced "
                     "(no buggy-vs-clean difference on replay)")
    if report["by_error_kind"]:
        lines.append("error-oracle bugs by statement kind: "
                     + _fmt_counts(report["by_error_kind"]))
    phases = report.get("phases")
    if phases:
        lines.append("")
        lines.append(f"{'phase':<14}{'count':>8}{'mean ms':>10}"
                     f"{'p50 ms':>10}{'p99 ms':>10}")
        for row in phases:
            lines.append(f"{row['phase']:<14}{row['count']:>8}"
                         f"{row['mean_ms']:>10}{row['p50_ms']:>10}"
                         f"{row['p99_ms']:>10}")
    multiplan = report.get("multiplan")
    if multiplan:
        lines.append("")
        lines.append(f"multiplan findings: {multiplan['findings']}")
        for pair, count in multiplan["by_plan_pair"].items():
            lines.append(f"  plan pair {pair}: {count} finding(s)")
        if multiplan["plans_per_query"]:
            lines.append("plans per query: " + ", ".join(
                f"{plans}->{queries}" for plans, queries
                in multiplan["plans_per_query"].items()))
    growth = report.get("coverage_growth")
    if growth:
        lines.append("")
        lines.append("plan coverage growth: "
                     + " -> ".join(f"r{g['round']}:{g['distinct_plans']}"
                                   for g in growth))
    return "\n".join(lines)


def _fmt_counts(counts: dict) -> str:
    return ", ".join(f"{k}={v}" for k, v in counts.items())


def history_line(report: dict) -> dict:
    """The one-line summary appended to ``results/history.jsonl``."""
    seconds = report["totals"]["seconds"]
    queries = report["totals"]["queries"]
    return {
        "campaign": report["campaign"],
        "dialect": report["dialect"],
        "seed": report["seed"],
        "rounds_completed": report["rounds"]["completed"],
        "statements": report["totals"]["statements"],
        "queries": queries,
        "raw_findings": report["totals"]["raw_findings"],
        "distinct_bugs": len(report["bugs"]),
        "by_oracle": report["by_oracle"],
        "seconds": seconds,
        "queries_per_second":
            round(queries / seconds, 2) if seconds > 0 else 0.0,
    }


def append_history(path: str, report: dict) -> dict:
    """Append this campaign's summary line to the history file."""
    line = history_line(report)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")
    return line


def load_history(path: str) -> list[dict]:
    """All parseable history lines, oldest first.  Tolerant by design:
    the history file is long-memory across tool versions, so malformed
    lines are skipped and missing keys are the reader's problem."""
    if not os.path.exists(path):
        return []
    lines: list[dict] = []
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            raw = raw.strip()
            if not raw:
                continue
            try:
                parsed = json.loads(raw)
            except json.JSONDecodeError:
                continue
            if isinstance(parsed, dict):
                lines.append(parsed)
    return lines


def render_trend(lines: list[dict], limit: int = 8) -> str:
    """A short cross-campaign trend over the most recent history lines:
    distinct bugs and throughput per campaign, oldest of the window
    first.  Lines predating the throughput stamp render as ``?``."""
    if not lines:
        return ""
    window = lines[-limit:]
    out = [f"history trend ({len(window)} of {len(lines)} campaign(s)):"]
    bugs_series = []
    qps_series = []
    for line in window:
        bugs_series.append(str(line.get("distinct_bugs", "?")))
        qps = line.get("queries_per_second")
        qps_series.append("?" if qps is None else f"{qps:g}")
        campaign = line.get("campaign", "?")
        rounds = line.get("rounds_completed", "?")
        bugs = line.get("distinct_bugs", "?")
        qps_text = "?" if qps is None else f"{qps:g} q/s"
        out.append(f"  {campaign}: {rounds} rounds, {bugs} distinct "
                   f"bug(s), {qps_text}")
    out.append("  distinct bugs: " + " -> ".join(bugs_series))
    out.append("  queries/s:     " + " -> ".join(qps_series))
    return "\n".join(out)
