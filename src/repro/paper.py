"""Machine-readable index of the paper's artifacts and where this
repository reproduces each one.

``python -m repro.paper`` prints the index; the test suite asserts that
every referenced path exists, so the mapping cannot rot silently.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Artifact:
    """One paper artifact (table, figure, listing, or section claim)."""

    ref: str                  # e.g. "Table 2", "Listing 1", "§3.4"
    claim: str                # what the paper shows there
    reproduced_by: tuple[str, ...]   # repo paths (module or test)
    notes: str = ""


ARTIFACTS: tuple[Artifact, ...] = (
    Artifact(
        "Figure 1", "the seven PQS steps",
        ("src/repro/core/__init__.py", "src/repro/core/runner.py")),
    Artifact(
        "Algorithm 1", "generateExpression(depth)",
        ("src/repro/core/exprgen.py", "tests/core/test_exprgen.py")),
    Artifact(
        "Algorithm 2", "AST-interpreter execute()",
        ("src/repro/interp/base.py",
         "tests/interp/test_sqlite_differential.py")),
    Artifact(
        "Algorithm 3", "rectifyCondition()",
        ("src/repro/core/rectify.py", "tests/core/test_rectify.py")),
    Artifact(
        "Table 1", "targets: SQLite, MySQL, PostgreSQL",
        ("src/repro/dialects/sqlite.py", "src/repro/dialects/mysql.py",
         "src/repro/dialects/postgres.py"),
        "live servers replaced by MiniDB dialects (DESIGN.md §1)"),
    Artifact(
        "Table 2", "reported bugs and status per DBMS",
        ("benchmarks/bench_table2_bug_reports.py",)),
    Artifact(
        "Table 3", "bugs per oracle (contains/error/segfault)",
        ("benchmarks/bench_table3_oracles.py",)),
    Artifact(
        "Table 4", "component LOC and DBMS coverage",
        ("benchmarks/bench_table4_loc_coverage.py",)),
    Artifact(
        "Figure 2", "CDF of reduced test-case LOC",
        ("benchmarks/bench_fig2_testcase_loc.py",
         "src/repro/core/reducer.py")),
    Artifact(
        "Figure 3", "statement distribution in bug reports",
        ("benchmarks/bench_fig3_statement_distribution.py",
         "src/repro/campaigns/metrics.py")),
    Artifact(
        "Listing 1", "partial-index IS NOT implication (critical)",
        ("tests/minidb/test_bugs.py", "tests/test_paper_listings.py"),
        "injected as sqlite-partial-index-is-not"),
    Artifact(
        "Listing 2", "'' - 2851427734582196970 exactness",
        ("tests/interp/test_sqlite_semantics.py",
         "tests/test_paper_listings.py")),
    Artifact(
        "Listing 3", "SET key_cache_division_limit error",
        ("tests/minidb/test_bugs.py",),
        "injected as mysql-set-option-error"),
    Artifact(
        "Listing 4", "NOCASE index on WITHOUT ROWID table",
        ("tests/minidb/test_bugs.py", "tests/test_paper_listings.py"),
        "injected as sqlite-nocase-unique-without-rowid"),
    Artifact(
        "Listing 5", "RTRIM collation bug",
        ("tests/minidb/test_bugs.py", "tests/test_paper_listings.py"),
        "injected as sqlite-rtrim-compare"),
    Artifact(
        "Listing 6", "skip-scan DISTINCT after ANALYZE",
        ("tests/minidb/test_bugs.py", "tests/test_paper_listings.py"),
        "injected as sqlite-skip-scan-distinct"),
    Artifact(
        "Listing 7", "LIKE optimization vs INT affinity",
        ("tests/minidb/test_bugs.py", "tests/test_paper_listings.py"),
        "injected as sqlite-like-affinity-opt"),
    Artifact(
        "Listing 8", "double-quoted strings in indexes",
        ("tests/minidb/test_bugs.py", "tests/test_paper_listings.py"),
        "injected as sqlite-rename-expr-index"),
    Artifact(
        "Listing 9", "case_sensitive_like schema mismatch",
        ("tests/minidb/test_bugs.py", "tests/test_paper_listings.py"),
        "injected as sqlite-case-sensitive-like-index; still a "
        "documented quirk of modern SQLite"),
    Artifact(
        "Listing 10", "REAL PRIMARY KEY corruption",
        ("tests/minidb/test_bugs.py", "tests/test_paper_listings.py"),
        "injected as sqlite-real-pk-corrupt"),
    Artifact(
        "Listing 11", "MEMORY engine join bug",
        ("tests/minidb/test_bugs.py",),
        "injected as mysql-memory-engine-join"),
    Artifact(
        "Listing 12", "<=> vs out-of-range constant",
        ("tests/minidb/test_bugs.py",),
        "injected as mysql-nullsafe-range"),
    Artifact(
        "Listing 13", "double negation optimization",
        ("tests/minidb/test_bugs.py", "tests/test_paper_listings.py"),
        "injected as mysql-double-negation"),
    Artifact(
        "Listing 14", "CHECK TABLE FOR UPGRADE segfault "
                      "(CVE-2019-2879)",
        ("tests/minidb/test_bugs.py",),
        "injected as mysql-check-table-crash"),
    Artifact(
        "Listing 15", "inheritance GROUP BY",
        ("tests/minidb/test_bugs.py", "tests/test_paper_listings.py"),
        "injected as pg-inherit-groupby"),
    Artifact(
        "Listing 16", "negative bitmapset member",
        ("tests/minidb/test_bugs.py",),
        "injected as pg-stats-bitmap-error"),
    Artifact(
        "Listing 17", "unexpected null value in index",
        ("tests/minidb/test_bugs.py",),
        "injected as pg-index-null-error"),
    Artifact(
        "Listing 18", "VACUUM integer out of range",
        ("tests/minidb/test_bugs.py",),
        "injected as pg-vacuum-int-overflow (triage: intended)"),
    Artifact(
        "§4.4 REINDEX errors", "6 bugs via UNIQUE failures on REINDEX",
        ("tests/minidb/test_bugs.py",),
        "injected as sqlite-reindex-unique"),
    Artifact(
        "§4.2 SQLite crashes", "2 SQLite SEGFAULTs",
        ("tests/minidb/test_bugs.py",),
        "injected as sqlite-alter-add-crash"),
    Artifact(
        "§4.5 unsigned bugs", "4 unsigned-integer bugs",
        ("tests/minidb/test_bugs.py",),
        "injected as mysql-unsigned-cast-compare"),
    Artifact(
        "§4.5 value-range bugs", "'0.5' TEXT falsy in boolean context",
        ("tests/minidb/test_bugs.py",),
        "injected as mysql-text-double-bool"),
    Artifact(
        "§4.3 REPAIR TABLE", "REPAIR/CHECK TABLE were error prone",
        ("tests/minidb/test_bugs.py",),
        "injected as mysql-repair-memory-error"),
    Artifact(
        "§4.6 duplicates", "crash duplicates of the bitmapset bug",
        ("tests/minidb/test_bugs.py",),
        "injected as pg-statistics-crash (triage: duplicate)"),
    Artifact(
        "§3.3", "error oracle and expected-error lists",
        ("src/repro/core/error_oracle.py",
         "tests/core/test_error_oracle.py")),
    Artifact(
        "§3.4 rows", "10-30 rows per table",
        ("benchmarks/bench_ablation_rows.py",)),
    Artifact(
        "§3.4 throughput", "5k-20k statements/second",
        ("benchmarks/bench_throughput.py",)),
    Artifact(
        "§3.4 threads", "thread per database",
        ("src/repro/campaigns/campaign.py",
         "tests/campaigns/test_parallel.py"),
        "as round streams in one loop: Python threads gave no speedup "
        "under the GIL, so the thread fleet was removed"),
    Artifact(
        "§3.4 expressions on columns", "projected-expression checking",
        ("src/repro/core/querygen.py", "tests/core/test_pivot_querygen.py")),
    Artifact(
        "§4.3 constraints", "UNIQUE/PK/index occurrence stats",
        ("src/repro/campaigns/metrics.py",
         "tests/campaigns/test_metrics.py")),
    Artifact(
        "§7 negative containment", "pivot row NOT contained",
        ("src/repro/core/rectify.py", "tests/core/test_negative_mode.py"),
        "implemented future-work extension"),
    Artifact(
        "§7 plan guidance", "steer generation toward unseen query plans",
        ("src/repro/guidance/scheduler.py", "benchmarks/bench_guidance.py",
         "tests/guidance/test_runner_guidance.py"),
        "follow-up work (Ba & Rigger, query-plan guidance) as extension"),
    Artifact(
        "§7 multi-plan", "execute each query under every distinct plan",
        ("src/repro/multiplan/oracle.py", "benchmarks/bench_multiplan.py",
         "tests/minidb/test_multiplan_bugs.py"),
        "differential-plan extension (DESIGN.md §12): forced plans must "
        "agree on the row multiset; reaches the injected "
        "sqlite-forced-index-fencepost, sqlite-stale-stats-join, and "
        "sqlite-like-prefix-range planner defects the containment "
        "oracle cannot see"),
    Artifact(
        "§7 plan timing", "score the planner against its best forced plan",
        ("src/repro/plantime/collector.py", "benchmarks/bench_plantime.py",
         "tests/campaigns/test_plantime_campaign.py"),
        "TAQO-style optimizer observatory (DESIGN.md §13): min-of-k "
        "per-plan timings aggregated by query shape into mergeable "
        "archives; pqs optreport diffs two archives into new/fixed/"
        "worsened planner regressions"),
)


def format_index() -> str:
    lines = []
    for artifact in ARTIFACTS:
        lines.append(f"{artifact.ref:<14} {artifact.claim}")
        for path in artifact.reproduced_by:
            lines.append(f"{'':<14}   -> {path}")
        if artifact.notes:
            lines.append(f"{'':<14}   ({artifact.notes})")
    return "\n".join(lines)


if __name__ == "__main__":
    print(format_index())
