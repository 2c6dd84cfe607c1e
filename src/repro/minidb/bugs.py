"""Injectable defects modeled on the paper's reported bugs.

The paper's evaluation counts *real* (then-unknown) bugs in SQLite, MySQL
and PostgreSQL.  Offline we need ground truth, so MiniDB ships a registry
of defects that can be switched on individually.  Each defect:

* is modeled on a concrete bug/listing from the paper (``paper_ref``);
* lives in the engine layer where the real bug lived (``component``:
  planner, optimizer, executor, constraint, storage, maintenance);
* is detectable by exactly the oracle class the paper attributes to it
  (``oracle``: contains / error / crash).

The campaign harness (:mod:`repro.campaigns`) enables a dialect's defects,
runs PQS, and scores detections against this catalog — regenerating the
paper's Tables 2 and 3 and Figures 2 and 3 as measurable quantities.

``triage`` records how the upstream developers resolved the modeled bug,
which drives Table 2's status taxonomy: ``fixed`` (code fix), ``verified``
(confirmed, no fix at reporting time), ``docs`` (documentation fix, counted
as a true bug in the paper), ``intended`` (works-as-intended, a false
positive).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class InjectedBug:
    bug_id: str
    dialect: str                  # sqlite | mysql | postgres
    oracle: str                   # contains | error | crash
    component: str                # planner | optimizer | executor | ...
    description: str
    paper_ref: str
    triage: str = "fixed"


BUG_CATALOG: dict[str, InjectedBug] = {bug.bug_id: bug for bug in [
    # ----------------------------------------------------------- SQLite --
    InjectedBug(
        "sqlite-partial-index-is-not", "sqlite", "contains", "planner",
        "The planner assumes `c IS NOT <literal>` implies `c NOT NULL` and "
        "uses a partial index filtered on `c NOT NULL`, silently dropping "
        "rows whose c is NULL.",
        "Listing 1 (critical, latent since 2013)"),
    InjectedBug(
        "sqlite-nocase-unique-without-rowid", "sqlite", "contains",
        "constraint",
        "On WITHOUT ROWID tables, a NOCASE-collated index wrongly "
        "deduplicates case-variant keys, making one of the rows "
        "unreachable by scans.",
        "Listing 4 (severe, latent since 2013)"),
    InjectedBug(
        "sqlite-rtrim-compare", "sqlite", "contains", "executor",
        "RTRIM collation is implemented as 'ignore all trailing AND "
        "leading spaces', so comparisons against padded strings "
        "mis-evaluate and rows are not fetched.",
        "Listing 5 (important, 11 years old)"),
    InjectedBug(
        "sqlite-skip-scan-distinct", "sqlite", "contains", "planner",
        "After ANALYZE, DISTINCT queries take a skip-scan path that "
        "deduplicates on the indexed prefix instead of the full row.",
        "Listing 6 (severe)"),
    InjectedBug(
        "sqlite-like-affinity-opt", "sqlite", "contains", "optimizer",
        "The LIKE optimization rewrites `c LIKE 'lit'` (no wildcards) to "
        "an equality with numeric affinity applied, missing exact string "
        "matches stored in INT-affinity columns.",
        "Listing 7 (minor, one of 4 LIKE-optimization bugs)"),
    InjectedBug(
        "sqlite-rename-expr-index", "sqlite", "error", "catalog",
        "ALTER TABLE RENAME COLUMN does not rewrite expression indexes, "
        "leaving the schema referring to a nonexistent column; the next "
        "statement touching the index reports a malformed schema.",
        "Listing 8 (led SQLite to disallow double-quoted strings in "
        "indexes)"),
    InjectedBug(
        "sqlite-case-sensitive-like-index", "sqlite", "error",
        "maintenance",
        "An index on a LIKE expression becomes inconsistent with the "
        "schema once PRAGMA case_sensitive_like is toggled; VACUUM then "
        "fails with a malformed-schema error.",
        "Listing 9 (resolved as a documented design defect)", "docs"),
    InjectedBug(
        "sqlite-real-pk-corrupt", "sqlite", "error", "storage",
        "UPDATE OR REPLACE on a REAL PRIMARY KEY leaves a stale index "
        "entry behind; the next SELECT DISTINCT through the index reports "
        "'database disk image is malformed'.",
        "Listing 10 (severe, introduced 2015)"),
    InjectedBug(
        "sqlite-reindex-unique", "sqlite", "error", "maintenance",
        "A buggy collation-aware insert path lets duplicate keys into a "
        "UNIQUE index; REINDEX detects them and fails with 'UNIQUE "
        "constraint failed'.",
        "§4.4 error-oracle bugs (6 found via REINDEX)"),
    # Optimizer defects visible only under forced plans: the unforced
    # planner never takes the affected path, so the pivot-containment
    # oracle cannot see them — only the multi-plan differential oracle
    # (repro.multiplan), which diffs forced executions, can.
    InjectedBug(
        "sqlite-forced-index-fencepost", "sqlite", "multiplan", "storage",
        "An INDEXED BY cursor stops one entry short of the index's end, "
        "so the key-largest row vanishes from forced index scans while "
        "planner-chosen scans return it.",
        "Multi-plan execution oracle (PAPERS.md: Context-Sensitive "
        "Instantiation and Multi-Plan Execution)"),
    InjectedBug(
        "sqlite-stale-stats-join", "sqlite", "multiplan", "planner",
        "Planning with statistics that no ANALYZE gathered makes the "
        "join reorderer treat cross products as already equi-joined, "
        "dropping row pairs whose lead columns collide.",
        "Multi-plan execution oracle (PAPERS.md: Context-Sensitive "
        "Instantiation and Multi-Plan Execution)"),
    InjectedBug(
        "sqlite-like-prefix-range", "sqlite", "multiplan", "optimizer",
        "On forced-index plans the LIKE optimization turns `c LIKE "
        "'prefix%'` into a range whose upper bound increments the "
        "prefix's first character instead of its last, matching a "
        "superset of rows.",
        "Multi-plan execution oracle (PAPERS.md: Context-Sensitive "
        "Instantiation and Multi-Plan Execution)"),
    InjectedBug(
        "sqlite-alter-add-crash", "sqlite", "crash", "catalog",
        "ALTER TABLE ADD COLUMN on a WITHOUT ROWID table that has an "
        "expression index dereferences a stale schema pointer "
        "(simulated SEGFAULT).",
        "§4.2 (2 SQLite crash bugs)"),
    # ------------------------------------------------------------ MySQL --
    InjectedBug(
        "mysql-memory-engine-join", "mysql", "contains", "executor",
        "Scans of MEMORY-engine tables clamp negative integers to zero, "
        "so joins comparing across engines drop qualifying rows.",
        "Listing 11 (5 bugs involving non-default engines)"),
    InjectedBug(
        "mysql-unsigned-cast-compare", "mysql", "contains", "executor",
        "CAST(x AS UNSIGNED) results are compared using signed semantics, "
        "inverting comparisons against large unsigned values.",
        "§4.5 unsigned-integer bugs (4 found)"),
    InjectedBug(
        "mysql-nullsafe-range", "mysql", "contains", "optimizer",
        "`col <=> constant` with a constant outside the column type's "
        "range is folded to NULL instead of FALSE, so NOT(...) no longer "
        "selects NULL rows.",
        "Listing 12 (fixed for 8.0.18)"),
    InjectedBug(
        "mysql-double-negation", "mysql", "contains", "optimizer",
        "The optimizer cancels NOT(NOT x) to x, which is wrong for "
        "non-boolean integers: NOT(NOT 123) is 1, not 123.",
        "Listing 13 (duplicate; fixed in an unreleased version)",
        "duplicate"),
    InjectedBug(
        "mysql-text-double-bool", "mysql", "contains", "executor",
        "TEXT values used in a boolean context are truncated to integers "
        "before the zero test, so '0.5' evaluates to FALSE.",
        "§4.5 value-range bugs (fixed in 8.0.17)"),
    InjectedBug(
        "mysql-check-table-crash", "mysql", "crash", "maintenance",
        "CHECK TABLE ... FOR UPGRADE on a table with an expression index "
        "hits a race window in the index rebuild (simulated SEGFAULT; "
        "CVE-2019-2879 analogue).",
        "Listing 14 (CVE-2019-2879, CVSS 4.9)"),
    InjectedBug(
        "mysql-repair-memory-error", "mysql", "error", "maintenance",
        "REPAIR TABLE on a MEMORY-engine table reports 'Incorrect key "
        "file' although nothing is corrupted.",
        "§4.3 (REPAIR TABLE / CHECK TABLE statements were error prone)"),
    InjectedBug(
        "mysql-set-option-error", "mysql", "error", "options",
        "SET GLOBAL key_cache_division_limit = 100 fails with 'Incorrect "
        "arguments to SET'.",
        "Listing 3 (single-statement bug)"),
    # --------------------------------------------------------- Postgres --
    InjectedBug(
        "pg-inherit-groupby", "postgres", "contains", "executor",
        "GROUP BY trusts the parent's PRIMARY KEY as a grouping key even "
        "though inherited child tables do not respect it, merging rows "
        "that differ in non-key columns.",
        "Listing 15 (the one fixed PostgreSQL containment bug)"),
    InjectedBug(
        "pg-stats-bitmap-error", "postgres", "error", "planner",
        "With extended statistics analyzed and an expression index "
        "present, boolean-expression WHERE clauses fail with 'negative "
        "bitmapset member not allowed'.",
        "Listing 16 (crash variants reported independently via SQLsmith)"),
    InjectedBug(
        "pg-index-null-error", "postgres", "error", "storage",
        "An index built while a concurrent snapshot held a NULL value "
        "retains a NULL entry; later comparisons probing the index fail "
        "with 'found unexpected null value in index'.",
        "Listing 17 (multithreaded bug class, 4 reported)"),
    InjectedBug(
        "pg-vacuum-int-overflow", "postgres", "error", "maintenance",
        "VACUUM FULL evaluates deferred expression-index entries and "
        "fails with 'integer out of range' for values near INT_MAX.",
        "Listing 18 (closed as working-as-intended)", "intended"),
    InjectedBug(
        "pg-statistics-crash", "postgres", "crash", "planner",
        "A SELECT combining extended statistics with a `(x AND x) OR "
        "FALSE IS TRUE` pattern dereferences a negative bitmap member "
        "(simulated SEGFAULT; duplicate of the bitmapset bug).",
        "§4.6 duplicates (crash variants of Listing 16)", "duplicate"),
]}


def bugs_for_dialect(dialect: str) -> list[InjectedBug]:
    return [bug for bug in BUG_CATALOG.values() if bug.dialect == dialect]


class BugRegistry:
    """The set of injected defects currently enabled in an engine."""

    def __init__(self, enabled: set[str] | None = None):
        self.enabled: set[str] = set()
        for bug_id in enabled or ():
            self.enable(bug_id)

    def enable(self, bug_id: str) -> None:
        if bug_id not in BUG_CATALOG:
            raise KeyError(f"unknown bug id: {bug_id}")
        self.enabled.add(bug_id)

    def disable(self, bug_id: str) -> None:
        self.enabled.discard(bug_id)

    def on(self, bug_id: str) -> bool:
        """Is *bug_id* enabled?  The engine's injection points call this."""
        return bug_id in self.enabled

    def __iter__(self):
        return iter(sorted(self.enabled))

    def __len__(self) -> int:
        return len(self.enabled)
