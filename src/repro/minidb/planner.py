"""Name binding, optimizer rewrites, and access-path selection.

This is where most of the paper's SQLite bugs lived — "a number of bugs
could be traced back to incorrect optimizations" (§4.4) — and therefore
where most of MiniDB's injected optimizer defects hook in:

* ``sqlite-like-affinity-opt`` — the LIKE-to-equality rewrite with numeric
  affinity (paper Listing 7);
* ``mysql-double-negation`` — NOT(NOT x) cancellation (Listing 13);
* ``mysql-nullsafe-range`` — out-of-range ``<=>`` folding (Listing 12);
* ``sqlite-partial-index-is-not`` — unsound partial-index implication
  (Listing 1);
* ``sqlite-skip-scan-distinct`` — skip-scan for DISTINCT after ANALYZE
  (Listing 6).

Binding resolves column names against the FROM scope and annotates
``ColumnNode`` with the column's affinity and collation so the engine-side
evaluator applies the same conversion rules the oracle interpreter does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import CatalogError, DBError
from repro.minidb.bugs import BugRegistry
from repro.minidb.catalog import MYSQL_INT_RANGES, Index, Table
from repro.sqlast.nodes import (
    BinaryNode,
    BinaryOp,
    ColumnNode,
    Expr,
    LiteralNode,
    PostfixNode,
    PostfixOp,
    UnaryNode,
    UnaryOp,
    walk,
)
from repro.sqlast.transform import transform
from repro.values import NULL, SQLType

if TYPE_CHECKING:  # pragma: no cover
    from repro.multiplan.hints import PlannerHints


class Scope:
    """The tables visible to an expression, for column resolution."""

    def __init__(self, tables: list[tuple[str, Table]], dialect: str):
        self.tables = tables
        self.dialect = dialect

    def resolve(self, node: ColumnNode) -> ColumnNode:
        candidates = []
        for visible_name, table in self.tables:
            if node.table and node.table.lower() != visible_name.lower():
                continue
            if table.has_column(node.column):
                candidates.append((visible_name, table))
        if not candidates:
            raise CatalogError(f"no such column: "
                               f"{node.table + '.' if node.table else ''}"
                               f"{node.column}")
        if len(candidates) > 1:
            raise CatalogError(f"ambiguous column name: {node.column}")
        visible_name, table = candidates[0]
        column = table.column(node.column)
        affinity = column.affinity if self.dialect == "sqlite" else None
        return ColumnNode(table=visible_name, column=column.name,
                          collation=column.collation, affinity=affinity)


def bind(expr: Expr, scope: Scope) -> Expr:
    """Resolve and annotate all column references in *expr*."""

    def visit(node: Expr) -> Optional[Expr]:
        if isinstance(node, ColumnNode):
            return scope.resolve(node)
        return None

    return transform(expr, visit)


# ---------------------------------------------------------------------------
# Optimizer rewrites
# ---------------------------------------------------------------------------

def rewrite(expr: Expr, dialect: str, bugs: BugRegistry,
            scope: Optional[Scope] = None,
            hints: Optional["PlannerHints"] = None) -> Expr:
    """Apply the optimizer's expression rewrites (defects included).

    ``hints`` (multi-plan forcing) gates the LIKE-optimization family:
    ``no_like_opt`` suppresses it entirely, and the injected
    ``sqlite-like-prefix-range`` defect fires only on a forced-index
    plan — so the unforced statement stream is bit-identical whether or
    not the multiplan subsystem exists.
    """

    def visit(node: Expr) -> Optional[Expr]:
        if dialect == "mysql":
            out = _mysql_rewrites(node, bugs, scope)
            if out is not None:
                return out
        if dialect == "sqlite":
            out = _sqlite_rewrites(node, bugs, hints)
            if out is not None:
                return out
        return None

    return transform(expr, visit)


def _mysql_rewrites(node: Expr, bugs: BugRegistry,
                    scope: Optional[Scope]) -> Optional[Expr]:
    if bugs.on("mysql-double-negation"):
        # Defect: NOT(NOT x) -> x, valid for booleans only; for 123 the
        # correct value of NOT(NOT 123) is 1 (Listing 13).
        if (isinstance(node, UnaryNode) and node.op is UnaryOp.NOT
                and isinstance(node.operand, UnaryNode)
                and node.operand.op is UnaryOp.NOT):
            return node.operand.operand
    if bugs.on("mysql-nullsafe-range") and scope is not None:
        # Defect: `col <=> out_of_range_constant` folds to NULL instead
        # of FALSE, so a wrapping NOT() stops selecting NULL rows
        # (Listing 12).
        if (isinstance(node, BinaryNode)
                and node.op is BinaryOp.NULL_SAFE_EQ):
            folded = _fold_out_of_range_nullsafe(node, scope)
            if folded is not None:
                return folded
    return None


def _fold_out_of_range_nullsafe(node: BinaryNode,
                                scope: Scope) -> Optional[Expr]:
    column, literal = None, None
    if isinstance(node.left, ColumnNode) and isinstance(node.right,
                                                        LiteralNode):
        column, literal = node.left, node.right
    elif isinstance(node.right, ColumnNode) and isinstance(node.left,
                                                           LiteralNode):
        column, literal = node.right, node.left
    if column is None or literal is None:
        return None
    if literal.value.t is not SQLType.INTEGER:
        return None
    for visible_name, table in scope.tables:
        if visible_name.lower() != column.table.lower():
            continue
        col = table.column(column.column)
        base = col.mysql_base_type
        if base not in MYSQL_INT_RANGES or col.mysql_unsigned:
            return None
        lo, hi = MYSQL_INT_RANGES[base]
        if not (lo <= int(literal.value.v) <= hi):
            return LiteralNode(NULL)
    return None


def _sqlite_rewrites(node: Expr, bugs: BugRegistry,
                     hints: Optional["PlannerHints"] = None,
                     ) -> Optional[Expr]:
    no_like_opt = hints is not None and hints.no_like_opt
    if bugs.on("sqlite-like-prefix-range") and not no_like_opt \
            and hints is not None and hints.force_index:
        # Defect: on a forced-index plan, `col LIKE 'prefix%'` is
        # rewritten into an index-friendly range whose upper bound
        # increments the *first* character of the prefix instead of the
        # last — 'ab%' becomes ['ab','bb') rather than ['ab','ac'), a
        # strict superset, so extra rows appear only under INDEXED BY.
        if (isinstance(node, BinaryNode) and node.op is BinaryOp.LIKE
                and isinstance(node.left, ColumnNode)
                and isinstance(node.right, LiteralNode)
                and node.right.value.t is SQLType.TEXT):
            bounds = _buggy_prefix_bounds(str(node.right.value.v))
            if bounds is not None:
                from repro.values import Value

                lower, upper = bounds
                return BinaryNode(
                    BinaryOp.AND,
                    BinaryNode(BinaryOp.GE, node.left,
                               LiteralNode(Value(SQLType.TEXT, lower))),
                    BinaryNode(BinaryOp.LT, node.left,
                               LiteralNode(Value(SQLType.TEXT, upper))))
    if bugs.on("sqlite-like-affinity-opt") and not no_like_opt:
        # Defect: `col LIKE 'literal'` with no wildcards is rewritten to
        # an equality after forcing the pattern through numeric
        # conversion — losing exact text matches stored in numeric-
        # affinity columns (Listing 7).
        if (isinstance(node, BinaryNode) and node.op is BinaryOp.LIKE
                and isinstance(node.left, ColumnNode)
                and node.left.affinity in ("INTEGER", "REAL", "NUMERIC")
                and isinstance(node.right, LiteralNode)
                and node.right.value.t is SQLType.TEXT
                and not _has_like_wildcards(str(node.right.value.v))):
            from repro.sqlast.nodes import CastNode

            return BinaryNode(BinaryOp.EQ, node.left,
                              CastNode(node.right, "NUMERIC"))
    return None


def _has_like_wildcards(pattern: str) -> bool:
    return "%" in pattern or "_" in pattern


def _buggy_prefix_bounds(pattern: str) -> Optional[tuple[str, str]]:
    """``(lower, wrong_upper)`` for a pure prefix pattern, else None.

    Applies only to ``prefix%`` — a non-empty literal prefix followed by
    exactly one trailing ``%`` and no other wildcards.
    """
    if not pattern.endswith("%"):
        return None
    prefix = pattern[:-1]
    if not prefix or _has_like_wildcards(prefix):
        return None
    first = prefix[0]
    if ord(first) >= 0x10FFFF:
        return None
    # The correct rewrite increments the prefix's *last* character; the
    # defect increments the first.
    return prefix, chr(ord(first) + 1) + prefix[1:]


# ---------------------------------------------------------------------------
# Access-path selection
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class AccessPath:
    """How the executor reaches the rows of one table.

    ``reason`` is the planner's one-line justification; it feeds EXPLAIN
    output and plan fingerprints but never influences execution.
    """

    kind: str                       # 'full-scan' | 'index-scan' | 'skip-scan'
    table: str
    index: Optional[Index] = None
    reason: str = ""
    #: True when a multiplan hint (not the planner's own rules) chose
    #: this path — the trigger for the forced-index injected defects.
    forced: bool = False


def choose_path(table: Table, where: Optional[Expr],
                indexes: list[Index], distinct: bool,
                bugs: BugRegistry,
                hints: Optional["PlannerHints"] = None,
                analyzed: bool = False) -> AccessPath:
    """Pick the access path for *table* under predicate *where*.

    The sound rules are conservative: a partial index is usable only when
    the WHERE clause *contains the index predicate verbatim* as a
    conjunct; a full index is usable when the predicate references its
    leading expression.  The injected planner defects relax these rules
    exactly the way the modeled SQLite bugs did.

    ``hints`` overrides the rules: ``force_full_scan`` pins every table
    to a sequential scan, and ``force_index`` pins the index's *owning*
    table to an index scan (other tables plan normally), mirroring
    sqlite's ``NOT INDEXED`` / ``INDEXED BY``.  Like sqlite, a forced
    partial index whose predicate the WHERE clause does not imply is an
    error ("no query solution") rather than a silent wrong plan.

    ``analyzed`` says whether statistics exist for *table* (ANALYZE, or
    a forced plan's ``analyze`` hint).
    """
    if hints is not None:
        if hints.force_full_scan:
            return AccessPath("full-scan", table.name,
                              reason="hint: NOT INDEXED", forced=True)
        if hints.force_index:
            wanted = hints.force_index.lower()
            for index in indexes:
                if index.name.lower() != wanted:
                    continue
                if index.is_partial and (
                        where is None
                        or not _partial_index_usable(where, index, bugs)):
                    raise DBError("no query solution")
                return AccessPath("index-scan", table.name, index,
                                  reason="hint: INDEXED BY", forced=True)
            # The named index lives on another table; plan this one
            # normally.
    if bugs.on("sqlite-skip-scan-distinct") and distinct and analyzed:
        for index in indexes:
            if not index.is_partial:
                return AccessPath("skip-scan", table.name, index,
                                  reason="DISTINCT over analyzed table")
    if where is not None:
        for index in indexes:
            if index.is_partial and _partial_index_usable(where, index,
                                                          bugs):
                return AccessPath("index-scan", table.name, index,
                                  reason="WHERE implies partial-index "
                                         "predicate")
        for index in indexes:
            if not index.is_partial and _full_index_usable(where, index):
                return AccessPath("index-scan", table.name, index,
                                  reason="WHERE references leading "
                                         "indexed expression")
    if distinct:
        # DISTINCT queries walk an index when one covers the table, the
        # way SQLite satisfies DISTINCT from index order.
        for index in indexes:
            if not index.is_partial:
                return AccessPath("index-scan", table.name, index,
                                  reason="DISTINCT satisfied from index "
                                         "order")
    return AccessPath("full-scan", table.name,
                      reason="no usable index")


def _partial_index_usable(where: Expr, index: Index,
                          bugs: BugRegistry) -> bool:
    assert index.where is not None
    if _contains_conjunct(where, index.where):
        return True
    if bugs.on("sqlite-partial-index-is-not"):
        # Defect: assume `c IS NOT <non-null literal>` implies
        # `c NOT NULL` (it does not: NULL IS NOT 1 is TRUE) — Listing 1.
        target = _not_null_column(index.where)
        if target is not None:
            for node in walk(where):
                if (isinstance(node, BinaryNode)
                        and node.op is BinaryOp.IS_NOT
                        and isinstance(node.left, ColumnNode)
                        and node.left.column.lower() == target.lower()
                        and isinstance(node.right, LiteralNode)
                        and not node.right.value.is_null):
                    return True
    return False


def _not_null_column(predicate: Expr) -> Optional[str]:
    """Name of c when *predicate* is `c NOT NULL` / `c NOTNULL`."""
    if (isinstance(predicate, PostfixNode)
            and predicate.op is PostfixOp.NOTNULL
            and isinstance(predicate.operand, ColumnNode)):
        return predicate.operand.column
    return None


def _contains_conjunct(where: Expr, predicate: Expr) -> bool:
    """Does *where* contain *predicate* as a top-level AND conjunct?"""
    if _same_predicate(where, predicate):
        return True
    if isinstance(where, BinaryNode) and where.op is BinaryOp.AND:
        return (_contains_conjunct(where.left, predicate)
                or _contains_conjunct(where.right, predicate))
    return False


def _same_predicate(a: Expr, b: Expr) -> bool:
    """Structural equality modulo binding annotations."""
    return _strip(a) == _strip(b)


def _strip(expr: Expr) -> Expr:
    from repro.sqlast.nodes import CollateNode

    def visit(node: Expr) -> Optional[Expr]:
        if isinstance(node, ColumnNode):
            return ColumnNode(table="", column=node.column.lower())
        if isinstance(node, CollateNode):
            return node.operand
        return None

    return transform(expr, visit)


def _full_index_usable(where: Expr, index: Index) -> bool:
    """A non-partial index is usable when WHERE references its leading
    expression in a comparison or NULL-test (a deliberately simple
    heuristic — MiniDB has no cost model, matching its role as a small
    but real engine)."""
    lead = _strip(index.exprs[0].expr)
    for node in walk(where):
        if isinstance(node, BinaryNode) and node.op.is_comparison:
            if _strip(node.left) == lead or _strip(node.right) == lead:
                return True
        if isinstance(node, PostfixNode) and _strip(node.operand) == lead:
            return True
    return False
