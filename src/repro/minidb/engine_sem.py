"""Engine-side semantics: the dialect semantics plus injected defects.

The oracle's interpreter always uses the pristine :mod:`repro.interp`
semantics.  MiniDB's executor evaluates expressions through the classes
below, which are byte-for-byte identical *unless* a defect is enabled —
mirroring how the paper's real bugs lived in the DBMS evaluation paths
while the SQLancer-side interpreter stayed exact.
"""

from __future__ import annotations

from repro.interp.base import Semantics, Ternary, comparison_collation
from repro.interp.mysql_sem import MySQLSemantics, to_double
from repro.interp.postgres_sem import PostgresSemantics
from repro.interp.sqlite_sem import SQLiteSemantics
from repro.minidb.bugs import BugRegistry
from repro.sqlast.nodes import BinaryOp, CastNode, Expr, LiteralNode
from repro.values import NULL, SQLType, Value

_NULL_LITERAL = LiteralNode(NULL)


class EngineSQLiteSemantics(SQLiteSemantics):
    """SQLite semantics with injection points for evaluator-level defects."""

    def __init__(self, bugs: BugRegistry):
        self.bugs = bugs

    def compile_compare(self, op: BinaryOp, left: Expr,
                        right: Expr | None):
        # The only comparison defect this class can inject applies solely
        # to RTRIM-collated sites, and the collating sequence is a static
        # property of the operand expressions, so only those sites carry
        # the defect wrapper.  It consults the bug registry on every
        # evaluation (defects may be toggled after compilation) and
        # transforms the operands before the pristine closure applies
        # affinity.
        compare = super().compile_compare(op, left, right)
        right_expr: Expr = _NULL_LITERAL if right is None else right
        if comparison_collation(left, right_expr) != "RTRIM":
            return compare
        bugs = self.bugs

        def rtrim_compare(lv: Value, rv: Value) -> Ternary:
            if bugs.on("sqlite-rtrim-compare"):
                # Defect: RTRIM collation also strips *leading* spaces.
                lv = _lstrip_text(lv)
                rv = _lstrip_text(rv)
            return compare(lv, rv)
        return rtrim_compare


class EngineMySQLSemantics(MySQLSemantics):
    """MySQL semantics with injection points for evaluator-level defects."""

    def __init__(self, bugs: BugRegistry):
        self.bugs = bugs

    def to_bool(self, v: Value) -> Ternary:
        if v.t is SQLType.INTEGER:
            # Dominant case (comparison results are 0/1 integers); the
            # only to_bool defect concerns TEXT, so this is exact.
            return v.v != 0
        if v.t is SQLType.TEXT and self.bugs.on("mysql-text-double-bool"):
            # Defect: TEXT is truncated to an integer before the zero
            # test, so '0.5' is FALSE (paper §4.5, fixed in 8.0.17).
            num = to_double(v)
            assert num is not None
            if num != num or num in (float("inf"), float("-inf")):
                return super().to_bool(v)
            return int(num) != 0
        return super().to_bool(v)

    def compile_compare(self, op: BinaryOp, left: Expr,
                        right: Expr | None):
        # The unsigned-cast defect can only fire when an operand *is* an
        # unsigned cast — a static property of the expressions — so only
        # such sites carry the defect wrapper, which consults the bug
        # registry on every evaluation.
        compare = super().compile_compare(op, left, right)
        left_unsigned = _is_unsigned_cast(left)
        right_unsigned = right is not None and _is_unsigned_cast(right)
        if not (left_unsigned or right_unsigned):
            return compare
        bugs = self.bugs

        def unsigned_compare(lv: Value, rv: Value) -> Ternary:
            if bugs.on("mysql-unsigned-cast-compare"):
                if left_unsigned:
                    lv = _reinterpret_signed(lv)
                if right_unsigned:
                    rv = _reinterpret_signed(rv)
            return compare(lv, rv)
        return unsigned_compare


class EnginePostgresSemantics(PostgresSemantics):
    """PostgreSQL semantics (its injected defects live outside the
    evaluator: executor GROUP BY, planner, storage and maintenance)."""

    def __init__(self, bugs: BugRegistry):
        self.bugs = bugs


def build_engine_semantics(dialect: str, bugs: BugRegistry) -> Semantics:
    if dialect == "sqlite":
        return EngineSQLiteSemantics(bugs)
    if dialect == "mysql":
        return EngineMySQLSemantics(bugs)
    if dialect == "postgres":
        return EnginePostgresSemantics(bugs)
    raise ValueError(f"unknown dialect: {dialect!r}")


def _lstrip_text(v: Value) -> Value:
    if v.t is SQLType.TEXT:
        return Value.text(str(v.v).lstrip(" "))
    return v


def _is_unsigned_cast(expr: Expr) -> bool:
    return isinstance(expr, CastNode) and "UNSIGNED" in expr.type_name.upper()


def _reinterpret_signed(v: Value) -> Value:
    """Defect helper: view an unsigned 64-bit value through signed eyes."""
    if v.t is SQLType.INTEGER and int(v.v) >= 2**63:
        return Value.integer(int(v.v) - 2**64)
    return v
