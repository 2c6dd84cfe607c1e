"""Interpreter driver, three-valued logic, and static expression analysis.

SQL's ``WHERE`` logic is ternary: expressions evaluate to TRUE, FALSE or
NULL (unknown).  We model the logical layer with ``Optional[bool]`` (``None``
means NULL) and materialize results back into dialect values.

The driver is deliberately naive — the paper notes "all operations are
implemented naively and do not perform any optimizations, since the
bottleneck of our approach is the DBMS evaluating the queries".
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from repro.errors import PQSError
from repro.sqlast.nodes import (
    BetweenNode,
    BinaryNode,
    BinaryOp,
    CaseNode,
    CastNode,
    CollateNode,
    ColumnNode,
    Expr,
    FunctionNode,
    InListNode,
    LiteralNode,
    PostfixNode,
    PostfixOp,
    UnaryNode,
    UnaryOp,
)
from repro.values import NULL, Value

#: Evaluation environment: qualified column name ("t0.c0") -> stored value.
Row = Mapping[str, Value]

Ternary = Optional[bool]


class EvalError(PQSError):
    """Evaluation failed in a way the engine would also report as an error.

    Strict dialects (PostgreSQL) raise this for type mismatches and division
    by zero.  The generator treats it as "discard and redraw", since a query
    built on such an expression would error rather than mis-answer.
    """


def t_not(a: Ternary) -> Ternary:
    if a is None:
        return None
    return not a


def t_and(a: Ternary, b: Ternary) -> Ternary:
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def t_or(a: Ternary, b: Ternary) -> Ternary:
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return False


# ---------------------------------------------------------------------------
# Static analysis: affinity and collation of expressions (SQLite rules)
# ---------------------------------------------------------------------------

def expr_affinity(expr: Expr) -> Optional[str]:
    """Type affinity of an expression, per SQLite's static rules.

    Column references carry their column's affinity, and a column with
    no declared type has BLOB affinity; ``CAST`` imposes the affinity of
    its target type; ``COLLATE`` is transparent.  Unary ``+`` *strips*
    affinity — that is SQLite's documented idiom for defeating affinity
    conversion in comparisons.  Everything else has no affinity.
    """
    if isinstance(expr, ColumnNode):
        return expr.affinity or "BLOB"
    if isinstance(expr, CastNode):
        return affinity_of_type_name(expr.type_name)
    if isinstance(expr, CollateNode):
        return expr_affinity(expr.operand)
    return None


def affinity_of_type_name(type_name: str) -> str:
    """SQLite's declared-type → affinity mapping (its §3.1 rules)."""
    upper = type_name.upper()
    if "INT" in upper:
        return "INTEGER"
    if "CHAR" in upper or "CLOB" in upper or "TEXT" in upper:
        return "TEXT"
    if "BLOB" in upper or upper == "":
        return "BLOB"
    if "REAL" in upper or "FLOA" in upper or "DOUB" in upper:
        return "REAL"
    return "NUMERIC"


def expr_collation(expr: Expr) -> tuple[Optional[str], bool]:
    """Collating sequence of an expression: ``(name, explicit)``.

    An explicit ``COLLATE`` operator anywhere in the operand wins over
    implicit column collations; this mirrors SQLite's rules for choosing
    the collating sequence of a comparison.
    """
    if isinstance(expr, CollateNode):
        return expr.collation, True
    if isinstance(expr, ColumnNode):
        return expr.collation, False
    if isinstance(expr, CastNode):
        return expr_collation(expr.operand)
    if isinstance(expr, UnaryNode) and expr.op is UnaryOp.PLUS:
        # Unary + strips *implicit* collation binding in SQLite but keeps
        # explicit COLLATE operators.
        name, explicit = expr_collation(expr.operand)
        return (name, True) if explicit else (None, False)
    return None, False


def comparison_collation(left: Expr, right: Expr) -> str:
    """The collating sequence a comparison of *left* and *right* uses."""
    lname, lexp = expr_collation(left)
    rname, rexp = expr_collation(right)
    if lexp and lname:
        return lname
    if rexp and rname:
        return rname
    if lname:
        return lname
    if rname:
        return rname
    return "BINARY"


# ---------------------------------------------------------------------------
# Semantics interface
# ---------------------------------------------------------------------------

class Semantics:
    """Dialect-specific value semantics consumed by :class:`Interpreter`.

    Subclasses implement every hook; the base class only fixes the
    interface.  All hooks receive :class:`Value` objects.  A dialect
    states its comparison rules once, in :meth:`compile_compare`, and
    its value order once, in :meth:`order`.
    """

    name = "abstract"

    def to_bool(self, v: Value) -> Ternary:
        raise NotImplementedError

    def bool_value(self, b: Ternary) -> Value:
        """Materialize a ternary logical result as a dialect value."""
        raise NotImplementedError

    def arithmetic(self, op: BinaryOp, a: Value, b: Value) -> Value:
        raise NotImplementedError

    def bitwise(self, op, a: Value, b: Value) -> Value:
        raise NotImplementedError

    def negate(self, v: Value) -> Value:
        raise NotImplementedError

    def bitnot(self, v: Value) -> Value:
        raise NotImplementedError

    def concat(self, a: Value, b: Value) -> Value:
        raise NotImplementedError

    def like(self, text: Value, pattern: Value) -> Ternary:
        raise NotImplementedError

    def glob(self, text: Value, pattern: Value) -> Ternary:
        raise NotImplementedError

    def cast(self, v: Value, type_name: str) -> Value:
        raise NotImplementedError

    def call(self, name: str, args: list[Value],
             first_arg_collation: str | None = None) -> Value:
        """Invoke a scalar function.

        ``first_arg_collation`` carries the collating sequence of the first
        argument *expression* — SQLite's scalar MIN/MAX (and NULLIF)
        compare text using it.
        """
        raise NotImplementedError

    def values_equal(self, a: Value, b: Value) -> bool:
        """Row-membership equality used by the containment check and IN."""
        raise NotImplementedError

    def order(self, a: Value, b: Value) -> int:
        """Three-way order of two non-NULL values (ORDER BY, MIN, MAX)."""
        raise NotImplementedError

    def aggregate_number(self, v: Value) -> int | float:
        """The number SUM, AVG and TOTAL add for the non-NULL *v*."""
        raise NotImplementedError

    def compile_compare(self, op: BinaryOp, left: Expr,
                        right: Optional[Expr],
                        ) -> Callable[[Value, Value], Ternary]:
        """The comparison *op* at a fixed site, as a closure over the two
        evaluated operand values.

        Per-site static analysis (affinity, collation) depends only on
        the operand *expressions*, so it runs here, once.  ``right is
        None`` marks an IN-list item, which compares as a bare literal of
        the evaluated value (SQLite's rule that IN ignores the items' own
        affinities).
        """
        raise NotImplementedError


#: Ordering comparison -> predicate over a three-way comparison result.
CMP_FUNCS: dict[BinaryOp, Callable[[int], bool]] = {
    BinaryOp.EQ: lambda cmp: cmp == 0,
    BinaryOp.NE: lambda cmp: cmp != 0,
    BinaryOp.LT: lambda cmp: cmp < 0,
    BinaryOp.LE: lambda cmp: cmp <= 0,
    BinaryOp.GT: lambda cmp: cmp > 0,
    BinaryOp.GE: lambda cmp: cmp >= 0,
}

#: A compiled expression: evaluate against one row environment.
CompiledExpr = Callable[[Row], Value]

_ARITH_OPS = frozenset({BinaryOp.ADD, BinaryOp.SUB, BinaryOp.MUL,
                        BinaryOp.DIV, BinaryOp.MOD})
_BIT_OPS = frozenset({BinaryOp.BITAND, BinaryOp.BITOR, BinaryOp.SHL,
                      BinaryOp.SHR})


class Interpreter:
    """Evaluate expression ASTs against a pivot row (paper Algorithm 2).

    Expressions are compiled into a tree of closures.  Compilation mirrors
    the historical tree-walking evaluator exactly — same evaluation order,
    same semantics hooks, same error messages — because the containment
    oracle depends on bit-identical outcomes.  :meth:`compile` memoizes the
    closure per AST node identity, for callers that run one node over many
    rows; :meth:`evaluate` and :meth:`evaluate_bool` compile and run once
    and keep nothing, since the oracle evaluates each synthesized tree
    about once.  Nodes are immutable (frozen dataclasses), so identity
    keying is sound; the memo holds strong references, so an id cannot be
    reused while its entry is alive.
    """

    #: Clear-all bound on the compiled-closure memo: one engine compiles
    #: an unbounded stream of distinct statements' expressions.
    _CACHE_LIMIT = 2048

    def __init__(self, semantics: Semantics):
        self.semantics = semantics
        self._compiled: dict[int, tuple[Expr, CompiledExpr]] = {}

    # -- public API ----------------------------------------------------------
    def evaluate(self, expr: Expr, row: Row) -> Value:
        """Evaluate *expr* with column references bound from *row*."""
        return self._compile(expr)(row)

    def evaluate_bool(self, expr: Expr, row: Row) -> Ternary:
        """Evaluate *expr* in a boolean context (for WHERE/JOIN conditions)."""
        return self.semantics.to_bool(self.evaluate(expr, row))

    def compile(self, expr: Expr) -> CompiledExpr:
        """The compiled closure for *expr* (memoized)."""
        entry = self._compiled.get(id(expr))
        if entry is None:
            if len(self._compiled) >= self._CACHE_LIMIT:
                self._compiled.clear()
            entry = (expr, self._compile(expr))
            self._compiled[id(expr)] = entry
        return entry[1]

    # -- compilation ----------------------------------------------------------
    def _compile(self, expr: Expr) -> CompiledExpr:
        sem = self.semantics
        if isinstance(expr, LiteralNode):
            value = expr.value
            return lambda row: value
        if isinstance(expr, ColumnNode):
            qualified = expr.qualified

            def load_column(row: Row) -> Value:
                try:
                    return row[qualified]
                except KeyError:
                    raise EvalError(
                        f"unbound column {qualified}") from None
            return load_column
        if isinstance(expr, UnaryNode):
            return self._compile_unary(expr)
        if isinstance(expr, PostfixNode):
            return self._compile_postfix(expr)
        if isinstance(expr, BinaryNode):
            return self._compile_binary(expr)
        if isinstance(expr, BetweenNode):
            return self._compile_between(expr)
        if isinstance(expr, InListNode):
            return self._compile_in(expr)
        if isinstance(expr, CastNode):
            operand = self._compile(expr.operand)
            cast = sem.cast
            type_name = expr.type_name
            return lambda row: cast(operand(row), type_name)
        if isinstance(expr, CollateNode):
            return self._compile(expr.operand)
        if isinstance(expr, CaseNode):
            return self._compile_case(expr)
        if isinstance(expr, FunctionNode):
            args = [self._compile(arg) for arg in expr.args]
            collation = None
            if expr.args:
                collation = expr_collation(expr.args[0])[0]
            name = expr.name
            call = sem.call
            return lambda row: call(name, [fn(row) for fn in args],
                                    first_arg_collation=collation)

        def unknown_node(row: Row) -> Value:
            raise EvalError(f"cannot evaluate node {expr!r}")
        return unknown_node

    def _compile_unary(self, expr: UnaryNode) -> CompiledExpr:
        sem = self.semantics
        operand = self._compile(expr.operand)
        op = expr.op
        if op is UnaryOp.NOT:
            to_bool, bool_value = sem.to_bool, sem.bool_value
            return lambda row: bool_value(t_not(to_bool(operand(row))))
        if op is UnaryOp.MINUS:
            negate = sem.negate
            return lambda row: negate(operand(row))
        if op is UnaryOp.PLUS:
            return operand
        if op is UnaryOp.BITNOT:
            bitnot = sem.bitnot
            return lambda row: bitnot(operand(row))

        def unknown_unary(row: Row) -> Value:
            operand(row)
            raise EvalError(f"unknown unary op {op}")
        return unknown_unary

    def _compile_postfix(self, expr: PostfixNode) -> CompiledExpr:
        sem = self.semantics
        operand = self._compile(expr.operand)
        op = expr.op
        bool_value = sem.bool_value
        if op is PostfixOp.ISNULL:
            return lambda row: bool_value(operand(row).is_null)
        if op is PostfixOp.NOTNULL:
            return lambda row: bool_value(not operand(row).is_null)
        # IS TRUE / IS FALSE family is two-valued: NULL IS TRUE = FALSE.
        to_bool = sem.to_bool
        if op is PostfixOp.IS_TRUE:
            return lambda row: bool_value(to_bool(operand(row)) is True)
        if op is PostfixOp.IS_FALSE:
            return lambda row: bool_value(to_bool(operand(row)) is False)
        if op is PostfixOp.IS_NOT_TRUE:
            return lambda row: bool_value(to_bool(operand(row)) is not True)
        if op is PostfixOp.IS_NOT_FALSE:
            return lambda row: bool_value(to_bool(operand(row)) is not False)

        def unknown_postfix(row: Row) -> Value:
            to_bool(operand(row))
            raise EvalError(f"unknown postfix op {op}")
        return unknown_postfix

    def _compile_binary(self, expr: BinaryNode) -> CompiledExpr:
        sem = self.semantics
        op = expr.op
        left = self._compile(expr.left)
        right = self._compile(expr.right)
        bool_value = sem.bool_value
        if op.is_logical:
            # AND/OR do evaluate both sides here; SQL has no mandated
            # short-circuit order and both operand trees are side-effect
            # free.  Python argument order keeps left-then-right.
            to_bool = sem.to_bool
            combine = t_and if op is BinaryOp.AND else t_or
            return lambda row: bool_value(combine(to_bool(left(row)),
                                                  to_bool(right(row))))
        if op in (BinaryOp.LIKE, BinaryOp.NOT_LIKE):
            like = sem.like
            if op is BinaryOp.NOT_LIKE:
                return lambda row: bool_value(
                    t_not(like(left(row), right(row))))
            return lambda row: bool_value(like(left(row), right(row)))
        if op is BinaryOp.GLOB:
            glob = sem.glob
            return lambda row: bool_value(glob(left(row), right(row)))
        if op is BinaryOp.CONCAT:
            concat = sem.concat
            return lambda row: concat(left(row), right(row))
        if op in _ARITH_OPS:
            arithmetic = sem.arithmetic
            return lambda row: arithmetic(op, left(row), right(row))
        if op in _BIT_OPS:
            bitwise = sem.bitwise
            return lambda row: bitwise(op, left(row), right(row))
        if op.is_comparison:
            compare = sem.compile_compare(op, expr.left, expr.right)
            return lambda row: bool_value(compare(left(row), right(row)))

        def unknown_binary(row: Row) -> Value:
            left(row)
            right(row)
            raise EvalError(f"unknown binary op {op}")
        return unknown_binary

    def _compile_between(self, expr: BetweenNode) -> CompiledExpr:
        sem = self.semantics
        operand = self._compile(expr.operand)
        low = self._compile(expr.low)
        high = self._compile(expr.high)
        ge = sem.compile_compare(BinaryOp.GE, expr.operand, expr.low)
        le = sem.compile_compare(BinaryOp.LE, expr.operand, expr.high)
        bool_value = sem.bool_value
        negated = expr.negated

        def between(row: Row) -> Value:
            v = operand(row)
            lo = low(row)
            hi = high(row)
            out = t_and(ge(v, lo), le(v, hi))
            if negated:
                out = t_not(out)
            return bool_value(out)
        return between

    def _compile_in(self, expr: InListNode) -> CompiledExpr:
        sem = self.semantics
        operand = self._compile(expr.operand)
        items = [self._compile(item) for item in expr.items]
        # The affinity of an IN comparison is that of the LHS only; the
        # items' own affinities are ignored (SQLite rule), so each item is
        # presented as a bare literal (right=None to compile_compare).
        eq = sem.compile_compare(BinaryOp.EQ, expr.operand, None)
        bool_value = sem.bool_value
        negated = expr.negated

        def in_list(row: Row) -> Value:
            v = operand(row)
            saw_null = False
            found = False
            for item in items:
                result = eq(v, item(row))
                if result is True:
                    found = True
                    break
                if result is None:
                    saw_null = True
            if found:
                out: Ternary = True
            elif saw_null:
                out = None
            else:
                out = False
            if negated:
                out = t_not(out)
            return bool_value(out)
        return in_list

    def _compile_case(self, expr: CaseNode) -> CompiledExpr:
        sem = self.semantics
        else_fn = self._compile(expr.else_) if expr.else_ is not None \
            else None
        if expr.operand is not None:
            operand = self._compile(expr.operand)
            whens = [(self._compile(cond),
                      sem.compile_compare(BinaryOp.EQ, expr.operand, cond),
                      self._compile(result))
                     for cond, result in expr.whens]

            def case_operand(row: Row) -> Value:
                base = operand(row)
                for cond_fn, eq, result_fn in whens:
                    if eq(base, cond_fn(row)) is True:
                        return result_fn(row)
                if else_fn is not None:
                    return else_fn(row)
                return NULL
            return case_operand

        to_bool = sem.to_bool
        searched = [(self._compile(cond), self._compile(result))
                    for cond, result in expr.whens]

        def case_searched(row: Row) -> Value:
            for cond_fn, result_fn in searched:
                if to_bool(cond_fn(row)) is True:
                    return result_fn(row)
            if else_fn is not None:
                return else_fn(row)
            return NULL
        return case_searched
