"""Expression AST node classes.

Nodes are pure data: evaluation lives in :mod:`repro.interp` (so the oracle
interpreter and MiniDB's engine-side evaluator can share or diverge
deliberately) and rendering lives in :mod:`repro.sqlast.render`.

Every node is immutable and hashable so generated expressions can be
deduplicated, cached and shrunk structurally by the reducer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from repro.values import Value


class UnaryOp(enum.Enum):
    NOT = "NOT"
    MINUS = "-"
    PLUS = "+"
    BITNOT = "~"


class PostfixOp(enum.Enum):
    """Postfix predicates (unary operators written after the operand)."""

    ISNULL = "ISNULL"
    NOTNULL = "NOTNULL"
    IS_TRUE = "IS TRUE"
    IS_FALSE = "IS FALSE"
    IS_NOT_TRUE = "IS NOT TRUE"
    IS_NOT_FALSE = "IS NOT FALSE"


class BinaryOp(enum.Enum):
    # arithmetic
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"
    # string
    CONCAT = "||"
    # bitwise
    BITAND = "&"
    BITOR = "|"
    SHL = "<<"
    SHR = ">>"
    # comparison
    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    # null-aware comparison
    IS = "IS"
    IS_NOT = "IS NOT"
    NULL_SAFE_EQ = "<=>"  # MySQL
    # pattern matching
    LIKE = "LIKE"
    NOT_LIKE = "NOT LIKE"
    GLOB = "GLOB"  # SQLite
    # logical
    AND = "AND"
    OR = "OR"

    @property
    def is_comparison(self) -> bool:
        return self in _COMPARISONS

    @property
    def is_logical(self) -> bool:
        return self in (BinaryOp.AND, BinaryOp.OR)


_COMPARISONS = frozenset(
    {
        BinaryOp.EQ,
        BinaryOp.NE,
        BinaryOp.LT,
        BinaryOp.LE,
        BinaryOp.GT,
        BinaryOp.GE,
        BinaryOp.IS,
        BinaryOp.IS_NOT,
        BinaryOp.NULL_SAFE_EQ,
        BinaryOp.LIKE,
        BinaryOp.NOT_LIKE,
        BinaryOp.GLOB,
    }
)


@dataclass(frozen=True, slots=True)
class Expr:
    """Base class for all expression nodes."""

    def children(self) -> tuple["Expr", ...]:
        return ()


@dataclass(frozen=True, slots=True)
class LiteralNode(Expr):
    """A constant value."""

    value: Value


@dataclass(frozen=True, slots=True)
class ColumnNode(Expr):
    """A reference to ``table.column``.

    ``collation`` records the column's declared collating sequence (if any)
    and ``affinity`` its type affinity ('INTEGER', 'TEXT', 'REAL', 'NUMERIC',
    'BLOB' or None), so the interpreter can compare values exactly the way
    the engine will.  Neither annotation is rendered into SQL text.
    """

    table: str
    column: str
    collation: Optional[str] = None
    affinity: Optional[str] = None

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.column}"


@dataclass(frozen=True, slots=True)
class UnaryNode(Expr):
    op: UnaryOp
    operand: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)


@dataclass(frozen=True, slots=True)
class PostfixNode(Expr):
    op: PostfixOp
    operand: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)


@dataclass(frozen=True, slots=True)
class BinaryNode(Expr):
    op: BinaryOp
    left: Expr
    right: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)


@dataclass(frozen=True, slots=True)
class BetweenNode(Expr):
    """``expr [NOT] BETWEEN lo AND hi``."""

    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.operand, self.low, self.high)


@dataclass(frozen=True, slots=True)
class InListNode(Expr):
    """``expr [NOT] IN (item, ...)``."""

    operand: Expr
    items: tuple[Expr, ...]
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,) + self.items


@dataclass(frozen=True, slots=True)
class CastNode(Expr):
    """``CAST(expr AS type_name)``; semantics of ``type_name`` are dialectal."""

    operand: Expr
    type_name: str

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)


@dataclass(frozen=True, slots=True)
class CollateNode(Expr):
    """``expr COLLATE name`` (SQLite)."""

    operand: Expr
    collation: str

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)


@dataclass(frozen=True, slots=True)
class CaseNode(Expr):
    """``CASE [operand] WHEN .. THEN .. [ELSE ..] END``."""

    operand: Optional[Expr]
    whens: tuple[tuple[Expr, Expr], ...]
    else_: Optional[Expr] = None

    def children(self) -> tuple[Expr, ...]:
        out: list[Expr] = []
        if self.operand is not None:
            out.append(self.operand)
        for cond, result in self.whens:
            out.append(cond)
            out.append(result)
        if self.else_ is not None:
            out.append(self.else_)
        return tuple(out)


@dataclass(frozen=True, slots=True)
class FunctionNode(Expr):
    """A scalar function call, e.g. ``ABS(x)`` or ``IFNULL(a, b)``."""

    name: str
    args: tuple[Expr, ...] = field(default_factory=tuple)

    def children(self) -> tuple[Expr, ...]:
        return self.args


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield *expr* and all descendants, preorder."""
    stack: list[Expr] = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


def depth(expr: Expr) -> int:
    """Height of the expression tree (a leaf has depth 1)."""
    kids = expr.children()
    if not kids:
        return 1
    return 1 + max(depth(k) for k in kids)


def count_nodes(expr: Expr) -> int:
    return sum(1 for _ in walk(expr))


ExprOrValue = Union[Expr, Value]
