"""Render expression ASTs to SQL text.

Output is fully parenthesized, the same strategy SQLancer uses: the point of
the generated SQL is to be unambiguous for the system under test, not pretty.
Literal syntax differs per dialect (blob literals, booleans), which is why
rendering takes the dialect name.
"""

from __future__ import annotations

from repro.sqlast.nodes import (
    BetweenNode,
    BinaryNode,
    CaseNode,
    CastNode,
    CollateNode,
    ColumnNode,
    Expr,
    FunctionNode,
    InListNode,
    LiteralNode,
    PostfixNode,
    UnaryNode,
)
from repro.values import SQLType, Value

SQLITE = "sqlite"
MYSQL = "mysql"
POSTGRES = "postgres"


def render_literal(value: Value, dialect: str = SQLITE) -> str:
    """Render a :class:`Value` as a SQL literal in the given dialect."""
    if value.t is SQLType.NULL:
        return "NULL"
    if value.t is SQLType.INTEGER:
        return str(value.v)
    if value.t is SQLType.REAL:
        # Literals must round-trip exactly (repr is shortest-exact);
        # format_real's SQLite-style 15-digit text is for value->TEXT
        # casts, not for SQL source.  Infinities have no literal form,
        # so render an overflowing literal that parses back to inf.
        f = float(value.v)
        if f != f:
            return "NULL"
        if f == float("inf"):
            return "9e999"
        if f == float("-inf"):
            return "-9e999"
        return repr(f)
    if value.t is SQLType.TEXT:
        escaped = str(value.v).replace("'", "''")
        if dialect == MYSQL:
            # MySQL additionally treats backslash as an escape character.
            escaped = escaped.replace("\\", "\\\\")
        return f"'{escaped}'"
    if value.t is SQLType.BLOB:
        hexed = bytes(value.v).hex().upper()
        if dialect == POSTGRES:
            return f"'\\x{hexed}'::bytea"
        return f"X'{hexed}'"
    if value.t is SQLType.BOOLEAN:
        if dialect == POSTGRES:
            return "TRUE" if value.v else "FALSE"
        return "1" if value.v else "0"
    raise ValueError(f"cannot render {value!r}")


def render_expr(expr: Expr, dialect: str = SQLITE) -> str:
    """Render an expression tree as SQL text for *dialect*."""
    if isinstance(expr, LiteralNode):
        return render_literal(expr.value, dialect)
    if isinstance(expr, ColumnNode):
        return expr.qualified
    if isinstance(expr, UnaryNode):
        inner = render_expr(expr.operand, dialect)
        # Always put a space after the operator: "--" would start a comment.
        return f"({expr.op.value} {inner})"
    if isinstance(expr, PostfixNode):
        inner = render_expr(expr.operand, dialect)
        return f"({inner} {_postfix_text(expr, dialect)})"
    if isinstance(expr, BinaryNode):
        left = render_expr(expr.left, dialect)
        right = render_expr(expr.right, dialect)
        return f"({left} {expr.op.value} {right})"
    if isinstance(expr, BetweenNode):
        head = render_expr(expr.operand, dialect)
        low = render_expr(expr.low, dialect)
        high = render_expr(expr.high, dialect)
        kw = "NOT BETWEEN" if expr.negated else "BETWEEN"
        return f"({head} {kw} {low} AND {high})"
    if isinstance(expr, InListNode):
        head = render_expr(expr.operand, dialect)
        items = ", ".join(render_expr(item, dialect) for item in expr.items)
        kw = "NOT IN" if expr.negated else "IN"
        return f"({head} {kw} ({items}))"
    if isinstance(expr, CastNode):
        inner = render_expr(expr.operand, dialect)
        return f"CAST({inner} AS {expr.type_name})"
    if isinstance(expr, CollateNode):
        inner = render_expr(expr.operand, dialect)
        return f"({inner} COLLATE {expr.collation})"
    if isinstance(expr, CaseNode):
        return _render_case(expr, dialect)
    if isinstance(expr, FunctionNode):
        args = ", ".join(render_expr(arg, dialect) for arg in expr.args)
        return f"{expr.name}({args})"
    raise ValueError(f"cannot render node {expr!r}")


def _postfix_text(expr: PostfixNode, dialect: str) -> str:
    from repro.sqlast.nodes import PostfixOp

    if dialect != SQLITE and expr.op in (PostfixOp.ISNULL, PostfixOp.NOTNULL):
        # MySQL and PostgreSQL spell these with the IS keyword.
        return "IS NULL" if expr.op is PostfixOp.ISNULL else "IS NOT NULL"
    return expr.op.value


def _render_case(expr: CaseNode, dialect: str) -> str:
    parts = ["CASE"]
    if expr.operand is not None:
        parts.append(render_expr(expr.operand, dialect))
    for cond, result in expr.whens:
        parts.append(f"WHEN {render_expr(cond, dialect)}")
        parts.append(f"THEN {render_expr(result, dialect)}")
    if expr.else_ is not None:
        parts.append(f"ELSE {render_expr(expr.else_, dialect)}")
    parts.append("END")
    return f"({' '.join(parts)})"
