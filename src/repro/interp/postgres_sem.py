"""PostgreSQL-style value semantics.

PostgreSQL "performs only few implicit conversions" (paper §2) — the paper
attributes the low PQS bug yield on PostgreSQL to this strictness.  This
module models that strictness:

* boolean is a first-class type, and only booleans are accepted in boolean
  contexts (the generator must produce a boolean-typed root, paper §3.2);
* comparisons require compatible types, otherwise the engine reports
  ``operator does not exist`` (an *expected* error for the error oracle);
* division by zero is an error, not NULL;
* ``LEAST``/``GREATEST`` ignore NULL arguments (unlike MySQL);
* LIKE is case-sensitive.

Errors raised here are :class:`EvalError`; the generator discards such
expressions, mirroring how SQLancer's PostgreSQL generator constrains
itself to well-typed trees.
"""

from __future__ import annotations

import math

from repro.interp.base import CMP_FUNCS, EvalError, Semantics, Ternary
from repro.interp.patterns import like_match
from repro.sqlast.nodes import BinaryOp, Expr
from repro.values import (
    FALSE,
    INT64_MAX,
    INT64_MIN,
    NULL,
    TRUE,
    SQLType,
    Value,
    collate_binary,
    compare_blobs,
    compare_numbers,
    fits_int64,
    format_real,
)


class PostgresSemantics(Semantics):
    """PostgreSQL dialect semantics (see module docstring)."""

    name = "postgres"

    # -- boolean context -----------------------------------------------------
    def to_bool(self, v: Value) -> Ternary:
        if v.t is SQLType.NULL:
            return None
        if v.t is SQLType.BOOLEAN:
            return bool(v.v)
        raise EvalError(f"argument of WHERE must be type boolean, "
                        f"not type {v.t.value}")

    def bool_value(self, b: Ternary) -> Value:
        if b is None:
            return NULL
        return TRUE if b else FALSE

    # -- comparisons -----------------------------------------------------------
    def compile_compare(self, op: BinaryOp, left: Expr,
                        right: Expr | None):
        """PostgreSQL comparisons ignore the operand expressions, so a
        site compiles to one-time op dispatch plus per-call null checks
        and ``order``."""
        cmp = self.order
        null_t = SQLType.NULL
        if op is BinaryOp.NULL_SAFE_EQ:
            def no_such_op(lv: Value, rv: Value) -> Ternary:
                raise EvalError("operator does not exist: <=>")
            return no_such_op
        if op in (BinaryOp.IS, BinaryOp.IS_NOT):
            negate = op is BinaryOp.IS_NOT

            def null_safe(lv: Value, rv: Value) -> bool:
                ln = lv.t is null_t
                rn = rv.t is null_t
                equal = (ln and rn) if (ln or rn) else cmp(lv, rv) == 0
                return not equal if negate else equal
            return null_safe
        result = CMP_FUNCS[op]

        def ordered(lv: Value, rv: Value) -> Ternary:
            if lv.t is null_t or rv.t is null_t:
                return None
            return result(cmp(lv, rv))
        return ordered

    @staticmethod
    def order(a: Value, b: Value) -> int:
        if a.is_numeric and b.is_numeric:
            if (a.t is SQLType.BOOLEAN) != (b.t is SQLType.BOOLEAN):
                raise EvalError(
                    f"operator does not exist: {a.t.value} = {b.t.value}")
            an = int(a.v) if a.t is SQLType.BOOLEAN else a.v
            bn = int(b.v) if b.t is SQLType.BOOLEAN else b.v
            return compare_numbers(an, bn)  # type: ignore[arg-type]
        if a.t is SQLType.TEXT and b.t is SQLType.TEXT:
            return collate_binary(str(a.v), str(b.v))
        if a.t is SQLType.BLOB and b.t is SQLType.BLOB:
            return compare_blobs(bytes(a.v), bytes(b.v))
        raise EvalError(f"operator does not exist: {a.t.value} = {b.t.value}")

    @staticmethod
    def aggregate_number(v: Value) -> int | float:
        if v.t is SQLType.INTEGER:
            return int(v.v)
        if v.t is SQLType.REAL:
            return float(v.v)
        raise EvalError(f"function sum/avg requires numeric input, "
                        f"not {v.t.value}")

    # -- arithmetic ------------------------------------------------------------
    def arithmetic(self, op: BinaryOp, a: Value, b: Value) -> Value:
        if a.is_null or b.is_null:
            return NULL
        x = self._require_number(a)
        y = self._require_number(b)
        if op is BinaryOp.DIV:
            if isinstance(x, int) and isinstance(y, int):
                if y == 0:
                    raise EvalError("division by zero")
                q = abs(x) // abs(y)
                return self._int_result(-q if (x < 0) != (y < 0) else q)
            if float(y) == 0.0:
                raise EvalError("division by zero")
            return Value.real(float(x) / float(y))
        if op is BinaryOp.MOD:
            if not (isinstance(x, int) and isinstance(y, int)):
                raise EvalError("operator does not exist: double % double")
            if y == 0:
                raise EvalError("division by zero")
            r = abs(x) % abs(y)
            return Value.integer(-r if x < 0 else r)
        if isinstance(x, int) and isinstance(y, int):
            result = {BinaryOp.ADD: x + y, BinaryOp.SUB: x - y,
                      BinaryOp.MUL: x * y}[op]
            return self._int_result(result)
        fx, fy = float(x), float(y)
        return Value.real({BinaryOp.ADD: fx + fy, BinaryOp.SUB: fx - fy,
                           BinaryOp.MUL: fx * fy}[op])

    @staticmethod
    def _int_result(i: int) -> Value:
        if not fits_int64(i):
            raise EvalError("bigint out of range")
        return Value.integer(i)

    @staticmethod
    def _require_number(v: Value) -> int | float:
        if v.t is SQLType.INTEGER:
            return int(v.v)
        if v.t is SQLType.REAL:
            return float(v.v)
        raise EvalError(f"operator does not exist: {v.t.value} arithmetic")

    def bitwise(self, op: BinaryOp, a: Value, b: Value) -> Value:
        if a.is_null or b.is_null:
            return NULL
        if a.t is not SQLType.INTEGER or b.t is not SQLType.INTEGER:
            raise EvalError("operator does not exist: bitwise on non-integers")
        x, y = int(a.v), int(b.v)
        if op is BinaryOp.BITAND:
            return Value.integer(x & y)
        if op is BinaryOp.BITOR:
            return Value.integer(x | y)
        # PostgreSQL shifts use the count modulo the width (int8 → mod 64).
        shift = y % 64
        if op is BinaryOp.SHL:
            return Value.integer(_wrap64(x << shift))
        if op is BinaryOp.SHR:
            return Value.integer(x >> shift)
        raise EvalError(f"not a bitwise op: {op}")

    def negate(self, v: Value) -> Value:
        if v.is_null:
            return NULL
        num = self._require_number(v)
        if isinstance(num, int):
            return self._int_result(-num)
        return Value.real(-num)

    def bitnot(self, v: Value) -> Value:
        if v.is_null:
            return NULL
        if v.t is not SQLType.INTEGER:
            raise EvalError("operator does not exist: ~ non-integer")
        return Value.integer(_wrap64(~int(v.v)))

    # -- strings -----------------------------------------------------------
    def concat(self, a: Value, b: Value) -> Value:
        if a.is_null or b.is_null:
            return NULL
        if a.t is not SQLType.TEXT or b.t is not SQLType.TEXT:
            raise EvalError("operator does not exist: || on non-text")
        return Value.text(str(a.v) + str(b.v))

    def like(self, text: Value, pattern: Value) -> Ternary:
        if text.is_null or pattern.is_null:
            return None
        if text.t is not SQLType.TEXT or pattern.t is not SQLType.TEXT:
            raise EvalError("operator does not exist: LIKE on non-text")
        return like_match(str(text.v), str(pattern.v), case_sensitive=True,
                          escape="\\")

    def glob(self, text: Value, pattern: Value) -> Ternary:
        raise EvalError("GLOB is not supported by PostgreSQL")

    # -- casts ------------------------------------------------------------
    def cast(self, v: Value, type_name: str) -> Value:
        if v.is_null:
            return NULL
        upper = type_name.upper()
        if upper in ("INT", "INT4", "INT8", "BIGINT", "INTEGER"):
            if v.t is SQLType.INTEGER:
                return v
            if v.t is SQLType.REAL:
                return self._int_result(_round_half_even(float(v.v)))
            if v.t is SQLType.BOOLEAN:
                return Value.integer(1 if v.v else 0)
            if v.t is SQLType.TEXT:
                stripped = str(v.v).strip()
                if _is_int_literal(stripped):
                    return self._int_result(int(stripped))
                raise EvalError(
                    f"invalid input syntax for type integer: \"{v.v}\"")
            raise EvalError(f"cannot cast type {v.t.value} to integer")
        if upper in ("FLOAT8", "FLOAT", "DOUBLE PRECISION", "REAL"):
            if v.t is SQLType.REAL:
                return v
            if v.t is SQLType.INTEGER:
                return Value.real(float(v.v))
            if v.t is SQLType.TEXT:
                try:
                    return Value.real(float(str(v.v).strip()))
                except ValueError:
                    raise EvalError("invalid input syntax for type double "
                                    f"precision: \"{v.v}\"") from None
            raise EvalError(f"cannot cast type {v.t.value} to double precision")
        if upper == "TEXT":
            if v.t is SQLType.TEXT:
                return v
            if v.t is SQLType.INTEGER:
                return Value.text(str(v.v))
            if v.t is SQLType.REAL:
                return Value.text(format_real(float(v.v)))
            if v.t is SQLType.BOOLEAN:
                return Value.text("true" if v.v else "false")
            raise EvalError(f"cannot cast type {v.t.value} to text")
        if upper in ("BOOL", "BOOLEAN"):
            if v.t is SQLType.BOOLEAN:
                return v
            if v.t is SQLType.INTEGER:
                return Value.boolean(int(v.v) != 0)
            raise EvalError(f"cannot cast type {v.t.value} to boolean")
        raise EvalError(f"unknown CAST target: {type_name}")

    # -- functions -----------------------------------------------------------
    def call(self, name: str, args: list[Value],
             first_arg_collation: str | None = None) -> Value:
        from repro.interp.functions import POSTGRES_FUNCTIONS, check_arity

        check_arity(POSTGRES_FUNCTIONS, name, len(args))
        fn = name.upper()
        if fn == "COALESCE":
            for v in args:
                if not v.is_null:
                    return v
            return NULL
        if fn == "NULLIF":
            a, b = args
            if a.is_null or b.is_null:
                return a
            if self.order(a, b) == 0:
                return NULL
            return a
        if fn in ("LEAST", "GREATEST"):
            # PostgreSQL ignores NULL arguments.
            present = [v for v in args if not v.is_null]
            if not present:
                return NULL
            best = present[0]
            for v in present[1:]:
                cmp = self.order(v, best)
                if (fn == "LEAST" and cmp < 0) or (fn == "GREATEST" and cmp > 0):
                    best = v
            return best
        if fn == "ABS":
            v = args[0]
            if v.is_null:
                return NULL
            num = self._require_number(v)
            if isinstance(num, int):
                return self._int_result(abs(num))
            return Value.real(abs(num))
        if fn == "LENGTH":
            v = args[0]
            if v.is_null:
                return NULL
            if v.t is SQLType.TEXT:
                return Value.integer(len(str(v.v)))
            if v.t is SQLType.BLOB:
                return Value.integer(len(bytes(v.v)))
            raise EvalError("function length() requires text")
        if fn in ("LOWER", "UPPER"):
            v = args[0]
            if v.is_null:
                return NULL
            if v.t is not SQLType.TEXT:
                raise EvalError(f"function {fn.lower()}() requires text")
            text = str(v.v)
            return Value.text(text.lower() if fn == "LOWER" else text.upper())
        raise EvalError(f"no such function: {name}")

    # -- row equality ------------------------------------------------------
    def values_equal(self, a: Value, b: Value) -> bool:
        if a.is_null and b.is_null:
            return True
        if a.is_null or b.is_null:
            return False
        try:
            return self.order(a, b) == 0
        except EvalError:
            return False


def _wrap64(i: int) -> int:
    return ((i - INT64_MIN) % (2**64)) + INT64_MIN


def _round_half_even(f: float) -> int:
    if math.isnan(f):
        raise EvalError("integer out of range")
    if f > float(INT64_MAX) or f < float(INT64_MIN):
        raise EvalError("bigint out of range")
    floor = math.floor(f)
    diff = f - floor
    if diff > 0.5:
        return floor + 1
    if diff < 0.5:
        return floor
    return floor if floor % 2 == 0 else floor + 1


def _is_int_literal(s: str) -> bool:
    if not s:
        return False
    body = s[1:] if s[0] in "+-" else s
    return body.isdigit()

