"""MySQL-style value semantics.

Models the axes on which the paper's MySQL bugs clustered (§4.5): implicit
string→number conversion in numeric contexts, unsigned 64-bit integers
(``CAST(x AS UNSIGNED)``), the null-safe ``<=>`` operator, and value-range
behaviour of narrow column types (clipping happens at INSERT time in the
engine; this module only defines operator semantics over values).

Simplifications (documented in DESIGN.md): the session is assumed to run
with ``PIPES_AS_CONCAT`` (so ``||`` is string concatenation, as SQLancer's
generated queries assume), string comparison uses an ASCII
case-insensitive collation standing in for ``*_ci``, and all integer math
is BIGINT math.
"""

from __future__ import annotations

import math

from repro.interp.base import CMP_FUNCS, EvalError, Semantics, Ternary
from repro.interp.patterns import like_match
from repro.sqlast.nodes import BinaryOp, Expr
from repro.values import (
    INT64_MAX,
    INT64_MIN,
    NULL,
    SQLType,
    Value,
    collate_nocase,
    compare_blobs,
    compare_numbers,
    fits_int64,
    format_real,
    numeric_prefix,
)

#: Shared comparison-result singletons (see sqlite_sem.bool_value).
_INT_ZERO = Value.integer(0)
_INT_ONE = Value.integer(1)

UINT64_MAX = 2**64 - 1


def to_text(v: Value) -> str:
    if v.t is SQLType.TEXT:
        return str(v.v)
    if v.t is SQLType.INTEGER:
        return str(v.v)
    if v.t is SQLType.REAL:
        return format_real(float(v.v))
    if v.t is SQLType.BLOB:
        return bytes(v.v).decode("utf-8", errors="replace")
    if v.t is SQLType.BOOLEAN:
        return "1" if v.v else "0"
    raise EvalError(f"cannot render {v!r} as text")


def to_double(v: Value) -> float | None:
    """MySQL's numeric-context coercion: strings convert via prefix parse."""
    if v.t is SQLType.NULL:
        return None
    if v.t is SQLType.INTEGER:
        return float(v.v)
    if v.t is SQLType.REAL:
        return float(v.v)
    if v.t is SQLType.BOOLEAN:
        return 1.0 if v.v else 0.0
    num, _ = numeric_prefix(to_text(v))
    return float(num)


def to_number(v: Value) -> int | float | None:
    """Like :func:`to_double` but preserves exact integers."""
    if v.t is SQLType.NULL:
        return None
    if v.t is SQLType.INTEGER:
        return v.v  # payload is always an exact int (Value.integer coerces)
    if v.t is SQLType.REAL:
        return float(v.v)
    if v.t is SQLType.BOOLEAN:
        return 1 if v.v else 0
    num, is_int = numeric_prefix(to_text(v))
    return int(num) if is_int else float(num)


class MySQLSemantics(Semantics):
    """MySQL dialect semantics (see module docstring)."""

    name = "mysql"

    # -- boolean context -----------------------------------------------------
    def to_bool(self, v: Value) -> Ternary:
        # Per-type dispatch instead of going through to_double: this is
        # the hottest predicate call in mysql hunts, and the common
        # INTEGER/REAL/BOOLEAN cases need no coercion machinery.
        t = v.t
        if t is SQLType.INTEGER:
            return v.v != 0
        if t is SQLType.REAL:
            # NaN != 0.0 is True, matching the to_double-based behavior.
            return float(v.v) != 0.0
        if t is SQLType.BOOLEAN:
            return bool(v.v)
        if t is SQLType.NULL:
            return None
        return to_double(v) != 0.0

    def bool_value(self, b: Ternary) -> Value:
        if b is None:
            return NULL
        return _INT_ONE if b else _INT_ZERO

    # -- comparisons -----------------------------------------------------------
    def compile_compare(self, op: BinaryOp, left: Expr,
                        right: Expr | None):
        """MySQL comparisons ignore the operand expressions (no affinity
        or collation resolution), so a site compiles to op dispatch done
        once plus the per-call null checks and ``order``."""
        cmp = self.order
        null_t = SQLType.NULL
        if op in (BinaryOp.NULL_SAFE_EQ, BinaryOp.IS, BinaryOp.IS_NOT):
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
        if a.t is SQLType.INTEGER and b.t is SQLType.INTEGER:
            # Dominant case: exact int comparison, no coercion machinery
            # (identical to compare_numbers on two ints).
            av = a.v
            bv = b.v
            return (av > bv) - (av < bv)
        if a.t is SQLType.TEXT and b.t is SQLType.TEXT:
            return collate_nocase(str(a.v), str(b.v))
        if a.t is SQLType.BLOB and b.t is SQLType.BLOB:
            return compare_blobs(bytes(a.v), bytes(b.v))
        if a.t is SQLType.BLOB or b.t is SQLType.BLOB:
            # Mixed blob comparison falls back to binary string comparison.
            ab = bytes(a.v) if a.t is SQLType.BLOB else to_text(a).encode()
            bb = bytes(b.v) if b.t is SQLType.BLOB else to_text(b).encode()
            return compare_blobs(ab, bb)
        an = to_number(a)
        bn = to_number(b)
        assert an is not None and bn is not None
        return compare_numbers(an, bn)

    aggregate_number = staticmethod(to_number)

    # -- arithmetic ------------------------------------------------------------
    def arithmetic(self, op: BinaryOp, a: Value, b: Value) -> Value:
        x = to_number(a)
        y = to_number(b)
        if x is None or y is None:
            return NULL
        if op is BinaryOp.DIV:
            # MySQL / always produces an approximate result; /0 is NULL.
            if float(y) == 0.0:
                return NULL
            return _real_or_null(float(x) / float(y))
        if op is BinaryOp.MOD:
            if float(y) == 0.0:
                return NULL
            if isinstance(x, int) and isinstance(y, int):
                r = abs(x) % abs(y)
                return Value.integer(-r if x < 0 else r)
            fx = float(x)
            if math.isinf(fx) or math.isnan(fx):
                return NULL  # fmod(inf, y) is undefined
            return _real_or_null(math.fmod(fx, float(y)))
        if isinstance(x, int) and isinstance(y, int):
            result = {BinaryOp.ADD: x + y, BinaryOp.SUB: x - y,
                      BinaryOp.MUL: x * y}[op]
            if not (INT64_MIN <= result <= UINT64_MAX):
                raise EvalError("BIGINT value is out of range")
            return Value.integer(result)
        fx, fy = float(x), float(y)
        result = {BinaryOp.ADD: fx + fy, BinaryOp.SUB: fx - fy,
                  BinaryOp.MUL: fx * fy}[op]
        return _real_or_null(result)

    def bitwise(self, op: BinaryOp, a: Value, b: Value) -> Value:
        x = self._to_uint(a)
        y = self._to_uint(b)
        if x is None or y is None:
            return NULL
        if op is BinaryOp.BITAND:
            return Value.integer(x & y)
        if op is BinaryOp.BITOR:
            return Value.integer(x | y)
        if op is BinaryOp.SHL:
            return Value.integer((x << y) & UINT64_MAX if y < 64 else 0)
        if op is BinaryOp.SHR:
            return Value.integer(x >> y if y < 64 else 0)
        raise EvalError(f"not a bitwise op: {op}")

    @staticmethod
    def _to_uint(v: Value) -> int | None:
        num = to_double(v)
        if num is None:
            return None
        if math.isnan(num):
            return 0
        if math.isinf(num):
            return UINT64_MAX if num > 0 else 0
        i = int(num)
        return i % (2**64)

    def negate(self, v: Value) -> Value:
        num = to_number(v)
        if num is None:
            return NULL
        if isinstance(num, int):
            if not fits_int64(-num):
                raise EvalError("BIGINT value is out of range")
            return Value.integer(-num)
        return Value.real(-num)

    def bitnot(self, v: Value) -> Value:
        x = self._to_uint(v)
        if x is None:
            return NULL
        return Value.integer(x ^ UINT64_MAX)

    # -- strings -----------------------------------------------------------
    def concat(self, a: Value, b: Value) -> Value:
        if a.is_null or b.is_null:
            return NULL
        return Value.text(to_text(a) + to_text(b))

    def like(self, text: Value, pattern: Value) -> Ternary:
        if text.is_null or pattern.is_null:
            return None
        return like_match(to_text(text), to_text(pattern),
                          case_sensitive=False, escape="\\")

    def glob(self, text: Value, pattern: Value) -> Ternary:
        raise EvalError("GLOB is not supported by MySQL")

    # -- casts ------------------------------------------------------------
    def cast(self, v: Value, type_name: str) -> Value:
        if v.is_null:
            return NULL
        upper = type_name.upper()
        if upper == "SIGNED":
            num = to_number(v)
            assert num is not None
            i = int(num) if isinstance(num, int) else _mysql_round_int(num)
            return Value.integer(max(INT64_MIN, min(INT64_MAX, i)))
        if upper == "UNSIGNED":
            num = to_number(v)
            assert num is not None
            i = int(num) if isinstance(num, int) else _mysql_round_int(num)
            if i < 0:
                i = (i + 2**64) % (2**64)  # two's-complement reinterpretation
            return Value.integer(min(UINT64_MAX, i))
        if upper in ("CHAR", "TEXT"):
            return Value.text(to_text(v))
        if upper in ("DOUBLE", "FLOAT", "REAL"):
            num = to_double(v)
            assert num is not None
            return Value.real(num)
        if upper == "BINARY":
            return Value.blob(to_text(v).encode("utf-8"))
        raise EvalError(f"unknown CAST target: {type_name}")

    # -- functions -----------------------------------------------------------
    def call(self, name: str, args: list[Value],
             first_arg_collation: str | None = None) -> Value:
        from repro.interp.functions import MYSQL_FUNCTIONS, check_arity

        check_arity(MYSQL_FUNCTIONS, name, len(args))
        fn = name.upper()
        if fn == "COALESCE":
            for v in args:
                if not v.is_null:
                    return v
            return NULL
        if fn == "IFNULL":
            return args[0] if not args[0].is_null else args[1]
        if fn == "NULLIF":
            a, b = args
            if a.is_null or b.is_null:
                return a
            if self.order(a, b) == 0:
                return NULL
            return a
        if fn in ("LEAST", "GREATEST"):
            # MySQL returns NULL if any argument is NULL.
            if any(v.is_null for v in args):
                return NULL
            best = args[0]
            for v in args[1:]:
                cmp = self.order(v, best)
                if (fn == "LEAST" and cmp < 0) or (fn == "GREATEST" and cmp > 0):
                    best = v
            return best
        if fn == "ABS":
            num = to_number(args[0])
            if num is None:
                return NULL
            if isinstance(num, int):
                if not fits_int64(abs(num)):
                    raise EvalError("BIGINT value is out of range")
                return Value.integer(abs(num))
            return Value.real(abs(num))
        if fn == "LENGTH":
            v = args[0]
            if v.is_null:
                return NULL
            if v.t is SQLType.BLOB:
                return Value.integer(len(bytes(v.v)))
            return Value.integer(len(to_text(v).encode("utf-8")))
        if fn in ("LOWER", "UPPER"):
            v = args[0]
            if v.is_null:
                return NULL
            text = to_text(v)
            return Value.text(text.lower() if fn == "LOWER" else text.upper())
        if fn == "INSTR":
            a, b = args
            if a.is_null or b.is_null:
                return NULL
            return Value.integer(
                to_text(a).lower().find(to_text(b).lower()) + 1)
        if fn == "ROUND":
            num = to_double(args[0])
            if num is None:
                return NULL
            if math.isinf(num) or math.isnan(num):
                return _real_or_null(num)
            digits = 0
            if len(args) == 2:
                d = to_double(args[1])
                if d is None:
                    return NULL
                digits = int(d)
            scale = 10.0 ** digits
            scaled = num * scale
            out = math.floor(scaled + 0.5) if scaled >= 0 else \
                math.ceil(scaled - 0.5)
            result = out / scale
            if args[0].t is SQLType.INTEGER and digits >= 0:
                return Value.integer(int(result))
            return Value.real(result)
        if fn == "SUBSTR":
            from repro.interp.functions import _substr

            return _substr(args)
        raise EvalError(f"no such function: {name}")

    # -- row equality ------------------------------------------------------
    def values_equal(self, a: Value, b: Value) -> bool:
        an = a.t is SQLType.NULL
        bn = b.t is SQLType.NULL
        if an or bn:
            return an and bn
        return self.order(a, b) == 0


def _real_or_null(f: float) -> Value:
    """MySQL stores no NaN: undefined float results collapse to NULL."""
    if math.isnan(f):
        return NULL
    return Value.real(f)


def _mysql_round_int(f: float) -> int:
    """MySQL rounds (not truncates) when casting a double to an integer;
    infinities saturate past the integer range and are clamped by the
    cast's own range limits."""
    if math.isnan(f):
        return 0
    if math.isinf(f):
        return 2**64 if f > 0 else -(2**64)
    if f >= 0:
        return math.floor(f + 0.5)
    return math.ceil(f - 0.5)

