"""Exact SQLite value semantics.

SQLite is dynamically typed: any value can be stored in any column, columns
have *type affinity* rather than types, and most operators perform implicit
conversions.  The paper found the most bugs in SQLite precisely because of
this flexibility, so this module models the conversion machinery closely:

* storage classes and cross-class comparison ordering
  (NULL < numbers < TEXT < BLOB);
* affinity application before comparisons (SQLite docs §"Type Affinity");
* numeric prefix casts for arithmetic (``'5abc' + 1`` is ``6``);
* 64-bit integer arithmetic that overflows into REAL;
* collating sequences BINARY, NOCASE and RTRIM;
* LIKE (ASCII-case-insensitive) and GLOB (case-sensitive).

Tests cross-validate this module against the real SQLite via the stdlib
``sqlite3`` bindings on thousands of random expressions.
"""

from __future__ import annotations

import math

from repro.interp.base import (
    CMP_FUNCS,
    EvalError,
    Semantics,
    Ternary,
    comparison_collation,
    expr_affinity,
)
from repro.interp.patterns import glob_match, like_match
from repro.sqlast.nodes import BinaryOp, Expr, LiteralNode
from repro.values import (
    NULL,
    SQLType,
    Value,
    compare_blobs,
    compare_numbers,
    fits_int64,
    format_real,
    get_collation,
    int_or_real,
    numeric_prefix,
    real_to_integer,
    text_to_integer,
    text_to_real,
    wrap_int64,
)

#: Shared comparison-result singletons: bool_value runs once per
#: predicate evaluation, so skip the small-int intern lookup entirely.
_INT_ZERO = Value.integer(0)
_INT_ONE = Value.integer(1)

NUMERIC_AFFINITIES = frozenset({"INTEGER", "REAL", "NUMERIC"})

# ASCII-only digit tests, matching SQLite's C scanner (see values.py).


def blob_to_text(b: bytes) -> str:
    """SQLite treats a BLOB cast to TEXT as raw bytes reinterpreted."""
    return b.decode("utf-8", errors="replace")


def to_text(v: Value) -> str:
    """``CAST(v AS TEXT)`` for non-NULL *v*."""
    if v.t is SQLType.TEXT:
        return str(v.v)
    if v.t is SQLType.INTEGER:
        return str(v.v)
    if v.t is SQLType.REAL:
        return format_real(float(v.v))
    if v.t is SQLType.BLOB:
        return blob_to_text(bytes(v.v))
    if v.t is SQLType.BOOLEAN:
        return "1" if v.v else "0"
    raise EvalError(f"cannot cast {v!r} to TEXT")


def to_numeric(v: Value) -> int | float | None:
    """Numeric coercion used by arithmetic; ``None`` for NULL."""
    t = v.t
    if t is SQLType.INTEGER:
        return v.v  # payload is always an exact int (Value.integer coerces)
    if t is SQLType.NULL:
        return None
    if t is SQLType.REAL:
        return float(v.v)
    if t is SQLType.BOOLEAN:
        return 1 if v.v else 0
    # TEXT payloads skip the to_text dispatch (it would return v.v).
    text = v.v if t is SQLType.TEXT else to_text(v)
    num, is_int = numeric_prefix(text)
    if is_int:
        # Integer literals beyond the int64 range become REAL, not wrapped.
        return int(num) if fits_int64(int(num)) else float(num)
    return float(num)


def to_int64(v: Value) -> int | None:
    """``CAST(v AS INTEGER)``; ``None`` for NULL."""
    if v.t is SQLType.NULL:
        return None
    if v.t is SQLType.INTEGER:
        return int(v.v)
    if v.t is SQLType.BOOLEAN:
        return 1 if v.v else 0
    if v.t is SQLType.REAL:
        return real_to_integer(float(v.v))
    return text_to_integer(to_text(v))


def is_well_formed_number(text: str) -> tuple[bool, int | float | None]:
    """Does the *entire* string form a numeric literal (SQLite affinity rule)?"""
    stripped = text.strip(" \t\n\r\f\v")
    if not stripped:
        return False, None
    num, is_int = numeric_prefix(stripped)
    consumed = _numeric_prefix_length(stripped)
    if consumed != len(stripped):
        return False, None
    if is_int:
        return True, int(num)
    return True, float(num)


def _numeric_prefix_length(s: str) -> int:
    i, n = 0, len(s)
    if i < n and s[i] in "+-":
        i += 1
    digits = 0
    while i < n and "0" <= s[i] <= "9":
        i += 1
        digits += 1
    if i < n and s[i] == ".":
        j = i + 1
        frac = 0
        while j < n and "0" <= s[j] <= "9":
            j += 1
            frac += 1
        if digits or frac:
            i = j
            digits += frac
    if digits and i < n and s[i] in "eE":
        j = i + 1
        if j < n and s[j] in "+-":
            j += 1
        exp = 0
        while j < n and "0" <= s[j] <= "9":
            j += 1
            exp += 1
        if exp:
            i = j
    return i if digits else 0


def apply_numeric_affinity(v: Value) -> Value:
    """Convert TEXT to a number if (and only if) it is well formed & lossless."""
    if v.t is not SQLType.TEXT:
        if v.t is SQLType.BOOLEAN:
            return Value.integer(1 if v.v else 0)
        return v
    ok, num = is_well_formed_number(str(v.v))
    if not ok:
        return v
    if isinstance(num, int):
        if fits_int64(num):
            return Value.integer(num)
        return Value.real(float(num))
    assert num is not None
    if not math.isinf(num) and not math.isnan(num) and \
            num == math.trunc(num) and fits_int64(int(num)):
        as_int = int(num)
        if float(as_int) == num:
            return Value.integer(as_int)
    return Value.real(float(num))


def apply_text_affinity(v: Value) -> Value:
    if v.t in (SQLType.INTEGER, SQLType.REAL, SQLType.BOOLEAN):
        return Value.text(to_text(v))
    return v


def apply_affinity(v: Value, affinity: str | None) -> Value:
    """Apply a column affinity to a value being stored (INSERT-time rule)."""
    if v.t is SQLType.NULL or affinity is None or affinity == "BLOB":
        if v.t is SQLType.BOOLEAN:
            return Value.integer(1 if v.v else 0)
        return v
    if affinity in ("INTEGER", "NUMERIC"):
        out = apply_numeric_affinity(v)
        if affinity == "INTEGER" and out.t is SQLType.REAL:
            f = float(out.v)
            if f == math.trunc(f) and fits_int64(int(f)):
                return Value.integer(int(f))
        return out
    if affinity == "REAL":
        out = apply_numeric_affinity(v)
        if out.t is SQLType.INTEGER:
            as_real = float(out.v)
            if int(as_real) == out.v:
                return Value.real(as_real)
        return out
    if affinity == "TEXT":
        return apply_text_affinity(v)
    return v


#: Cross-class comparison ranks (numbers < TEXT < BLOB); NULL deliberately
#: absent — callers comparing NULLs get the historical KeyError.
_STORAGE_RANK = {SQLType.BOOLEAN: 1, SQLType.INTEGER: 1, SQLType.REAL: 1,
                 SQLType.TEXT: 2, SQLType.BLOB: 3}


def storage_compare(a: Value, b: Value, collation_name: str = "BINARY") -> int:
    """Total order over non-NULL SQLite values (used by =, <, ORDER BY)."""
    ra, rb = _STORAGE_RANK[a.t], _STORAGE_RANK[b.t]
    if ra != rb:
        return -1 if ra < rb else 1
    if ra == 1:
        return compare_numbers(a.v, b.v)  # type: ignore[arg-type]
    if ra == 2:
        return get_collation(collation_name)(str(a.v), str(b.v))
    return compare_blobs(bytes(a.v), bytes(b.v))


def _storage_compare_collated(a: Value, b: Value, collate) -> int:
    """:func:`storage_compare` with a pre-resolved collation function."""
    ra, rb = _STORAGE_RANK[a.t], _STORAGE_RANK[b.t]
    if ra != rb:
        return -1 if ra < rb else 1
    if ra == 1:
        return compare_numbers(a.v, b.v)  # type: ignore[arg-type]
    if ra == 2:
        return collate(str(a.v), str(b.v))
    return compare_blobs(bytes(a.v), bytes(b.v))


class SQLiteSemantics(Semantics):
    """SQLite dialect semantics (see module docstring)."""

    name = "sqlite"
    like_case_sensitive = False
    order = staticmethod(storage_compare)
    aggregate_number = staticmethod(to_numeric)

    # -- boolean context -----------------------------------------------------
    def to_bool(self, v: Value) -> Ternary:
        t = v.t
        if t is SQLType.INTEGER:
            # Dominant case: comparison results are 0/1 integers.
            return v.v != 0
        if t is SQLType.NULL:
            return None
        if t is SQLType.BOOLEAN:
            return bool(v.v)
        num = to_numeric(v)
        assert num is not None
        return num != 0

    def bool_value(self, b: Ternary) -> Value:
        if b is None:
            return NULL
        return _INT_ONE if b else _INT_ZERO

    # -- comparisons -----------------------------------------------------------
    def compile_compare(self, op: BinaryOp, left: Expr,
                        right: Expr | None):
        """The affinity conversion and collating sequence depend only on
        the operand *expressions*, so both are resolved once per site."""
        # An IN-list item (right=None) acts as a bare literal: no
        # affinity, no collation — exactly what a LiteralNode supplies.
        right_expr: Expr = LiteralNode(NULL) if right is None else right
        convert = _comparison_converter(left, right_expr)
        collate = get_collation(comparison_collation(left, right_expr))
        if op in (BinaryOp.IS, BinaryOp.IS_NOT, BinaryOp.NULL_SAFE_EQ):
            negate = op is BinaryOp.IS_NOT

            def null_safe(lv: Value, rv: Value) -> bool:
                lv, rv = convert(lv, rv)
                if lv.is_null and rv.is_null:
                    equal = True
                elif lv.is_null or rv.is_null:
                    equal = False
                else:
                    equal = _storage_compare_collated(lv, rv, collate) == 0
                return not equal if negate else equal
            return null_safe

        result = CMP_FUNCS[op]
        null_t = SQLType.NULL

        def ordered(lv: Value, rv: Value) -> Ternary:
            lv, rv = convert(lv, rv)
            if lv.t is null_t or rv.t is null_t:
                return None
            return result(_storage_compare_collated(lv, rv, collate))
        return ordered

    # -- arithmetic ------------------------------------------------------------
    def arithmetic(self, op: BinaryOp, a: Value, b: Value) -> Value:
        x = to_numeric(a)
        y = to_numeric(b)
        if x is None or y is None:
            return NULL
        if op is BinaryOp.ADD:
            return self._num_result(x, y, lambda p, q: p + q)
        if op is BinaryOp.SUB:
            return self._num_result(x, y, lambda p, q: p - q)
        if op is BinaryOp.MUL:
            return self._num_result(x, y, lambda p, q: p * q)
        if op is BinaryOp.DIV:
            return self._divide(x, y)
        if op is BinaryOp.MOD:
            return self._modulo(a, b, x, y)
        raise EvalError(f"not an arithmetic op: {op}")

    @staticmethod
    def _num_result(x, y, fn) -> Value:
        if isinstance(x, int) and isinstance(y, int):
            exact = fn(x, y)
            if fits_int64(exact):
                return Value.integer(exact)
            # On int64 overflow SQLite *redoes the operation in doubles*
            # (it does not convert the exact wide result), so e.g.
            # 87 * 2851427734582196970 rounds each operand first.
        try:
            out = float(fn(float(x), float(y)))
        except OverflowError:
            return Value.real(math.inf if fn(1.0, 1.0) >= 0 else -math.inf)
        if math.isnan(out):
            return NULL  # SQLite replaces NaN results with NULL
        return Value.real(out)

    @staticmethod
    def _divide(x, y) -> Value:
        if isinstance(x, int) and isinstance(y, int):
            if y == 0:
                return NULL
            q = abs(x) // abs(y)
            if (x < 0) != (y < 0):
                q = -q
            return int_or_real(q)
        if float(y) == 0.0:
            return NULL
        out = float(x) / float(y)
        if math.isnan(out):
            return NULL
        return Value.real(out)

    @staticmethod
    def _modulo(a: Value, b: Value, x, y) -> Value:
        # SQLite casts both operands of % to INTEGER *from their original
        # representation* (text uses the digit prefix: '9e99' % 10 is 9.0),
        # while the result is REAL whenever either operand's numeric value
        # was REAL (5.5 % 2 == 1.0, '5.5' % 2 == 1.0).
        xi = to_int64(a)
        yi = to_int64(b)
        assert xi is not None and yi is not None
        if yi == 0:
            return NULL
        r = abs(xi) % abs(yi)
        if xi < 0:
            r = -r
        if isinstance(x, float) or isinstance(y, float):
            return Value.real(float(r))
        return Value.integer(r)

    # -- bitwise ------------------------------------------------------------
    def bitwise(self, op: BinaryOp, a: Value, b: Value) -> Value:
        x = to_int64(a)
        y = to_int64(b)
        if x is None or y is None:
            return NULL
        if op is BinaryOp.BITAND:
            return Value.integer(wrap_int64(x & y))
        if op is BinaryOp.BITOR:
            return Value.integer(wrap_int64(x | y))
        if op is BinaryOp.SHL:
            return Value.integer(_shift_left(x, y))
        if op is BinaryOp.SHR:
            return Value.integer(_shift_right(x, y))
        raise EvalError(f"not a bitwise op: {op}")

    def negate(self, v: Value) -> Value:
        num = to_numeric(v)
        if num is None:
            return NULL
        if isinstance(num, int):
            return int_or_real(-num)
        return Value.real(-num)

    def bitnot(self, v: Value) -> Value:
        x = to_int64(v)
        if x is None:
            return NULL
        return Value.integer(wrap_int64(~x))

    # -- strings -----------------------------------------------------------
    def concat(self, a: Value, b: Value) -> Value:
        if a.is_null or b.is_null:
            return NULL
        return Value.text(to_text(a) + to_text(b))

    def like(self, text: Value, pattern: Value) -> Ternary:
        # SQLite: a BLOB on either side makes LIKE false, even before the
        # NULL check (NULL LIKE X'41' is 0, not NULL).
        if text.t is SQLType.BLOB or pattern.t is SQLType.BLOB:
            return False
        if text.is_null or pattern.is_null:
            return None
        return like_match(to_text(text), to_text(pattern),
                          case_sensitive=self.like_case_sensitive)

    def glob(self, text: Value, pattern: Value) -> Ternary:
        if text.t is SQLType.BLOB or pattern.t is SQLType.BLOB:
            return False
        if text.is_null or pattern.is_null:
            return None
        return glob_match(to_text(text), to_text(pattern))

    # -- casts ------------------------------------------------------------
    def cast(self, v: Value, type_name: str) -> Value:
        if v.is_null:
            return NULL
        from repro.interp.base import affinity_of_type_name

        affinity = affinity_of_type_name(type_name)
        if affinity == "INTEGER":
            out = to_int64(v)
            assert out is not None
            return Value.integer(out)
        if affinity == "REAL":
            if v.t is SQLType.REAL:
                return v
            if v.t in (SQLType.INTEGER, SQLType.BOOLEAN):
                return Value.real(float(to_numeric(v)))  # type: ignore[arg-type]
            return Value.real(text_to_real(to_text(v)))
        if affinity == "TEXT":
            return Value.text(to_text(v))
        if affinity == "BLOB":
            if v.t is SQLType.BLOB:
                return v
            return Value.blob(to_text(v).encode("utf-8"))
        # NUMERIC: a no-op on values that are already numeric; TEXT and BLOB
        # prefix-parse, preferring INTEGER when the value is integral.
        if v.t in (SQLType.INTEGER, SQLType.REAL):
            return v
        if v.t is SQLType.BOOLEAN:
            return Value.integer(1 if v.v else 0)
        num = to_numeric(v)
        assert num is not None
        if isinstance(num, int):
            return int_or_real(num)
        if not math.isinf(num) and not math.isnan(num) and \
                num == math.trunc(num) and fits_int64(int(num)) and \
                float(int(num)) == num:
            return Value.integer(int(num))
        return Value.real(num)

    # -- functions -----------------------------------------------------------
    def call(self, name: str, args: list[Value],
             first_arg_collation: str | None = None) -> Value:
        from repro.interp.functions import call_sqlite_function

        return call_sqlite_function(self, name, args, first_arg_collation)

    # -- row equality ------------------------------------------------------
    def values_equal(self, a: Value, b: Value) -> bool:
        """Equality used by INTERSECT/DISTINCT: NULLs are equal to each other."""
        an = a.t is SQLType.NULL
        bn = b.t is SQLType.NULL
        if an or bn:
            return an and bn
        return storage_compare(_debooleanize(a), _debooleanize(b)) == 0


def _debooleanize(v: Value) -> Value:
    """SQLite has no boolean storage class; normalize to INTEGER."""
    if v.t is SQLType.BOOLEAN:
        return Value.integer(1 if v.v else 0)
    return v


def _convert_right_numeric(lv: Value, rv: Value) -> tuple[Value, Value]:
    return lv, apply_numeric_affinity(rv)


def _convert_left_numeric(lv: Value, rv: Value) -> tuple[Value, Value]:
    return apply_numeric_affinity(lv), rv


def _convert_right_text(lv: Value, rv: Value) -> tuple[Value, Value]:
    return lv, apply_text_affinity(rv)


def _convert_left_text(lv: Value, rv: Value) -> tuple[Value, Value]:
    return apply_text_affinity(lv), rv


def _convert_none(lv: Value, rv: Value) -> tuple[Value, Value]:
    return _debooleanize(lv), _debooleanize(rv)


def _comparison_converter(left: Expr, right: Expr):
    """The affinity conversion a comparison of *left* and *right* applies,
    resolved from the operand expressions alone (SQLite §"Type Affinity").

    TEXT affinity reaches the other operand only when that operand has
    no affinity at all (``sqlite3CompareAffinity``): a BLOB-affinity
    column, e.g. one declared without a type, is compared as stored."""
    laff = expr_affinity(left)
    raff = expr_affinity(right)
    l_num = laff in NUMERIC_AFFINITIES
    r_num = raff in NUMERIC_AFFINITIES
    if l_num and not r_num:
        return _convert_right_numeric
    if r_num and not l_num:
        return _convert_left_numeric
    if laff == "TEXT" and raff is None:
        return _convert_right_text
    if raff == "TEXT" and laff is None:
        return _convert_left_text
    return _convert_none


def _shift_left(x: int, y: int) -> int:
    if y < 0:
        return _shift_right(x, -y) if y > -10_000 else (0 if x >= 0 else -1)
    if y >= 64:
        return 0
    return wrap_int64(x << y)


def _shift_right(x: int, y: int) -> int:
    if y < 0:
        return _shift_left(x, -y) if y > -10_000 else 0
    if y >= 64:
        return 0 if x >= 0 else -1
    return wrap_int64(x >> y)
