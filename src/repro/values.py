"""SQL value model shared by the oracle interpreter and the MiniDB engine.

A :class:`Value` is an immutable tagged union over the storage classes the
paper's target systems use: ``NULL``, ``INTEGER``, ``REAL``, ``TEXT`` and
``BLOB``, plus a first-class ``BOOLEAN`` for the PostgreSQL-style dialect
(SQLite and MySQL represent booleans as integers).

This module holds representation plus dialect-independent primitives:
64-bit integer bounds, numeric text prefix parsing (SQLite's cast rules),
storage-class ordering and the three collating sequences the paper's test
cases exercise (``BINARY``, ``NOCASE``, ``RTRIM``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Union

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

PyVal = Union[None, int, float, str, bytes, bool]

# NOTE: digit tests below are ASCII-only ("0" <= c <= "9"): SQL
# numeric syntax does not include Unicode digits, and Python's
# "0" <= str <= "9" accepts characters (e.g. superscripts) that int()
# rejects.


class SQLType(enum.Enum):
    """Storage class of a :class:`Value`."""

    NULL = "null"
    INTEGER = "integer"
    REAL = "real"
    TEXT = "text"
    BLOB = "blob"
    BOOLEAN = "boolean"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SQLType.{self.name}"


#: Cross-storage-class ordering used by SQLite (NULL < numbers < TEXT < BLOB).
STORAGE_ORDER = {
    SQLType.NULL: 0,
    SQLType.BOOLEAN: 1,  # ordered with numbers; PG orders bool separately
    SQLType.INTEGER: 1,
    SQLType.REAL: 1,
    SQLType.TEXT: 2,
    SQLType.BLOB: 3,
}


@dataclass(frozen=True, slots=True)
class Value:
    """An immutable SQL value: a storage class tag plus a Python payload."""

    t: SQLType
    v: PyVal

    # -- constructors -----------------------------------------------------
    @staticmethod
    def null() -> "Value":
        return NULL

    @staticmethod
    def integer(i: int) -> "Value":
        # Small-int interning: hunt workloads create the same small
        # integers millions of times (row ids, literals, comparison
        # results).  Values are immutable, so sharing is safe; the dict
        # lookup coerces bools/whole floats exactly like ``int(i)`` did.
        v = _SMALL_INTS.get(i)
        return v if v is not None else Value(SQLType.INTEGER, int(i))

    @staticmethod
    def real(f: float) -> "Value":
        return Value(SQLType.REAL, float(f))

    @staticmethod
    def text(s: str) -> "Value":
        return Value(SQLType.TEXT, s)

    @staticmethod
    def blob(b: bytes) -> "Value":
        return Value(SQLType.BLOB, bytes(b))

    @staticmethod
    def boolean(b: bool) -> "Value":
        return TRUE if b else FALSE

    @staticmethod
    def from_python(obj: PyVal) -> "Value":
        """Lift a plain Python object into a :class:`Value`.

        ``bool`` maps to BOOLEAN; callers targeting SQLite/MySQL dialects
        should convert booleans to integers themselves.
        """
        if obj is None:
            return NULL
        if isinstance(obj, bool):
            return Value.boolean(obj)
        if isinstance(obj, int):
            return Value.integer(obj)
        if isinstance(obj, float):
            return Value.real(obj)
        if isinstance(obj, str):
            return Value.text(obj)
        if isinstance(obj, bytes):
            return Value.blob(obj)
        raise TypeError(f"cannot lift {type(obj).__name__} into a SQL value")

    # -- predicates --------------------------------------------------------
    @property
    def is_null(self) -> bool:
        return self.t is SQLType.NULL

    @property
    def is_numeric(self) -> bool:
        return self.t in (SQLType.INTEGER, SQLType.REAL, SQLType.BOOLEAN)

    def __repr__(self) -> str:
        if self.is_null:
            return "NULL"
        return f"{self.t.name}:{self.v!r}"

    def __reduce__(self):
        # Every result cell crosses the worker pipe as a pickle.  The
        # default frozen-dataclass path reduces the SQLType enum per
        # cell; a small-int tag is cheaper and lets unpickling re-intern.
        return _unpickle, (_TYPE_INDEX[self.t], self.v)


NULL = Value(SQLType.NULL, None)
TRUE = Value(SQLType.BOOLEAN, True)
FALSE = Value(SQLType.BOOLEAN, False)

#: Interned INTEGER values for the small range hot loops churn through.
_SMALL_INTS = {i: Value(SQLType.INTEGER, i) for i in range(-128, 257)}

_TYPES = tuple(SQLType)
_TYPE_INDEX = {t: i for i, t in enumerate(_TYPES)}


def _unpickle(index: int, payload: PyVal) -> Value:
    """Inverse of :meth:`Value.__reduce__`; returns the interned
    ``NULL``/``TRUE``/``FALSE`` and small integers."""
    t = _TYPES[index]
    if t is SQLType.INTEGER:
        return Value.integer(payload)
    if t is SQLType.NULL:
        return NULL
    if t is SQLType.BOOLEAN:
        return TRUE if payload else FALSE
    return Value(t, payload)


def wrap_int64(i: int) -> int:
    """Wrap a Python integer into signed 64-bit two's-complement range."""
    return ((i - INT64_MIN) % (2**64)) + INT64_MIN


def fits_int64(i: int) -> bool:
    return INT64_MIN <= i <= INT64_MAX


def int_or_real(i: int) -> Value:
    """SQLite arithmetic result rule: out-of-range integers become REAL."""
    if fits_int64(i):
        return Value.integer(i)
    return Value.real(float(i))


#: Text→number parses repeat heavily (TEXT column values are drawn from
#: small vocabularies and re-coerced on every comparison), so memoize
#: the pure parse.  Bounded: cleared wholesale when it outgrows the
#: working set, matching the tokenizer's word-cache idiom.
_NUMERIC_PREFIX_CACHE: dict[str, tuple[float | int, bool]] = {}


def numeric_prefix(text: str) -> tuple[float | int, bool]:
    """Parse the longest numeric prefix of *text*, SQLite-cast style.

    Returns ``(number, is_int)``.  ``'  -12.5abc'`` parses to ``(-12.5,
    False)``; ``'abc'`` parses to ``(0, True)``.  Leading whitespace is
    skipped, as SQLite does.
    """
    cached = _NUMERIC_PREFIX_CACHE.get(text)
    if cached is not None:
        return cached
    result = _numeric_prefix(text)
    if len(_NUMERIC_PREFIX_CACHE) >= 4096:
        _NUMERIC_PREFIX_CACHE.clear()
    _NUMERIC_PREFIX_CACHE[text] = result
    return result


def _numeric_prefix(text: str) -> tuple[float | int, bool]:
    s = text.lstrip(" \t\n\r\f\v")
    i = 0
    n = len(s)
    if i < n and s[i] in "+-":
        i += 1
    int_digits = 0
    while i < n and "0" <= s[i] <= "9":
        i += 1
        int_digits += 1
    is_int = True
    frac_digits = 0
    if i < n and s[i] == ".":
        j = i + 1
        while j < n and "0" <= s[j] <= "9":
            j += 1
            frac_digits += 1
        if int_digits or frac_digits:
            i = j
            is_int = False
    if i < n and (int_digits or frac_digits) and s[i] in "eE":
        j = i + 1
        if j < n and s[j] in "+-":
            j += 1
        exp_digits = 0
        while j < n and "0" <= s[j] <= "9":
            j += 1
            exp_digits += 1
        if exp_digits:
            i = j
            is_int = False
    if int_digits == 0 and frac_digits == 0:
        return 0, True
    token = s[:i]
    if is_int:
        return int(token), True
    return float(token), False


def text_to_integer(text: str) -> int:
    """SQLite ``CAST(text AS INTEGER)``: longest ``[+-]?digits`` prefix.

    Unlike :func:`numeric_prefix`, this never consults the fractional part
    or exponent: ``CAST('9e99' AS INTEGER)`` is ``9`` and ``CAST('12.9' AS
    INTEGER)`` is ``12``.  Out-of-range digit strings clamp to the int64
    boundaries, as SQLite does.
    """
    s = text.lstrip(" \t\n\r\f\v")
    i = 0
    n = len(s)
    if i < n and s[i] in "+-":
        i += 1
    start_digits = i
    while i < n and "0" <= s[i] <= "9":
        i += 1
    if i == start_digits:
        return 0
    value = int(s[:i])
    if value > INT64_MAX:
        return INT64_MAX
    if value < INT64_MIN:
        return INT64_MIN
    return value


def text_to_real(text: str) -> float:
    num, _ = numeric_prefix(text)
    return float(num)


def real_to_integer(f: float) -> int:
    """SQLite ``CAST(real AS INTEGER)``: truncate toward zero, clamp to i64."""
    if math.isnan(f):
        return 0
    if f >= float(INT64_MAX):
        return INT64_MAX
    if f <= float(INT64_MIN):
        return INT64_MIN
    return math.trunc(f)


def format_real(f: float) -> str:
    """Render a REAL exactly the way SQLite prints it (``%!.15g``).

    Rules reverse-engineered and validated against SQLite 3.40: 15
    significant digits, a decimal point is always present (``1e14`` prints
    as ``100000000000000.0`` and ``9e99`` as ``9.0e+99``), exponents keep
    printf's minimum two digits, and negative zero prints as ``0.0``.
    """
    if math.isnan(f):
        return ""  # SQLite renders NaN as NULL; callers never pass NaN
    if math.isinf(f):
        return "Inf" if f > 0 else "-Inf"
    if f == 0.0:
        return "0.0"
    out = format(f, ".15g")
    if "e" in out:
        mantissa, _, exponent = out.partition("e")
        if "." not in mantissa:
            mantissa += ".0"
        return f"{mantissa}e{exponent}"
    if "." not in out:
        out += ".0"
    return out


# ---------------------------------------------------------------------------
# Collating sequences
# ---------------------------------------------------------------------------

def collate_binary(a: str, b: str) -> int:
    """Memcmp-style comparison over UTF-8 encodings."""
    ab, bb = a.encode("utf-8"), b.encode("utf-8")
    if ab < bb:
        return -1
    if ab > bb:
        return 1
    return 0


def collate_nocase(a: str, b: str) -> int:
    """SQLite NOCASE: ASCII-only case folding, then binary comparison."""
    return collate_binary(_ascii_lower(a), _ascii_lower(b))


def collate_rtrim(a: str, b: str) -> int:
    """SQLite RTRIM: ignore trailing spaces, then binary comparison."""
    return collate_binary(a.rstrip(" "), b.rstrip(" "))


def _ascii_lower(s: str) -> str:
    return "".join(chr(ord(c) + 32) if "A" <= c <= "Z" else c for c in s)


COLLATIONS: dict[str, Callable[[str, str], int]] = {
    "BINARY": collate_binary,
    "NOCASE": collate_nocase,
    "RTRIM": collate_rtrim,
}


def get_collation(name: str) -> Callable[[str, str], int]:
    try:
        return COLLATIONS[name.upper()]
    except KeyError:
        raise KeyError(f"no such collation sequence: {name}") from None


def compare_blobs(a: bytes, b: bytes) -> int:
    if a < b:
        return -1
    if a > b:
        return 1
    return 0


def compare_numbers(a: float | int | bool, b: float | int | bool) -> int:
    """Compare two numbers exactly (no float rounding for large ints)."""
    a = int(a) if isinstance(a, bool) else a
    b = int(b) if isinstance(b, bool) else b
    if isinstance(a, int) and isinstance(b, int):
        return (a > b) - (a < b)
    af, bf = float(a), float(b)
    if math.isnan(af) or math.isnan(bf):
        # SQL NaN never occurs in stored data (SQLite stores NULL instead);
        # order NaN lowest for determinism.
        an, bn = math.isnan(af), math.isnan(bf)
        if an and bn:
            return 0
        return -1 if an else 1
    return (af > bf) - (af < bf)
