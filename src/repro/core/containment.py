"""Containment checking — steps 6 and 7 of the paper's approach.

Two modes, both from the paper:

* **client-side**: fetch the query's result set and scan for the pivot
  (expected) row, comparing values with the dialect's row equality;
* **INTERSECT**: "we instead construct the query so that it checks for
  containment" (§3.2) — ``SELECT <pivot literals> INTERSECT <query>``
  returns a row iff the pivot row is contained.  (The MySQL dialect
  predates INTERSECT support, so it always checks client-side.)

Two subtleties make the check exact:

* **collations** — DISTINCT/GROUP BY deduplicate using each column's
  collating sequence, so the surviving representative of the pivot row
  may be a case/padding variant (``'AB'`` for pivot ``'ab'`` under
  NOCASE).  The client-side comparison therefore uses each target
  expression's collation, exactly like INTERSECT does engine-side.
* **extreme REALs** — SQLite's text-to-float parser can be one ulp off
  for literals with extreme exponents, so INTERSECT mode (which renders
  the pivot values as literals) falls back to the client-side check for
  such values.
"""

from __future__ import annotations

from repro.adapters.base import DBMSConnection
from repro.core.querygen import SynthesizedQuery
from repro.interp.base import Semantics, expr_collation
from repro.sqlast.render import render_literal
from repro.values import SQLType, Value


def check_containment(connection: DBMSConnection, query: SynthesizedQuery,
                      semantics: Semantics,
                      use_intersect: bool = False) -> bool:
    """True when the pivot row is contained in the query's result set."""
    if use_intersect and connection.dialect != "mysql" and \
            not query.has_order_by and \
            all(_intersect_safe(v) for v in query.expected):
        intersect_sql = containment_query(query, connection.dialect)
        rows = connection.execute(intersect_sql)
        return len(rows) > 0
    rows = connection.execute(query.sql)
    return rows_contain_pivot(rows, query, semantics, connection.dialect)


def rows_contain_pivot(rows: list, query: SynthesizedQuery,
                       semantics: Semantics, dialect: str) -> bool:
    """Client-side pivot check over already-fetched *rows*.

    The multi-plan oracle (:mod:`repro.multiplan`) uses this to
    arbitrate a plan divergence: each forced plan's result set is tested
    against the interpreter-computed pivot row without re-executing the
    query."""
    collations = _target_collations(query, dialect)
    return any(_row_matches(row, query.expected, semantics, collations)
               for row in rows)


def containment_query(query: SynthesizedQuery, dialect: str) -> str:
    """Render the INTERSECT form of the containment check."""
    literals = ", ".join(render_literal(v, dialect)
                         for v in query.expected)
    return f"SELECT {literals} INTERSECT {query.sql}"


def _target_collations(query: SynthesizedQuery,
                       dialect: str) -> list[str | None]:
    if dialect != "sqlite":
        return [None] * len(query.expected)
    out = []
    for target in query.targets:
        name, _explicit = expr_collation(target)
        out.append(name)
    # Aggregate/expression targets may not line up 1:1 in odd cases;
    # pad conservatively with BINARY.
    while len(out) < len(query.expected):
        out.append(None)
    return out


def _intersect_safe(v: Value) -> bool:
    """Can *v* round-trip through a rendered SQL literal exactly?"""
    if _is_nan(v):
        return False
    if v.t is SQLType.REAL:
        magnitude = abs(float(v.v))
        if magnitude != 0.0 and not (1e-200 <= magnitude <= 1e200):
            # sqlite3AtoF is not correctly rounded out here.
            return False
    return True


def _is_nan(v: Value) -> bool:
    return isinstance(v.v, float) and v.v != v.v


def _row_matches(row: tuple, expected: list[Value], semantics: Semantics,
                 collations: list[str | None]) -> bool:
    if len(row) != len(expected):
        return False
    return all(values_match(got, want, semantics, collation)
               for got, want, collation in zip(row, expected, collations))


def values_match(got: Value, want: Value, semantics: Semantics,
                 collation: str | None) -> bool:
    """Collation-aware value equality: TEXT compares under *collation*
    (only SQLite declares collations), everything else under the
    dialect's row equality."""
    if collation not in (None, "BINARY") and \
            got.t is SQLType.TEXT and want.t is SQLType.TEXT:
        from repro.interp.sqlite_sem import storage_compare

        return storage_compare(got, want, collation) == 0
    return semantics.values_equal(got, want)
