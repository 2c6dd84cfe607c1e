"""The exact expression interpreter — the oracle side of PQS.

The paper (§3, Algorithm 2) bases the containment oracle on an AST
interpreter that evaluates the randomly generated expression against the
pivot row.  "Basing the approach on an AST interpreter provides us with an
exact oracle": it operates only on literal values, never touches storage or
a query planner, and is therefore straightforward to make correct.

:class:`Interpreter` drives node dispatch; per-dialect :class:`Semantics`
subclasses implement the value-level behaviour (casts, affinity,
comparisons, pattern matching, arithmetic, functions).
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.interp.base import EvalError, Interpreter, Row, t_and, t_not, t_or

if TYPE_CHECKING:
    from repro.interp.base import Semantics
    from repro.interp.mysql_sem import MySQLSemantics
    from repro.interp.postgres_sem import PostgresSemantics
    from repro.interp.sqlite_sem import SQLiteSemantics

#: A dialect's semantics module is imported when that dialect is first
#: asked for (:func:`repro._lazy.lazy_exports`): ``pqs sqlite`` runs
#: SQLite's alone.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.interp.mysql_sem": ("MySQLSemantics",),
    "repro.interp.postgres_sem": ("PostgresSemantics",),
    "repro.interp.sqlite_sem": ("SQLiteSemantics",),
})

_SEMANTICS = {
    "sqlite": "SQLiteSemantics",
    "mysql": "MySQLSemantics",
    "postgres": "PostgresSemantics",
}


def get_semantics(dialect: str) -> Semantics:
    """Return a fresh semantics object for *dialect* (sqlite/mysql/postgres)."""
    try:
        name = _SEMANTICS[dialect]
    except KeyError:
        raise ValueError(f"unknown dialect: {dialect!r}") from None
    return getattr(sys.modules[__name__], name)()


def make_interpreter(dialect: str) -> Interpreter:
    """Build an :class:`Interpreter` with the named dialect's semantics."""
    return Interpreter(get_semantics(dialect))


__all__ = [
    "EvalError",
    "Interpreter",
    "MySQLSemantics",
    "PostgresSemantics",
    "Row",
    "SQLiteSemantics",
    "get_semantics",
    "make_interpreter",
    "t_and",
    "t_not",
    "t_or",
]
