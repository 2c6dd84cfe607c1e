"""MiniDB — a from-scratch relational engine, the system under test.

The paper evaluated PQS against live SQLite, MySQL and PostgreSQL builds.
Offline, MiniDB stands in for them: it is a real engine (SQL text in,
rows out) with three dialect personalities mirroring the semantic surfaces
on which the paper's bugs clustered, plus a fault-injection registry
(:mod:`repro.minidb.bugs`) whose defects are modeled one-for-one on bugs
the paper reports.  The PQS tool talks to MiniDB only through SQL — it
never inspects engine internals — so the oracle problem is the same as
against a production DBMS.

Architecture (one module per stage):

* :mod:`repro.minidb.tokens` / :mod:`repro.minidb.parser` — SQL front end,
  producing :mod:`repro.minidb.statements` objects whose expressions are
  shared :mod:`repro.sqlast` nodes;
* :mod:`repro.minidb.catalog` — schema objects (tables, columns, indexes,
  views) and name resolution;
* :mod:`repro.minidb.storage` — row storage and index structures;
* :mod:`repro.minidb.planner` — expression rewriting and access-path
  selection (where most injected optimizer bugs live);
* :mod:`repro.minidb.executor` — the SELECT pipeline;
* :mod:`repro.minidb.engine` — the public facade
  (:class:`~repro.minidb.engine.Engine`), statement dispatch, DML,
  constraints and maintenance commands.

Exports resolve on first access (:func:`repro._lazy.lazy_exports`):
:mod:`repro.minidb.bugs` is the defect catalog every campaign and the
CLI read, and it must not pull the engine into ``pqs sqlite``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.minidb.bugs import BUG_CATALOG, BugRegistry, InjectedBug
    from repro.minidb.engine import Engine, ResultSet

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.minidb.bugs": ("BUG_CATALOG", "BugRegistry", "InjectedBug"),
    "repro.minidb.engine": ("Engine", "ResultSet"),
})

__all__ = [
    "BUG_CATALOG",
    "BugRegistry",
    "Engine",
    "InjectedBug",
    "ResultSet",
]
