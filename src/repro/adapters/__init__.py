"""Connections to systems under test.

PQS talks to every target through :class:`DBMSConnection` — SQL strings
in, rows of :class:`~repro.values.Value` out, :class:`~repro.errors
.DBError`/:class:`~repro.errors.DBCrash` on failure.  The oracle never
sees engine internals, so testing MiniDB and testing a real SQLite build
via the stdlib bindings are the same code path.

:class:`SubprocessConnection` adds the fault-isolation layer: it runs
any picklable connection factory in a child process, turning real
crashes into :class:`~repro.errors.DBCrash`, hangs into
:class:`~repro.errors.DBTimeout`, and recovering state by replay after
either.  :mod:`repro.adapters.faults` provides deterministic
crash/hang/error plans for exercising that machinery (and all three
oracles) on demand.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.adapters.base import DBMSConnection
    from repro.adapters.faults import FaultPlan, FaultyConnection, FaultyFactory
    from repro.adapters.minidb_adapter import MiniDBConnection
    from repro.adapters.sqlite3_adapter import SQLite3Connection
    from repro.adapters.subprocess_adapter import SubprocessConnection

#: Where each public name is defined, imported on first access: an
#: exec-started isolated worker imports this package, and must not pay
#: for MiniDB.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.adapters.base": ("DBMSConnection",),
    "repro.adapters.faults": ("FaultPlan", "FaultyConnection",
                              "FaultyFactory"),
    "repro.adapters.minidb_adapter": ("MiniDBConnection",),
    "repro.adapters.sqlite3_adapter": ("SQLite3Connection",),
    "repro.adapters.subprocess_adapter": ("SubprocessConnection",),
})

__all__ = [
    "DBMSConnection",
    "FaultPlan",
    "FaultyConnection",
    "FaultyFactory",
    "MiniDBConnection",
    "SQLite3Connection",
    "SubprocessConnection",
]

