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

from repro.adapters.base import DBMSConnection
from repro.adapters.faults import FaultPlan, FaultyConnection, FaultyFactory
from repro.adapters.minidb_adapter import MiniDBConnection
from repro.adapters.sqlite3_adapter import SQLite3Connection
from repro.adapters.subprocess_adapter import (
    SubprocessConfig,
    SubprocessConnection,
)

__all__ = [
    "DBMSConnection",
    "FaultPlan",
    "FaultyConnection",
    "FaultyFactory",
    "MiniDBConnection",
    "SQLite3Connection",
    "SubprocessConfig",
    "SubprocessConnection",
]
