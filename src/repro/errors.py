"""Exception hierarchy shared across the PQS reproduction.

Three families of errors matter to the oracles described in the paper:

* errors raised by the system under test while executing SQL
  (:class:`DBError` and subclasses) — these feed the *error oracle*;
* a simulated hard crash (:class:`DBCrash`) — this feeds the *crash oracle*;
* errors in the testing tool itself (:class:`PQSError` and subclasses),
  which are never attributed to the system under test.
"""

from __future__ import annotations


class PQSError(Exception):
    """Base class for errors raised by the testing tool itself."""


class ReductionError(PQSError):
    """Test-case reduction failed to preserve the failure it was given."""


class HarnessError(PQSError):
    """The fault-isolation harness could not keep a target alive.

    Raised when the subprocess harness exhausts its restart budget —
    e.g. the target crashes during every state-restoring replay.  This
    is an availability failure of the *harness*, distinct from the
    per-statement :class:`DBCrash`/:class:`DBTimeout` signals the
    oracles consume.
    """


class DBError(Exception):
    """An error reported by a system under test while executing a statement.

    ``message`` mirrors what a DBMS would print (e.g. ``UNIQUE constraint
    failed: t0.c0``).  The error oracle classifies instances as *expected*
    (part of normal operation under random statement generation) or
    *unexpected* (a bug, e.g. database corruption).
    """

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class ParseError(DBError):
    """The engine could not parse the statement text."""


class CatalogError(DBError):
    """Schema-level failure: unknown table/column, duplicate name, etc."""


class TypeError_(DBError):
    """Type-system failure (strict dialects): operator does not exist, etc."""


class ConstraintError(DBError):
    """A constraint (UNIQUE, PRIMARY KEY, NOT NULL) rejected a modification."""


class IntegrityError(DBError):
    """Internal integrity failure — the engine detected its own state is broken.

    This is the MiniDB analogue of SQLite's ``database disk image is
    malformed``: always unexpected, always a bug.
    """


class UnsupportedError(DBError):
    """The statement uses a feature the engine does not implement."""


class DBTimeout(DBError):
    """The watchdog deadline expired while a statement was executing.

    Raised by fault-isolated adapters when the target fails to answer
    within the configured per-statement budget — the moral equivalent of
    an infinite-loop query.  A timeout is *not* an error-oracle finding
    (hangs are availability problems, not wrong-result logic bugs), so
    :class:`~repro.core.error_oracle.ErrorOracle` classifies it as
    expected and :class:`~repro.core.reports.RunStatistics` counts it in
    a dedicated ``timeouts`` column rather than among errors.
    """

    def __init__(self, message: str = "statement deadline exceeded"):
        super().__init__(message)


class DBCrash(BaseException):
    """Simulated hard crash (SEGFAULT) of the system under test.

    Deliberately derived from :class:`BaseException` so that generic
    ``except Exception`` blocks inside the engine cannot swallow it, the
    same way a real segfault cannot be caught by the crashing process.
    """

    def __init__(self, message: str = "simulated segfault"):
        super().__init__(message)
        self.message = message
