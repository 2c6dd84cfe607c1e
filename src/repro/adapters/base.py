"""The connection protocol every system under test implements."""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.values import Value


@runtime_checkable
class DBMSConnection(Protocol):
    """SQL in, rows out; uniform error surface.

    ``execute`` must raise :class:`repro.errors.DBError` (or a subclass)
    for engine-reported errors and :class:`repro.errors.DBCrash` for hard
    crashes — the two signals the error and crash oracles consume.

    Adapters *may* additionally offer plan introspection::

        def query_plan(self, sql: str) -> list[PlanStep]: ...

    returning :class:`repro.guidance.fingerprint.PlanStep` rows for a
    SELECT without executing it (MiniDB's ``EXPLAIN``, sqlite3's
    ``EXPLAIN QUERY PLAN``).  The hook is optional — plan-coverage
    guidance probes for it with ``getattr`` and degrades to passive
    mode when absent — so it is deliberately *not* part of this
    Protocol: an adapter without it is still a complete target.

    Three further optional hooks serve the multi-plan differential
    oracle (:mod:`repro.multiplan`), and follow the same rules as
    ``query_plan`` — probed with ``getattr``, never logged into the
    replay journal, never advancing a fault schedule::

        def forced_plan(self, sql: str, hints: PlannerHints
                        ) -> list[PlanStep]: ...
        def with_plan(self, sql: str, hints: PlannerHints
                      ) -> list[tuple[Value, ...]]: ...
        def index_candidates(self, tables: list[str]) -> list[str]: ...

    ``forced_plan`` returns the plan *sql* takes under the forced plan
    described by :class:`repro.multiplan.hints.PlannerHints`, without
    running it, and refuses (raises) whatever ``with_plan`` would refuse
    before running.  ``with_plan`` runs *sql* once under the same hints
    and returns the rows.  Both restore all forcing state before they
    return, so the connection's unforced behaviour is untouched.
    ``index_candidates`` lists the explicit (non-automatic) index names
    on the given tables — the enumeration axis for forced-index plans.
    """

    #: Dialect name: 'sqlite' | 'mysql' | 'postgres'.
    dialect: str

    def execute(self, sql: str) -> list[tuple[Value, ...]]:
        """Execute one statement, returning fetched rows (possibly [])."""
        ...

    def close(self) -> None:
        ...

