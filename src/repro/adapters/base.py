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

    Adapters *may* additionally offer three hooks that serve plan
    introspection: plan-coverage guidance (:mod:`repro.guidance`) and
    the multi-plan differential oracle (:mod:`repro.multiplan`).  They
    are deliberately *not* part of this Protocol — callers probe for
    them with ``getattr``, and an adapter without them is still a
    complete target.  They are never logged into the replay journal and
    never advance a fault schedule::

        def forced_plan(self, sql: str, hints: PlannerHints
                        ) -> list[PlanStep]: ...
        def with_plan(self, sql: str, hints: PlannerHints
                      ) -> list[tuple[Value, ...]]: ...
        def index_candidates(self, tables: list[str]) -> list[str]: ...

    ``forced_plan`` returns the
    :class:`repro.guidance.fingerprint.PlanStep` rows of the plan *sql*
    takes under the forced plan described by
    :class:`repro.multiplan.hints.PlannerHints`, without running it
    (with ``BASELINE`` hints, the plan the unforced stream takes), and
    refuses (raises) whatever ``with_plan`` would refuse before
    running.  ``with_plan`` runs *sql* once under the same hints
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

