"""Deterministic fault injection for exercising the isolation harness.

A :class:`FaultPlan` maps global statement indexes to faults — the
failure modes a long-running fuzzing campaign must survive:

* ``crash``    — raise :class:`~repro.errors.DBCrash`.  Inside the
  subprocess worker this kills the child (the worker converts a
  simulated crash into real process death), exercising the crash oracle
  and the restart/replay machinery end-to-end;
* ``hang``     — sleep for ``hang_seconds`` before executing, tripping
  the parent's watchdog (:class:`~repro.errors.DBTimeout`);
* ``error``    — raise a transient :class:`~repro.errors.DBError`
  (default message mimics SQLite's ``disk I/O error``), feeding the
  error oracle;
* ``drop-row`` — execute normally but silently discard the last result
  row, the wrong-result shape the containment oracle exists to catch.

Schedules are **deterministic**: explicit ``*_at`` indexes plus a seeded
draw over ``horizon`` statements (same seed ⇒ same schedule).  Indexes
are *global across process restarts*: :class:`FaultyFactory` advertises
``accepts_offset`` so the subprocess harness can tell each new
incarnation how many fresh statements the campaign has already
attempted; replayed statements do not advance the counter.  A fault
therefore fires exactly once at its index instead of re-firing every
time the restored worker reaches the same local count.

The schedule is scoped to one *connection's* lifetime: a campaign that
opens a fresh connection per database round restarts the schedule each
round (deterministically — every round sees the same faults at the same
indexes), while restarts of the same connection resume mid-schedule.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.errors import DBCrash, DBError
from repro.values import Value

FAULT_KINDS = ("crash", "hang", "error", "drop-row")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic statement-index → fault schedule."""

    seed: int = 0
    crash_at: tuple[int, ...] = ()
    hang_at: tuple[int, ...] = ()
    error_at: tuple[int, ...] = ()
    drop_row_at: tuple[int, ...] = ()
    #: Seeded per-statement fault probabilities over ``horizon``.
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    error_rate: float = 0.0
    drop_row_rate: float = 0.0
    horizon: int = 1000
    #: How long a hung statement sleeps before proceeding.
    hang_seconds: float = 3600.0
    error_message: str = "disk I/O error (injected transient fault)"
    #: index -> fault kind, derived in __post_init__.
    schedule: dict[int, str] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        schedule: dict[int, str] = {}
        rng = random.Random(self.seed)
        for index in range(self.horizon):
            draw = rng.random()
            for kind, rate in (("crash", self.crash_rate),
                               ("hang", self.hang_rate),
                               ("error", self.error_rate),
                               ("drop-row", self.drop_row_rate)):
                if draw < rate:
                    schedule[index] = kind
                    break
                draw -= rate
        # Explicit indexes override the seeded draw.
        for kind, indexes in (("crash", self.crash_at),
                              ("hang", self.hang_at),
                              ("error", self.error_at),
                              ("drop-row", self.drop_row_at)):
            for index in indexes:
                schedule[index] = kind
        object.__setattr__(self, "schedule", schedule)

    def action(self, index: int) -> Optional[str]:
        """The fault (if any) scheduled for global statement *index*."""
        return self.schedule.get(index)

    def fault_indexes(self, kind: str) -> list[int]:
        return sorted(i for i, k in self.schedule.items() if k == kind)


class FaultyConnection:
    """Wraps any adapter, injecting the plan's faults by statement index.

    ``offset`` seats the counter mid-schedule — the subprocess harness
    passes the campaign-global fresh-statement count so restarts resume
    the schedule where the previous incarnation left off.
    """

    def __init__(self, inner, plan: FaultPlan, offset: int = 0):
        self.inner = inner
        self.plan = plan
        self.dialect = inner.dialect
        self.statement_index = offset

    def execute(self, sql: str) -> list[tuple[Value, ...]]:
        index = self.statement_index
        self.statement_index += 1
        action = self.plan.action(index)
        if action == "crash":
            raise DBCrash(f"injected segfault at statement #{index}")
        if action == "hang":
            time.sleep(self.plan.hang_seconds)
        elif action == "error":
            raise DBError(self.plan.error_message)
        rows = self.inner.execute(sql)
        if action == "drop-row" and rows:
            return rows[:-1]
        return rows

    def execute_replay(self, sql: str) -> list[tuple[Value, ...]]:
        """State-restoration path: no faults, no schedule advance."""
        return self.inner.execute(sql)

    def forced_plan(self, sql: str, hints):
        """Plan introspection: faults target statements, not EXPLAIN,
        and the schedule does not advance."""
        return self._forward("forced_plan", "forced-plan planning",
                             sql, hints)

    def with_plan(self, sql: str, hints):
        """Forced-plan execution: introspection like ``forced_plan`` —
        no fault firing, no schedule advance."""
        return self._forward("with_plan", "forced-plan execution",
                             sql, hints)

    def index_candidates(self, tables: list):
        """Index enumeration: introspection, no schedule advance."""
        return self._forward("index_candidates", "index enumeration",
                             tables)

    def _forward(self, hook: str, what: str, *args):
        fn = getattr(self.inner, hook, None)
        if fn is None:
            from repro.errors import UnsupportedError

            raise UnsupportedError(f"wrapped target offers no {what}")
        return fn(*args)

    def close(self) -> None:
        self.inner.close()


@dataclass(frozen=True)
class FaultyFactory:
    """Picklable factory shipping a fault-wrapped target to the worker."""

    inner_factory: Callable[[], Any]
    plan: FaultPlan

    #: Handshake hint: call with offset=<fresh statements attempted>.
    accepts_offset = True

    def __call__(self, offset: int = 0) -> FaultyConnection:
        return FaultyConnection(self.inner_factory(), self.plan,
                                offset=offset)
