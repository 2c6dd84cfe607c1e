"""Adapter for MiniDB engines (the offline stand-ins for MySQL/PostgreSQL
and for defect-injected SQLite)."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.errors import ParseError
from repro.guidance.fingerprint import PlanStep, steps_from_minidb
from repro.minidb.bugs import BugRegistry
from repro.minidb.engine import Engine
from repro.minidb.parser import parse_statement
from repro.minidb.statements import Explain, Select
from repro.multiplan.hints import PlannerHints
from repro.values import Value


class MiniDBConnection:
    """A :class:`~repro.adapters.base.DBMSConnection` over MiniDB."""

    def __init__(self, dialect: str = "sqlite",
                 bugs: Optional[BugRegistry] = None):
        self.engine = Engine(dialect, bugs=bugs)
        self.dialect = dialect

    def execute(self, sql: str) -> list[tuple[Value, ...]]:
        return self.engine.execute(sql).rows

    def forced_plan(self, sql: str,
                    hints: PlannerHints) -> list[PlanStep]:
        """The access-path steps of *sql* under *hints* (MiniDB's
        EXPLAIN QUERY PLAN), without running it; ``BASELINE`` hints give
        the plan the unforced stream takes.

        Planning is *not* part of the tested statement stream: it does
        not count toward ``statements_executed``, and it leaves the
        catalog untouched: ``engine.hints``, the one thing it sets, is
        cleared before returning (see :meth:`_forcing`).  It refuses
        exactly what :meth:`with_plan` refuses before it runs: the
        executor chooses every access path, where a forced plan can be
        refused, before anything that EXPLAIN skips can fail.
        """
        with self._forcing(sql, hints) as select:
            return steps_from_minidb(self.engine.execute_statement(
                Explain(select, query_plan=True)).python_rows())

    def with_plan(self, sql: str,
                  hints: PlannerHints) -> list[tuple[Value, ...]]:
        """The rows of *sql* run once under the forced plan *hints*
        describe; outside the tested stream like :meth:`forced_plan`.

        Baseline hints plan exactly like no hints at all, so when the
        unforced stream has just run the same SELECT its cached rows
        are the answer (a fresh list: the caller may mutate it).
        """
        if hints.is_baseline:
            rows = self.engine.cached_select_rows(sql)
            if rows is not None:
                return rows
        with self._forcing(sql, hints) as select:
            return self.engine.execute_statement(select).rows

    @contextmanager
    def _forcing(self, sql: str, hints: PlannerHints) -> Iterator[Select]:
        """Run the body under *hints*; yields *sql* parsed (only a
        SELECT can be forced).  The only state it sets is
        ``engine.hints``, cleared whichever way the body exits: the
        planner reads the ``analyze`` hint instead of the tables'
        flags."""
        hints.validate()
        engine = self.engine
        if hints.force_index is not None:
            # CatalogError("no such index: ...") for unknown names.
            engine.catalog.index(hints.force_index)
        select = parse_statement(sql)
        if type(select) is not Select:
            raise ParseError("only a SELECT can run under a forced plan")
        engine.hints = hints
        try:
            yield select
        finally:
            engine.hints = None

    def index_candidates(self, tables: list[str]) -> list[str]:
        """Explicit index names on *tables* (implicit constraint-backing
        autoindexes excluded), sorted for deterministic enumeration."""
        names: set[str] = set()
        for table in tables:
            for index in self.engine.catalog.indexes_on(table):
                if not index.implicit:
                    names.add(index.name)
        return sorted(names)

    def close(self) -> None:  # MiniDB holds no external resources
        self.engine = None  # type: ignore[assignment]

    @property
    def statements_executed(self) -> int:
        return self.engine.statements_executed if self.engine else 0
