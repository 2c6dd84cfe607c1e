"""Adapter for real SQLite via the stdlib ``sqlite3`` bindings.

This is the live-DBMS demonstration target: the same PQS loop that tests
MiniDB drives a production SQLite build here.  Absent a contemporary bug,
the containment oracle simply never fires — the examples use it to show
the tool running against a real engine, and the differential tests use it
to validate the oracle interpreter.
"""

from __future__ import annotations

import sqlite3
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro.errors import DBError, IntegrityError
from repro.sqlast.indexed_by import force_index, force_no_index
from repro.values import Value

if TYPE_CHECKING:
    # An exec-started isolated worker imports this module; the
    # guidance and multiplan packages would load MiniDB into it.
    from repro.guidance.fingerprint import PlanStep
    from repro.multiplan.hints import PlannerHints


class SQLite3Connection:
    """A :class:`~repro.adapters.base.DBMSConnection` over ``sqlite3``."""

    dialect = "sqlite"

    def __init__(self, path: str = ":memory:"):
        # Autocommit: the Python bindings' implicit BEGIN would otherwise
        # wrap generated statements in a transaction and break VACUUM.
        self._conn = sqlite3.connect(path, isolation_level=None)

    def execute(self, sql: str) -> list[tuple[Value, ...]]:
        try:
            cursor = self._conn.execute(sql)
            rows = cursor.fetchall()
        except sqlite3.Error as exc:
            message = str(exc)
            lowered = message.lower()
            if "malformed" in lowered or "disk image" in lowered:
                # Real corruption ("database disk image is malformed") —
                # the paper's motivating SQLite bug class.  Surfacing it
                # as IntegrityError lets the error oracle classify it as
                # always-a-bug rather than generic statement noise.
                raise IntegrityError(message) from exc
            raise DBError(message) from exc
        return [tuple(_lift(v) for v in row) for row in rows]

    def forced_plan(self, sql: str, hints: PlannerHints,
                    ) -> list[PlanStep]:
        """The plan *sql* takes under *hints* (``EXPLAIN QUERY PLAN`` of
        the forced text, see :meth:`_forced`), without running it;
        ``BASELINE`` hints leave the text as it is.

        The steps tolerate the detail format drift across SQLite
        versions (3.24's "SCAN TABLE t0" vs 3.36+'s "SCAN t0" — the
        parsing lives in
        :func:`repro.guidance.fingerprint.parse_sqlite_eqp_detail`)."""
        from repro.guidance.fingerprint import steps_from_sqlite_eqp

        with self._forced(sql, hints) as forced_sql:
            try:
                cursor = self._conn.execute(
                    f"EXPLAIN QUERY PLAN {forced_sql}")
                rows = cursor.fetchall()
            except sqlite3.Error as exc:
                raise DBError(str(exc)) from exc
        # EQP rows are (id, parent, notused, detail); detail is last.
        return steps_from_sqlite_eqp(str(row[-1]) for row in rows)

    def with_plan(self, sql: str,
                  hints: PlannerHints) -> list[tuple[Value, ...]]:
        """The rows of *sql* run under the forced plan *hints* describe
        (see :meth:`_forced`)."""
        with self._forced(sql, hints) as forced_sql:
            try:
                rows = self._conn.execute(forced_sql).fetchall()
            except sqlite3.Error as exc:
                raise DBError(str(exc)) from exc
            return [tuple(_lift(v) for v in row) for row in rows]

    @contextmanager
    def _forced(self, sql: str, hints: PlannerHints) -> Iterator[str]:
        """Yield *sql* rewritten to force *hints*, with the statistics
        they ask for in place.

        Mapping onto sqlite's native knobs:

        * ``force_full_scan`` → ``NOT INDEXED`` on every table ref;
        * ``force_index``     → ``INDEXED BY`` on the owning table;
        * ``analyze=True``    → a transient ``ANALYZE`` inside a
          SAVEPOINT, rolled back when the body exits so the connection's
          statistics state is untouched (``analyze=False`` is a no-op:
          sqlite has no way to hide existing stats);
        * ``no_like_opt``     → documented no-op (sqlite's only LIKE
          knob, ``PRAGMA case_sensitive_like``, changes LIKE *semantics*
          rather than just the plan, so toggling it would make plans
          legitimately diverge).

        A forced run is introspection, not part of the tested statement
        stream.
        """
        hints.validate()
        forced_sql = sql
        if hints.force_full_scan:
            forced_sql = force_no_index(sql)
        elif hints.force_index is not None:
            owner = self._index_owner(hints.force_index)
            if owner is None:
                raise DBError(f"no such index: {hints.force_index}")
            forced_sql = force_index(sql, owner, hints.force_index)
        # A generated schema can be one sqlite itself refuses to reparse
        # (e.g. an expression index that slipped a non-deterministic
        # function past CREATE): every statement here, ANALYZE and the
        # sqlite_master probes included, must surface as a typed DBError
        # so the oracle can count the plan as a forced failure.
        in_savepoint = False
        try:
            if hints.analyze:
                try:
                    self._conn.execute("SAVEPOINT pqs_multiplan")
                    in_savepoint = True
                    self._conn.execute("ANALYZE")
                except sqlite3.Error as exc:
                    raise DBError(str(exc)) from exc
            yield forced_sql
        finally:
            if in_savepoint:
                try:
                    self._conn.execute("ROLLBACK TO pqs_multiplan")
                    self._conn.execute("RELEASE pqs_multiplan")
                except sqlite3.Error as exc:
                    raise DBError(str(exc)) from exc

    def _index_owner(self, index: str) -> str | None:
        try:
            cursor = self._conn.execute(
                "SELECT tbl_name FROM sqlite_master WHERE type = 'index' "
                "AND name = ? COLLATE NOCASE", (index,))
            row = cursor.fetchone()
        except sqlite3.Error as exc:
            raise DBError(str(exc)) from exc
        return str(row[0]) if row is not None else None

    def index_candidates(self, tables: list[str]) -> list[str]:
        """Explicit index names on *tables* (``sqlite_autoindex_*``
        excluded), sorted for deterministic enumeration."""
        wanted = {t.lower() for t in tables}
        try:
            cursor = self._conn.execute(
                "SELECT name, tbl_name FROM sqlite_master "
                "WHERE type = 'index'")
            found = cursor.fetchall()
        except sqlite3.Error as exc:
            raise DBError(str(exc)) from exc
        return sorted(
            str(name) for name, tbl in found
            if str(tbl).lower() in wanted
            and not str(name).startswith("sqlite_autoindex_"))

    def close(self) -> None:
        self._conn.close()


def _lift(obj) -> Value:
    if obj is None:
        return Value.null()
    if isinstance(obj, int):
        return Value.integer(obj)
    if isinstance(obj, float):
        return Value.real(obj)
    if isinstance(obj, str):
        return Value.text(obj)
    if isinstance(obj, (bytes, memoryview)):
        return Value.blob(bytes(obj))
    raise DBError(f"unexpected sqlite3 value: {obj!r}")
