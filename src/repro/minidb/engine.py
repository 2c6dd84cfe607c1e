"""The MiniDB engine facade: ``Engine.execute(sql) -> ResultSet``.

Dispatches parsed statements, owns the catalog and storage, enforces
constraints, maintains indexes, and implements the maintenance commands
(VACUUM/REINDEX/ANALYZE/CHECK TABLE/REPAIR TABLE) whose misbehaviour under
injected defects feeds the paper's *error oracle*.

Dialect behaviour implemented here (value typing at INSERT time):

* sqlite — type affinity applied to incoming values; PRIMARY KEY columns
  of ordinary rowid tables may hold NULL (the historical SQLite quirk);
* mysql — non-strict mode: out-of-range integers are clipped to the
  column type's range, strings coerce numerically;
* postgres — strict: type mismatches are errors, SERIAL columns
  auto-assign.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import (
    CatalogError,
    ConstraintError,
    DBCrash,
    DBError,
    IntegrityError,
    UnsupportedError,
)
from repro.interp.base import EvalError, Interpreter
from repro.interp.mysql_sem import to_number, to_text as mysql_to_text
from repro.interp.sqlite_sem import apply_affinity, storage_compare
from repro.minidb import statements as st
from repro.minidb.bugs import BugRegistry
from repro.minidb.catalog import (
    MYSQL_INT_RANGES,
    Catalog,
    Column,
    Index,
    Statistics,
    Table,
    View,
)
from repro.minidb.engine_sem import build_engine_semantics
from repro.minidb.executor import SelectExecutor
from repro.minidb.parser import parse_statement
from repro.minidb.planner import AccessPath, Scope, bind
from repro.sqlast.nodes import BinaryOp, BinaryNode, ColumnNode, Expr, walk
from repro.values import NULL, SQLType, Value

DIALECTS = ("sqlite", "mysql", "postgres")

_PG_TYPE_SYNONYMS = {
    "INT": "INT4", "INTEGER": "INT4", "INT4": "INT4", "SERIAL": "INT4",
    "BIGINT": "INT8", "INT8": "INT8",
    "FLOAT8": "FLOAT8", "FLOAT": "FLOAT8", "DOUBLE": "FLOAT8",
    "REAL": "FLOAT8",
    "TEXT": "TEXT", "BOOL": "BOOL", "BOOLEAN": "BOOL", "BYTEA": "BYTEA",
}


def _same_pg_type(a: str | None, b: str | None) -> bool:
    ka = _PG_TYPE_SYNONYMS.get((a or "").upper().split()[0] if a else "",
                               a)
    kb = _PG_TYPE_SYNONYMS.get((b or "").upper().split()[0] if b else "",
                               b)
    return ka == kb


@dataclass
class ResultSet:
    """Rows returned by a statement (empty for DDL/DML)."""

    columns: list[str] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)

    def python_rows(self) -> list[tuple]:
        """Rows as plain Python values (None/int/float/str/bytes/bool)."""
        return [tuple(v.v for v in row) for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)


class Engine:
    """One MiniDB database instance."""

    def __init__(self, dialect: str = "sqlite",
                 bugs: Optional[BugRegistry] = None):
        if dialect not in DIALECTS:
            raise ValueError(f"unknown dialect: {dialect!r}")
        self.dialect = dialect
        self.bugs = bugs if bugs is not None else BugRegistry()
        self.catalog = Catalog()
        self.options: dict[str, Value] = {}
        self.semantics = build_engine_semantics(dialect, self.bugs)
        self.interp = Interpreter(self.semantics)
        self.statements_executed = 0
        self._snapshot = None
        #: sql -> (columns, rows) for top-level SELECTs; invalidated
        #: wholesale by any non-SELECT/EXPLAIN statement (see
        #: execute_statement).  Only unforced runs fill it; a baseline
        #: forced run reads it (see cached_select_rows).
        self._select_cache: dict[str, tuple[list, list]] = {}
        #: (table name, visible name) -> full-scan SourceRow list.
        #: Distinct queries between writes re-scan the same relations;
        #: rebuilding one qualified-name env dict per row per query is
        #: the single hottest allocation in a hunt.  Cleared wholesale by
        #: any non-SELECT/EXPLAIN statement (see execute_statement);
        #: population is suspended while such a statement runs so a
        #: scan taken *before* its writes cannot linger.
        self._scan_cache: dict[tuple[str, str], list] = {}
        self._scan_caching = True
        #: id(parsed Select) -> (Select, bound Select).  Binding reads
        #: only column metadata (never rows, hints or defect state), so
        #: one bound form serves EXPLAIN, every forced plan and repeated
        #: executions until the catalog may change; the stable node ids
        #: are what let the interpreter's compile memo hit.  Cleared
        #: before and after every non-SELECT/EXPLAIN statement (see
        #: execute_statement): CREATE VIEW validation binds while the
        #: write runs.
        self._bound_selects: dict[int, tuple[st.Select, st.Select]] = {}
        #: Planning work derived from bound Selects, dropped with them:
        #: ("where", id(bound WHERE), no_like_opt, index forced) ->
        #: (WHERE, rewritten WHERE), and ("aggregate", id(bound
        #: Select)) -> (Select, has an aggregate item).  Every forced
        #: run of a query then reuses one rewritten tree, and with it
        #: one compiled predicate.
        self._plan_memo: dict[tuple, tuple] = {}
        #: Multi-plan forcing (repro.multiplan.hints.PlannerHints): set
        #: transiently by MiniDBConnection._forcing around one query.
        #: None means "plan normally" — the permanent state of every
        #: engine outside a forced execution.
        self.hints = None
        self._apply_option_defaults()

    def _apply_option_defaults(self) -> None:
        if self.dialect == "sqlite":
            self.options["case_sensitive_like"] = Value.integer(0)

    # ------------------------------------------------------------------ API --
    def execute(self, sql: str) -> ResultSet:
        """Parse and execute one statement.

        Raises :class:`~repro.errors.DBError` subclasses for engine
        errors and :class:`~repro.errors.DBCrash` for simulated crashes.
        """
        stmt = parse_statement(sql)
        self.statements_executed += 1
        if type(stmt) is st.Select and self.hints is None:
            # The pivot probes re-read identical SELECTs between DML-free
            # pivot rounds; cache hits must hand out fresh containers
            # because fault injection mutates returned row lists.  Forced
            # runs (multiplan) call execute_statement directly, so they
            # never fill this cache.
            cached = self._select_cache.get(sql)
            if cached is not None:
                columns, rows = cached
                return ResultSet(columns=list(columns), rows=list(rows))
            result = self.execute_statement(stmt)
            if len(self._select_cache) >= 128:
                self._select_cache.clear()
            self._select_cache[sql] = (list(result.columns),
                                       list(result.rows))
            return result
        return self.execute_statement(stmt)

    def cached_select_rows(self, sql: str) -> Optional[list]:
        """A fresh copy of the rows :meth:`execute` last returned for the
        SELECT *sql*, or None when there are none (any write drops
        them all)."""
        cached = self._select_cache.get(sql)
        return None if cached is None else list(cached[1])

    def execute_statement(self, stmt: st.Statement) -> ResultSet:
        if isinstance(stmt, st.Select):
            return SelectExecutor(self).execute(stmt)
        if isinstance(stmt, st.Explain):
            return self._explain(stmt)
        # Anything below may mutate catalog state.  Drop the SELECT and
        # scan caches up front (a failing statement may still have
        # touched state) and keep scan caching suspended for the
        # duration: a scan performed *by* this statement (e.g. CREATE
        # VIEW validation, INSERT ... SELECT) must not be remembered past
        # the writes that follow it.  The bound-SELECT cache is dropped
        # on both sides for the same reason (a failed write or a
        # ROLLBACK restores the catalog in place).
        self._select_cache.clear()
        self._scan_cache.clear()
        self.drop_bound_selects()
        self._scan_caching = False
        try:
            return self._execute_mutating(stmt)
        finally:
            self._scan_caching = True
            self.drop_bound_selects()

    def drop_bound_selects(self) -> None:
        """Forget every bound Select and the planning memo built on them."""
        self._bound_selects.clear()
        self._plan_memo.clear()

    def _execute_mutating(self, stmt: st.Statement) -> ResultSet:
        if isinstance(stmt, st.CreateTable):
            return self._create_table(stmt)
        if isinstance(stmt, st.CreateIndex):
            return self._create_index(stmt)
        if isinstance(stmt, st.CreateView):
            return self._create_view(stmt)
        if isinstance(stmt, st.CreateStatistics):
            return self._create_statistics(stmt)
        if isinstance(stmt, st.Drop):
            return self._drop(stmt)
        if isinstance(stmt, st.Insert):
            return self._atomic(self._insert, stmt)
        if isinstance(stmt, st.Update):
            return self._atomic(self._update, stmt)
        if isinstance(stmt, st.Delete):
            return self._atomic(self._delete, stmt)
        if isinstance(stmt, st.AlterTable):
            return self._atomic(self._alter, stmt)
        if isinstance(stmt, st.Maintenance):
            return self._maintenance(stmt)
        if isinstance(stmt, st.SetOption):
            return self._set_option(stmt)
        if isinstance(stmt, st.TransactionStmt):
            return self._transaction(stmt)
        raise UnsupportedError(f"unsupported statement: {stmt!r}")

    def _explain(self, stmt: st.Explain) -> ResultSet:
        """EXPLAIN [QUERY PLAN]: the chosen access paths as rows."""
        steps = SelectExecutor(self).explain(stmt.select)
        rows = [(Value.text(table), Value.text(kind),
                 Value.text(index) if index is not None else NULL,
                 Value.text(detail))
                for table, kind, index, detail in steps]
        return ResultSet(columns=["table", "kind", "index", "detail"],
                         rows=rows)

    def _atomic(self, handler, stmt) -> ResultSet:
        """Statement atomicity for DML and ALTER: a failing statement
        must leave no partial effects (a multi-row INSERT failing on its
        second row must not keep the first), or replaying the
        success-only statement log would diverge from the original
        session."""
        restore = self.catalog.snapshot()
        try:
            return handler(stmt)
        except DBError:
            restore()
            raise

    # ------------------------------------------------------------ relations --
    def resolve_relation(self, name: str) -> Table:
        """A table, materialized view, or virtual schema table."""
        lowered = name.lower()
        if self.catalog.has_table(name):
            return self.catalog.table(name)
        if self.catalog.has_view(name):
            return self._materialize_view(self.catalog.view(name))
        if lowered == "sqlite_master" and self.dialect == "sqlite":
            return self._sqlite_master()
        if lowered in ("information_schema.tables", "pg_tables") and \
                self.dialect in ("mysql", "postgres"):
            return self._information_schema_tables()
        raise CatalogError(f"no such table: {name}")

    def _materialize_view(self, view: View) -> Table:
        result = SelectExecutor(self).execute(view.select)
        columns = []
        for name, item in zip(result.columns, view.select.items):
            # A view column projecting a plain base column inherits that
            # column's declared type and collation (SQLite derives view
            # column affinity/collation from the defining expression).
            source = self._view_item_source(view, item)
            if source is not None:
                columns.append(Column(name=name,
                                      type_name=source.type_name,
                                      collation=source.collation))
            else:
                columns.append(Column(name=name, type_name=None))
        table = Table(name=view.name, columns=columns)
        for row in result.rows:
            table.rows[table.next_rowid] = dict(zip(result.columns, row))
            table.next_rowid += 1
        return table

    def _view_item_source(self, view: View, item) -> Optional[Column]:
        if item.expr is None or not isinstance(item.expr, ColumnNode):
            return None
        for name in view.select.tables:
            if not self.catalog.has_table(name):
                continue
            table = self.catalog.table(name)
            if table.has_column(item.expr.column):
                return table.column(item.expr.column)
        return None

    def _sqlite_master(self) -> Table:
        table = Table(name="sqlite_master", columns=[
            Column("type", "TEXT"), Column("name", "TEXT"),
            Column("tbl_name", "TEXT")])
        rowid = 1
        for t in self.catalog.tables.values():
            table.rows[rowid] = {"type": Value.text("table"),
                                 "name": Value.text(t.name),
                                 "tbl_name": Value.text(t.name)}
            rowid += 1
        for idx in self.catalog.indexes.values():
            table.rows[rowid] = {"type": Value.text("index"),
                                 "name": Value.text(idx.name),
                                 "tbl_name": Value.text(idx.table)}
            rowid += 1
        for v in self.catalog.views.values():
            table.rows[rowid] = {"type": Value.text("view"),
                                 "name": Value.text(v.name),
                                 "tbl_name": Value.text(v.name)}
            rowid += 1
        table.next_rowid = rowid
        return table

    def _information_schema_tables(self) -> Table:
        table = Table(name="information_schema.tables", columns=[
            Column("table_name", "TEXT"), Column("table_type", "TEXT")])
        rowid = 1
        for t in self.catalog.tables.values():
            table.rows[rowid] = {"table_name": Value.text(t.name),
                                 "table_type": Value.text("BASE TABLE")}
            rowid += 1
        for v in self.catalog.views.values():
            table.rows[rowid] = {"table_name": Value.text(v.name),
                                 "table_type": Value.text("VIEW")}
            rowid += 1
        table.next_rowid = rowid
        return table

    # ---------------------------------------------------------------- scans --
    def scan_rows(self, table: Table,
                  path: AccessPath) -> list[tuple[int, dict]]:
        """Rows as (rowid, row_dict), in path order.

        PostgreSQL-style inheritance: scanning a parent also returns the
        child tables' rows projected onto the parent's columns.
        """
        if path.kind == "index-scan" and path.index is not None:
            return self._index_scan(table, path.index,
                                    forced=path.forced)
        rows = list(table.rows.items())
        if self.dialect == "postgres" and \
                self.catalog.has_table(table.name):
            for child in self.catalog.children_of(table.name):
                parent_cols = table.column_names()
                for rowid, row in child.rows.items():
                    projected = {c: row.get(c, NULL) for c in parent_cols}
                    rows.append((-rowid, projected))
        return rows

    def _index_scan(self, table: Table, index: Index,
                    forced: bool = False) -> list[tuple[int, dict]]:
        import functools

        entries = sorted(
            index.entries,
            key=functools.cmp_to_key(lambda a, b: self._key_cmp(a[0], b[0])))
        out = []
        seen = set()
        for _key, rowid in entries:
            if rowid in seen:
                continue
            seen.add(rowid)
            row = table.rows.get(rowid)
            if row is None:
                raise IntegrityError(self._malformed_message())
            out.append((rowid, row))
        if forced and out and \
                self.bugs.on("sqlite-forced-index-fencepost"):
            # Defect: the INDEXED BY cursor stops one entry early — the
            # key-largest row silently vanishes, but only on a *forced*
            # index scan, so the planner's own choices (and hence the
            # pivot-containment oracle's unforced stream) never see it.
            out.pop()
        return out

    def _malformed_message(self) -> str:
        if self.dialect == "sqlite":
            return "database disk image is malformed"
        if self.dialect == "mysql":
            return "Index for table is corrupt; try to repair it"
        return "could not read block: index is corrupted"

    def _key_cmp(self, a: tuple, b: tuple) -> int:
        for av, bv in zip(a, b):
            if av.is_null and bv.is_null:
                continue
            if av.is_null:
                return -1
            if bv.is_null:
                return 1
            try:
                cmp = storage_compare(av, bv)
            except KeyError:
                cmp = 0
            if cmp != 0:
                return cmp
        return 0

    # ------------------------------------------------------------------ DDL --
    def _create_table(self, stmt: st.CreateTable) -> ResultSet:
        if self.catalog.has_table(stmt.name) or \
                self.catalog.has_view(stmt.name):
            if stmt.if_not_exists:
                return ResultSet()
            raise CatalogError(f"table {stmt.name} already exists")
        if stmt.without_rowid and self.dialect != "sqlite":
            raise UnsupportedError("WITHOUT ROWID is SQLite-specific")
        if stmt.engine and self.dialect != "mysql":
            raise UnsupportedError("storage engines are MySQL-specific")
        if stmt.inherits and self.dialect != "postgres":
            raise UnsupportedError("INHERITS is PostgreSQL-specific")
        if self.dialect != "sqlite":
            for col in stmt.columns:
                if col.type_name is None:
                    raise DBError(f"column {col.name} lacks a type")
        seen = set()
        for col in stmt.columns:
            if col.name.lower() in seen:
                raise CatalogError(f"duplicate column name: {col.name}")
            seen.add(col.name.lower())

        columns = [Column(name=c.name, type_name=c.type_name,
                          not_null=c.not_null, collation=c.collation,
                          default=c.default, primary_key=c.primary_key,
                          unique=c.unique) for c in stmt.columns]
        pk_cols = [c.name for c in columns if c.primary_key]
        for constraint in stmt.constraints:
            for col_name in constraint.columns:
                if col_name.lower() not in seen:
                    raise CatalogError(f"no such column: {col_name}")
            if constraint.kind == "PRIMARY KEY":
                if pk_cols:
                    raise CatalogError("multiple primary keys for table")
                pk_cols = list(constraint.columns)
                for col in columns:
                    if col.name in pk_cols:
                        col.primary_key = True

        inherits = None
        if stmt.inherits:
            parent = self.catalog.table(stmt.inherits)
            # PostgreSQL merges same-named columns (parent's first) and
            # rejects children that redeclare a column with another type.
            merged: list[Column] = [replace(c) for c in parent.columns]
            by_name = {c.name.lower(): c for c in merged}
            for col in columns:
                existing = by_name.get(col.name.lower())
                if existing is None:
                    merged.append(col)
                elif not _same_pg_type(existing.type_name, col.type_name):
                    raise DBError(
                        f'child table "{stmt.name}" has different type '
                        f'for column "{col.name}"')
            columns = merged
            inherits = parent.name

        table = Table(name=stmt.name, columns=columns,
                      without_rowid=stmt.without_rowid,
                      engine=(stmt.engine or
                              ("INNODB" if self.dialect == "mysql"
                               else None)),
                      inherits=inherits, pk_columns=pk_cols)
        if stmt.without_rowid and not pk_cols:
            raise DBError("PRIMARY KEY missing on table " + stmt.name)
        self.catalog.add_table(table)

        # Implicit indexes backing PRIMARY KEY / UNIQUE constraints.
        # An inherited child deliberately gets none for the parent's PK —
        # that is PostgreSQL's documented inheritance caveat (Listing 15).
        counter = 1
        if pk_cols and not inherits:
            self._add_implicit_index(table, pk_cols, counter)
            counter += 1
        for col in stmt.columns:
            if col.unique:
                self._add_implicit_index(table, [col.name], counter)
                counter += 1
        for constraint in stmt.constraints:
            if constraint.kind == "UNIQUE":
                self._add_implicit_index(table, constraint.columns, counter)
                counter += 1
        return ResultSet()

    def _add_implicit_index(self, table: Table, cols: list[str],
                            ordinal: int) -> None:
        exprs = []
        for name in cols:
            column = table.column(name)
            exprs.append(st.IndexedExpr(
                expr=ColumnNode(table=table.name, column=column.name,
                                collation=column.collation,
                                affinity=column.affinity
                                if self.dialect == "sqlite" else None),
                collation=column.collation))
        index = Index(name=f"{table.name}_autoindex_{ordinal}",
                      table=table.name, exprs=exprs, unique=True,
                      implicit=True)
        self.catalog.add_index(index)

    def _create_index(self, stmt: st.CreateIndex) -> ResultSet:
        table = self.catalog.table(stmt.table)
        if stmt.name.lower() in self.catalog.indexes:
            if stmt.if_not_exists:
                return ResultSet()
            raise CatalogError(f"index {stmt.name} already exists")
        if stmt.where is not None and self.dialect == "mysql":
            raise UnsupportedError("MySQL does not support partial indexes")
        scope = Scope([(table.name, table)], self.dialect)
        exprs = []
        for indexed in stmt.exprs:
            bound = bind(indexed.expr, scope)
            if indexed.collation is not None:
                bound = self._with_collation(bound, indexed.collation)
            exprs.append(st.IndexedExpr(expr=bound,
                                        collation=indexed.collation,
                                        descending=indexed.descending))
        where = bind(stmt.where, scope) if stmt.where is not None else None
        index = Index(name=stmt.name, table=table.name, exprs=exprs,
                      unique=stmt.unique, where=where)
        index.created_csl = self._option_int("case_sensitive_like")
        if self.bugs.on("pg-index-null-error"):
            lead = exprs[0].expr
            if isinstance(lead, ColumnNode) and \
                    table.ever_null.get(lead.column.lower()):
                index.null_tainted = True
        # Populate entries from existing rows, enforcing uniqueness.
        for rowid, row in table.rows.items():
            self._index_insert(index, table, rowid, row,
                               enforce_unique=True)
        self.catalog.add_index(index)
        return ResultSet()

    @staticmethod
    def _with_collation(expr: Expr, collation: str) -> Expr:
        from repro.sqlast.nodes import CollateNode

        return CollateNode(expr, collation)

    def _create_view(self, stmt: st.CreateView) -> ResultSet:
        if self.catalog.has_view(stmt.name) or \
                self.catalog.has_table(stmt.name):
            if stmt.if_not_exists:
                return ResultSet()
            raise CatalogError(f"view {stmt.name} already exists")
        # Validate the view body eagerly, as real engines do.
        SelectExecutor(self).execute(stmt.select)
        self.catalog.add_view(View(name=stmt.name, select=stmt.select))
        return ResultSet()

    def _create_statistics(self, stmt: st.CreateStatistics) -> ResultSet:
        if self.dialect != "postgres":
            raise UnsupportedError("CREATE STATISTICS is "
                                   "PostgreSQL-specific")
        table = self.catalog.table(stmt.table)
        for col in stmt.columns:
            table.column(col)
        if stmt.name.lower() in self.catalog.statistics:
            raise CatalogError(f"statistics {stmt.name} already exist")
        self.catalog.statistics[stmt.name.lower()] = Statistics(
            name=stmt.name, table=table.name, columns=stmt.columns)
        return ResultSet()

    def _drop(self, stmt: st.Drop) -> ResultSet:
        if stmt.kind == "TABLE":
            self.catalog.drop_table(stmt.name, stmt.if_exists)
        elif stmt.kind == "INDEX":
            self.catalog.drop_index(stmt.name, stmt.if_exists)
        else:
            self.catalog.drop_view(stmt.name, stmt.if_exists)
        return ResultSet()

    # ------------------------------------------------------------------ DML --
    def _insert(self, stmt: st.Insert) -> ResultSet:
        table = self.catalog.table(stmt.table)
        columns = stmt.columns or table.column_names()
        for name in columns:
            table.column(name)
        for exprs in stmt.rows:
            if len(exprs) != len(columns):
                raise DBError(
                    f"table {table.name} has {len(columns)} columns "
                    f"but {len(exprs)} values were supplied")
            try:
                row = self._build_row(table, columns, exprs)
                self._insert_row(table, row,
                                 on_conflict=stmt.on_conflict)
            except ConstraintError:
                if stmt.on_conflict == "IGNORE":
                    continue
                raise
        return ResultSet()

    def _build_row(self, table: Table, columns: list[str],
                   exprs: list[Expr]) -> dict[str, Value]:
        provided = {}
        for name, expr in zip(columns, exprs):
            column = table.column(name)
            value = self._eval_const(expr)
            provided[column.name] = self._coerce(table, column, value)
        row = {}
        for column in table.columns:
            if column.name in provided:
                row[column.name] = provided[column.name]
            elif self._is_serial(column):
                row[column.name] = self._next_serial(table, column)
            elif column.default is not None:
                row[column.name] = self._coerce(
                    table, column, self._eval_const(column.default))
            else:
                row[column.name] = NULL
        return row

    def _eval_const(self, expr: Expr) -> Value:
        try:
            return self.interp.compile(expr)({})
        except EvalError as exc:
            raise DBError(str(exc)) from exc

    @staticmethod
    def _is_serial(column: Column) -> bool:
        return bool(column.type_name) and \
            column.type_name.upper() == "SERIAL"

    def _next_serial(self, table: Table, column: Column) -> Value:
        value = table.serials.get(column.name, 0) + 1
        table.serials[column.name] = value
        return Value.integer(value)

    # -- value typing per dialect ---------------------------------------------
    def _coerce(self, table: Table, column: Column, value: Value) -> Value:
        if value.is_null:
            return NULL
        if self.dialect == "sqlite":
            return apply_affinity(value, column.affinity)
        if self.dialect == "mysql":
            return self._coerce_mysql(column, value)
        return self._coerce_postgres(column, value)

    def _coerce_mysql(self, column: Column, value: Value) -> Value:
        base = column.mysql_base_type
        if base in MYSQL_INT_RANGES or base == "SERIAL":
            lo, hi = MYSQL_INT_RANGES.get(base, MYSQL_INT_RANGES["BIGINT"])
            if column.mysql_unsigned:
                lo, hi = 0, (hi - lo)  # same width, shifted to unsigned
            num = to_number(value)
            assert num is not None
            if isinstance(num, float):
                num = int(num + 0.5) if num >= 0 else -int(-num + 0.5)
            return Value.integer(max(lo, min(hi, num)))
        if base in ("DOUBLE", "FLOAT", "REAL", "DECIMAL"):
            from repro.interp.mysql_sem import to_double

            num = to_double(value)
            assert num is not None
            return Value.real(num)
        if base in ("TEXT", "VARCHAR", "CHAR"):
            return Value.text(mysql_to_text(value))
        if base == "BLOB":
            if value.t is SQLType.BLOB:
                return value
            return Value.blob(mysql_to_text(value).encode("utf-8"))
        if base in ("BOOL", "BOOLEAN", "TINYINT"):
            num = to_number(value)
            assert num is not None
            return Value.integer(max(-128, min(127, int(num))))
        raise UnsupportedError(f"unsupported MySQL column type: {base}")

    def _coerce_postgres(self, column: Column, value: Value) -> Value:
        base = (column.type_name or "").upper().split()[0]
        type_err = DBError(
            f"column \"{column.name}\" is of type {base.lower()} but "
            f"expression is of type {value.t.value}")
        if base in ("INT", "INT4", "INTEGER", "SERIAL", "INT8", "BIGINT"):
            if value.t is SQLType.INTEGER:
                num = int(value.v)
            elif value.t is SQLType.REAL:
                num = round(float(value.v))
            else:
                raise type_err
            lo, hi = ((-(2**31), 2**31 - 1)
                      if base in ("INT", "INT4", "INTEGER", "SERIAL")
                      else (-(2**63), 2**63 - 1))
            if not (lo <= num <= hi):
                raise DBError(f"{'integer' if hi < 2**32 else 'bigint'} "
                              "out of range")
            return Value.integer(num)
        if base in ("FLOAT8", "FLOAT", "DOUBLE", "REAL"):
            if value.t in (SQLType.INTEGER, SQLType.REAL):
                return Value.real(float(value.v))
            raise type_err
        if base == "TEXT":
            if value.t is SQLType.TEXT:
                return value
            raise type_err
        if base in ("BOOL", "BOOLEAN"):
            if value.t is SQLType.BOOLEAN:
                return value
            if value.t is SQLType.INTEGER:
                return Value.boolean(int(value.v) != 0)
            raise type_err
        if base == "BYTEA":
            if value.t is SQLType.BLOB:
                return value
            raise type_err
        raise UnsupportedError(f"unsupported PostgreSQL column type: "
                               f"{base}")

    # -- row insertion with constraints -----------------------------------------
    def _insert_row(self, table: Table, row: dict[str, Value],
                    on_conflict: Optional[str] = None) -> int:
        self._check_not_null(table, row)
        conflicts = self._unique_conflicts(table, row, exclude_rowid=None)
        if conflicts:
            if on_conflict == "REPLACE":
                for conflict_rowid in conflicts:
                    self._delete_row(table, conflict_rowid)
            else:
                raise self._unique_error(table, row, conflicts)
        rowid = table.next_rowid
        table.next_rowid += 1
        table.rows[rowid] = row
        self._track_null_history(table, row)
        for index in self.catalog.indexes_on(table.name):
            self._index_insert(index, table, rowid, row,
                               enforce_unique=False)
        return rowid

    def _check_not_null(self, table: Table, row: dict[str, Value]) -> None:
        for column in table.columns:
            must = column.not_null
            if column.primary_key and (table.without_rowid
                                       or self.dialect != "sqlite"):
                # SQLite's historical quirk: PRIMARY KEY columns of
                # ordinary rowid tables may contain NULL.
                must = True
            if must and row[column.name].is_null:
                raise ConstraintError(self._not_null_message(table, column))

    def _not_null_message(self, table: Table, column: Column) -> str:
        if self.dialect == "sqlite":
            return f"NOT NULL constraint failed: {table.name}.{column.name}"
        if self.dialect == "mysql":
            return f"Column '{column.name}' cannot be null"
        return (f'null value in column "{column.name}" violates not-null '
                "constraint")

    def _track_null_history(self, table: Table,
                            row: dict[str, Value]) -> None:
        for name, value in row.items():
            if value.is_null:
                table.ever_null[name.lower()] = True

    def _unique_conflicts(self, table: Table, row: dict[str, Value],
                          exclude_rowid: Optional[int]) -> list[int]:
        """Rowids whose values collide with *row* on any unique index."""
        conflicts: list[int] = []
        for index in self.catalog.indexes_on(table.name):
            if not index.unique:
                continue
            key = self._index_key(index, table, row)
            if key is None or any(v.is_null for v in key):
                continue  # NULL components never conflict
            collations = self._unique_collations(index)
            for other_rowid, other_row in table.rows.items():
                if other_rowid == exclude_rowid:
                    continue
                other_key = self._index_key(index, table, other_row)
                if other_key is None:
                    continue
                if self._keys_equal(key, other_key, collations):
                    if other_rowid not in conflicts:
                        conflicts.append(other_rowid)
        return conflicts

    @staticmethod
    def _keys_equal(a: tuple, b: tuple, collations: list[str]) -> bool:
        """Do index keys *a* and *b* match, each component compared under
        its collation in *collations*?  A NULL component never matches."""
        for av, bv, collation in zip(a, b, collations):
            if av.is_null or bv.is_null:
                return False
            try:
                if storage_compare(av, bv, collation) != 0:
                    return False
            except KeyError:
                if av != bv:
                    return False
        return True

    @staticmethod
    def _collations(index: Index) -> list[str]:
        """*index*'s own collation per key component."""
        return [e.collation or "BINARY" for e in index.exprs]

    def _unique_collations(self, index: Index) -> list[str]:
        """The collations an INSERT or UPDATE checks *index*'s
        uniqueness under (``storage_compare`` applies a collation only
        to TEXT against TEXT)."""
        if self.dialect == "mysql":
            # MySQL's default collation ignores case.
            return ["NOCASE"] * len(index.exprs)
        if self.dialect == "sqlite" and \
                self.bugs.on("sqlite-reindex-unique"):
            # Defect: the insert-time uniqueness check ignores the
            # index collation (REINDEX later finds the duplicates).
            return ["BINARY"] * len(index.exprs)
        return self._collations(index)

    def _unique_error(self, table: Table, row: dict[str, Value],
                      conflicts: list[int]) -> ConstraintError:
        pk = table.pk_columns or [table.columns[0].name]
        if self.dialect == "sqlite":
            cols = ", ".join(f"{table.name}.{c}" for c in pk)
            return ConstraintError(f"UNIQUE constraint failed: {cols}")
        if self.dialect == "mysql":
            return ConstraintError(
                f"Duplicate entry for key '{table.name}.PRIMARY'")
        return ConstraintError(
            f'duplicate key value violates unique constraint '
            f'"{table.name}_pkey"')

    # -- index maintenance -------------------------------------------------------
    def _index_key(self, index: Index, table: Table,
                   row: dict[str, Value]) -> Optional[tuple]:
        """Key tuple for *row*, or None if a partial index excludes it."""
        env = {f"{table.name}.{name}": value for name, value in row.items()}
        if index.where is not None:
            try:
                if self.semantics.to_bool(
                        self.interp.compile(index.where)(env)) is not True:
                    return None
            except EvalError as exc:
                raise DBError(str(exc)) from exc
        key = []
        for indexed in index.exprs:
            try:
                key.append(self.interp.compile(indexed.expr)(env))
            except EvalError as exc:
                raise DBError(str(exc)) from exc
        return tuple(key)

    def _index_insert(self, index: Index, table: Table, rowid: int,
                      row: dict[str, Value],
                      enforce_unique: bool) -> None:
        key = self._index_key(index, table, row)
        if key is None:
            return
        if enforce_unique and index.unique and \
                not any(v.is_null for v in key):
            collations = self._unique_collations(index)
            for existing_key, _rid in index.entries:
                if self._keys_equal(key, existing_key, collations):
                    raise ConstraintError(self._unique_error(
                        table, row, []).message)
        if self.bugs.on("sqlite-nocase-unique-without-rowid") and \
                table.without_rowid and self._nocase_dedup_applies(index):
            # Defect: once a NOCASE index exists on a WITHOUT ROWID
            # table, the key comparator of the table's PK b-tree (and of
            # the NOCASE index itself) confuses collations and silently
            # drops case-variant duplicates — the row stays in the heap
            # (full scans see it) but is unreachable via index lookups.
            nocase = ["NOCASE"] * len(key)
            for existing_key, _rid in index.entries:
                if self._keys_equal(key, existing_key, nocase):
                    return
        index.entries.append((key, rowid))

    def _nocase_dedup_applies(self, index: Index) -> bool:
        """Does the nocase-unique defect affect *index*?  Yes for the
        NOCASE index itself and, once one exists on the table, for the
        implicit PK index of the WITHOUT ROWID table."""
        if any(e.collation == "NOCASE" for e in index.exprs):
            return True
        if index.implicit:
            return any(
                any(e.collation == "NOCASE" for e in other.exprs)
                for other in self.catalog.indexes_on(index.table)
                if other is not index)
        return False

    def _index_remove(self, index: Index, rowid: int) -> None:
        index.entries = [(k, r) for k, r in index.entries if r != rowid]

    def _delete_row(self, table: Table, rowid: int,
                    leave_stale: bool = False) -> None:
        table.rows.pop(rowid, None)
        if leave_stale:
            return
        for index in self.catalog.indexes_on(table.name):
            self._index_remove(index, rowid)

    # -- UPDATE / DELETE ----------------------------------------------------------
    def _update(self, stmt: st.Update) -> ResultSet:
        table = self.catalog.table(stmt.table)
        scope = Scope([(table.name, table)], self.dialect)
        where = bind(stmt.where, scope) if stmt.where is not None else None
        assignments = [(table.column(name).name, bind(expr, scope))
                       for name, expr in stmt.assignments]
        has_real_pk = any(
            table.column(c).affinity == "REAL" for c in table.pk_columns
        ) if table.pk_columns and self.dialect == "sqlite" else False

        target_rowids = []
        for rowid, row in list(table.rows.items()):
            env = {f"{table.name}.{n}": v for n, v in row.items()}
            if where is not None:
                try:
                    keep = self.semantics.to_bool(
                        self.interp.compile(where)(env))
                except EvalError as exc:
                    raise DBError(str(exc)) from exc
                if keep is not True:
                    continue
            target_rowids.append(rowid)

        for rowid in target_rowids:
            row = table.rows.get(rowid)
            if row is None:
                continue  # removed by an earlier OR REPLACE conflict
            env = {f"{table.name}.{n}": v for n, v in row.items()}
            new_row = dict(row)
            for name, expr in assignments:
                column = table.column(name)
                try:
                    value = self.interp.compile(expr)(env)
                except EvalError as exc:
                    raise DBError(str(exc)) from exc
                new_row[name] = self._coerce(table, column, value)
            self._check_not_null(table, new_row)
            conflicts = self._unique_conflicts(table, new_row,
                                               exclude_rowid=rowid)
            if conflicts:
                if stmt.on_conflict == "REPLACE":
                    stale = (self.bugs.on("sqlite-real-pk-corrupt")
                             and has_real_pk)
                    for conflict in conflicts:
                        # Defect: the displaced row's index entries are
                        # not removed when the PK is REAL (Listing 10).
                        self._delete_row(table, conflict,
                                         leave_stale=stale)
                elif stmt.on_conflict == "IGNORE":
                    continue
                else:
                    raise self._unique_error(table, new_row, conflicts)
            table.rows[rowid] = new_row
            self._track_null_history(table, new_row)
            for index in self.catalog.indexes_on(table.name):
                self._index_remove(index, rowid)
                self._index_insert(index, table, rowid, new_row,
                                   enforce_unique=False)
        return ResultSet()

    def _delete(self, stmt: st.Delete) -> ResultSet:
        table = self.catalog.table(stmt.table)
        scope = Scope([(table.name, table)], self.dialect)
        where = bind(stmt.where, scope) if stmt.where is not None else None
        doomed = []
        for rowid, row in table.rows.items():
            if where is None:
                doomed.append(rowid)
                continue
            env = {f"{table.name}.{n}": v for n, v in row.items()}
            try:
                keep = self.semantics.to_bool(
                    self.interp.compile(where)(env))
            except EvalError as exc:
                raise DBError(str(exc)) from exc
            if keep is True:
                doomed.append(rowid)
        for rowid in doomed:
            self._delete_row(table, rowid)
        return ResultSet()

    # -- ALTER -----------------------------------------------------------------
    def _alter(self, stmt: st.AlterTable) -> ResultSet:
        table = self.catalog.table(stmt.table)
        if stmt.action == "RENAME TO":
            assert stmt.new_name is not None
            self.catalog.rename_table(table.name, stmt.new_name)
            return ResultSet()
        if stmt.action == "RENAME COLUMN":
            return self._rename_column(table, stmt)
        if stmt.action == "ADD COLUMN":
            return self._add_column(table, stmt)
        raise UnsupportedError(f"unsupported ALTER action: {stmt.action}")

    def _rename_column(self, table: Table,
                       stmt: st.AlterTable) -> ResultSet:
        assert stmt.column is not None and stmt.new_name is not None
        column = table.column(stmt.column)
        if table.has_column(stmt.new_name):
            raise CatalogError(f"duplicate column name: {stmt.new_name}")
        old_name = column.name
        table.columns = [replace(c, name=stmt.new_name) if c is column
                         else c for c in table.columns]
        # Fresh row dicts (see Catalog.snapshot), renamed key last.
        table.rows = {rowid: {k: v for k, v in row.items() if k != old_name}
                      | {stmt.new_name: row[old_name]}
                      for rowid, row in table.rows.items()}
        if old_name in table.pk_columns:
            table.pk_columns = [stmt.new_name if c == old_name else c
                                for c in table.pk_columns]
        for index in self.catalog.indexes_on(table.name):
            if self.bugs.on("sqlite-rename-expr-index") and \
                    index.is_expression_index:
                # Defect: expression indexes are not rewritten — the
                # schema now refers to a nonexistent column (Listing 8).
                continue
            index.exprs = [st.IndexedExpr(
                expr=self._rename_in_expr(e.expr, old_name, stmt.new_name),
                collation=e.collation, descending=e.descending)
                for e in index.exprs]
            if index.where is not None:
                index.where = self._rename_in_expr(index.where, old_name,
                                                   stmt.new_name)
        return ResultSet()

    @staticmethod
    def _rename_in_expr(expr: Expr, old: str, new: str) -> Expr:
        from repro.sqlast.transform import transform

        def visit(node: Expr):
            if isinstance(node, ColumnNode) and \
                    node.column.lower() == old.lower():
                return ColumnNode(table=node.table, column=new,
                                  collation=node.collation,
                                  affinity=node.affinity)
            return None

        return transform(expr, visit)

    def _add_column(self, table: Table, stmt: st.AlterTable) -> ResultSet:
        assert stmt.column_def is not None
        col_def = stmt.column_def
        if table.has_column(col_def.name):
            raise CatalogError(f"duplicate column name: {col_def.name}")
        if self.bugs.on("sqlite-alter-add-crash") and table.without_rowid \
                and any(idx.is_expression_index
                        for idx in self.catalog.indexes_on(table.name)):
            raise DBCrash("segmentation fault in ALTER TABLE ADD COLUMN")
        if col_def.primary_key:
            raise DBError("Cannot add a PRIMARY KEY column")
        if col_def.not_null and col_def.default is None and table.rows:
            raise DBError("Cannot add a NOT NULL column with default "
                          "value NULL")
        column = Column(name=col_def.name, type_name=col_def.type_name,
                        not_null=col_def.not_null,
                        collation=col_def.collation,
                        default=col_def.default)
        table.columns.append(column)
        fill = NULL
        if col_def.default is not None:
            fill = self._coerce(table, column,
                                self._eval_const(col_def.default))
        table.rows = {rowid: {**row, column.name: fill}
                      for rowid, row in table.rows.items()}
        return ResultSet()

    # -- maintenance -------------------------------------------------------------
    def _maintenance(self, stmt: st.Maintenance) -> ResultSet:
        if stmt.command == "ANALYZE":
            targets = ([self.catalog.table(stmt.target)] if stmt.target
                       else list(self.catalog.tables.values()))
            for table in targets:
                table.analyzed = True
            return ResultSet()
        if stmt.command == "VACUUM":
            return self._vacuum(stmt)
        if stmt.command == "REINDEX":
            return self._reindex(stmt)
        if stmt.command == "CHECK TABLE":
            return self._check_table(stmt)
        if stmt.command == "REPAIR TABLE":
            return self._repair_table(stmt)
        if stmt.command == "DISCARD":
            if self.dialect != "postgres":
                raise UnsupportedError("DISCARD is PostgreSQL-specific")
            self.options.clear()
            return ResultSet()
        raise UnsupportedError(f"unknown maintenance command: "
                               f"{stmt.command}")

    def _vacuum(self, stmt: st.Maintenance) -> ResultSet:
        if self.dialect == "mysql":
            raise UnsupportedError("MySQL has no VACUUM")
        if self._snapshot is not None:
            # Both SQLite and PostgreSQL refuse VACUUM mid-transaction.
            raise DBError("cannot VACUUM from within a transaction"
                          if self.dialect == "sqlite" else
                          "VACUUM cannot run inside a transaction block")
        if self.dialect == "sqlite" and \
                self.bugs.on("sqlite-case-sensitive-like-index"):
            for index in self.catalog.indexes.values():
                if self._index_uses_like(index) and \
                        index.created_csl != \
                        self._option_int("case_sensitive_like"):
                    raise IntegrityError(
                        f"malformed database schema ({index.name}) - "
                        "non-deterministic functions prohibited in index "
                        "expressions")
        if self.dialect == "postgres" and stmt.full and \
                self.bugs.on("pg-vacuum-int-overflow"):
            self._revalidate_expression_indexes()
        self._rebuild_indexes(check_unique=False)
        return ResultSet()

    @staticmethod
    def _index_uses_like(index: Index) -> bool:
        for indexed in index.exprs:
            for node in walk(indexed.expr):
                if isinstance(node, BinaryNode) and node.op in (
                        BinaryOp.LIKE, BinaryOp.NOT_LIKE):
                    return True
        return False

    def _revalidate_expression_indexes(self) -> None:
        """Defect (pg-vacuum-int-overflow): VACUUM FULL re-evaluates
        expression-index entries that the lazy index build skipped,
        surfacing arithmetic errors — including int4 overflow, which the
        int8-based evaluator only enforces here (Listing 18)."""
        for index in self.catalog.indexes.values():
            if not index.is_expression_index:
                continue
            table = self.catalog.table(index.table)
            int4_expr = self._references_int4(index, table)
            for row in table.rows.values():
                env = {f"{table.name}.{n}": v for n, v in row.items()}
                for indexed in index.exprs:
                    try:
                        value = self.interp.compile(indexed.expr)(env)
                    except EvalError as exc:
                        raise DBError(str(exc)) from exc
                    if int4_expr and value.t is SQLType.INTEGER and \
                            not (-(2**31) <= int(value.v) <= 2**31 - 1):
                        raise DBError("integer out of range")

    @staticmethod
    def _references_int4(index: Index, table: Table) -> bool:
        int4_names = ("INT", "INT4", "INTEGER", "SERIAL")
        for indexed in index.exprs:
            for node in walk(indexed.expr):
                if isinstance(node, ColumnNode) and \
                        table.has_column(node.column):
                    base = (table.column(node.column).type_name or ""
                            ).upper().split()
                    if base and base[0] in int4_names:
                        return True
        return False

    def _reindex(self, stmt: st.Maintenance) -> ResultSet:
        if self.dialect == "mysql":
            raise UnsupportedError("MySQL has no REINDEX")
        self._rebuild_indexes(check_unique=True, only=stmt.target)
        return ResultSet()

    def _rebuild_indexes(self, check_unique: bool,
                         only: Optional[str] = None) -> None:
        for index in self.catalog.indexes.values():
            if only is not None and \
                    index.name.lower() != only.lower() and \
                    index.table.lower() != only.lower():
                continue
            table = self.catalog.table(index.table)
            for _key, rowid in index.entries:
                if rowid not in table.rows:
                    raise IntegrityError(self._malformed_message())
            fresh: list = []
            collations = self._collations(index)
            index.entries = []
            for rowid, row in table.rows.items():
                key = self._index_key(index, table, row)
                if key is None:
                    continue
                if check_unique and index.unique and \
                        not any(v.is_null for v in key):
                    for existing, _rid in fresh:
                        # REINDEX checks with the *correct* collation,
                        # catching duplicates a buggy insert path let in.
                        if self._keys_equal(key, existing, collations):
                            raise ConstraintError(
                                self._unique_error(table, row, []).message)
                fresh.append((key, rowid))
            index.entries = fresh

    def _check_table(self, stmt: st.Maintenance) -> ResultSet:
        if self.dialect != "mysql":
            raise UnsupportedError("CHECK TABLE is MySQL-specific")
        table = self.catalog.table(stmt.target or "")
        if stmt.for_upgrade and self.bugs.on("mysql-check-table-crash") \
                and any(idx.is_expression_index
                        for idx in self.catalog.indexes_on(table.name)):
            raise DBCrash("signal 11 in CHECK TABLE ... FOR UPGRADE")
        return ResultSet(columns=["Table", "Op", "Msg_type", "Msg_text"],
                         rows=[(Value.text(table.name),
                                Value.text("check"),
                                Value.text("status"), Value.text("OK"))])

    def _repair_table(self, stmt: st.Maintenance) -> ResultSet:
        if self.dialect != "mysql":
            raise UnsupportedError("REPAIR TABLE is MySQL-specific")
        table = self.catalog.table(stmt.target or "")
        if self.bugs.on("mysql-repair-memory-error") and \
                (table.engine or "").upper() == "MEMORY":
            raise DBError(f"Incorrect key file for table '{table.name}'; "
                          "try to repair it")
        return ResultSet(columns=["Table", "Op", "Msg_type", "Msg_text"],
                         rows=[(Value.text(table.name),
                                Value.text("repair"),
                                Value.text("status"), Value.text("OK"))])

    # -- options / transactions ---------------------------------------------------
    def _set_option(self, stmt: st.SetOption) -> ResultSet:
        name = stmt.name.lower()
        value = self._eval_const(stmt.value) if stmt.value is not None \
            else Value.integer(1)
        if self.dialect == "mysql" and \
                self.bugs.on("mysql-set-option-error") and \
                name == "key_cache_division_limit" and \
                value.t is SQLType.INTEGER and int(value.v) == 100:
            raise DBError("Incorrect arguments to SET")
        self.options[name] = value
        if self.dialect == "sqlite" and name == "case_sensitive_like":
            self.semantics.like_case_sensitive = bool(
                self._option_int("case_sensitive_like"))
        return ResultSet()

    def _option_int(self, name: str) -> int:
        value = self.options.get(name)
        if value is None or value.is_null:
            return 0
        if value.t is SQLType.INTEGER:
            return int(value.v)
        if value.t is SQLType.TEXT:
            lowered = str(value.v).lower()
            if lowered in ("true", "on", "yes"):
                return 1
            if lowered in ("false", "off", "no"):
                return 0
        return 0

    def _transaction(self, stmt: st.TransactionStmt) -> ResultSet:
        if stmt.action == "BEGIN":
            if self._snapshot is not None:
                raise DBError("cannot start a transaction within a "
                              "transaction")
            self._snapshot = (self.catalog.snapshot(), dict(self.options))
            return ResultSet()
        if self._snapshot is None:
            # COMMIT/ROLLBACK outside a transaction is a no-op error in
            # most shells; report it the SQLite way.
            raise DBError("cannot commit - no transaction is active"
                          if stmt.action == "COMMIT"
                          else "cannot rollback - no transaction is active")
        if stmt.action == "ROLLBACK":
            restore, self.options = self._snapshot
            restore()
        self._snapshot = None
        return ResultSet()
