"""Schema objects: columns, tables, indexes, views, and the catalog.

The catalog is deliberately explicit — every piece of state the engine
needs to execute statements lives here or in the per-table storage, and
the ``sqlite_master`` / ``information_schema`` emulation in the engine is
generated from it (the paper notes SQLancer queries schema state from the
DBMS rather than tracking it; our adapters do the same through these
virtual tables).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import CatalogError
from repro.interp.base import affinity_of_type_name
from repro.minidb.statements import IndexedExpr, Select
from repro.sqlast.nodes import Expr

#: MySQL-style column type ranges: name -> (min, max) for signed variants.
MYSQL_INT_RANGES = {
    "TINYINT": (-128, 127),
    "SMALLINT": (-32768, 32767),
    "INT": (-(2**31), 2**31 - 1),
    "INTEGER": (-(2**31), 2**31 - 1),
    "BIGINT": (-(2**63), 2**63 - 1),
}


@dataclass
class Column:
    name: str
    type_name: Optional[str]
    not_null: bool = False
    collation: Optional[str] = None
    default: Optional[Expr] = None
    primary_key: bool = False
    unique: bool = False

    @property
    def affinity(self) -> Optional[str]:
        """SQLite type affinity; ``None`` when no type was declared."""
        if self.type_name is None:
            return None
        return affinity_of_type_name(self.type_name)

    @property
    def mysql_base_type(self) -> str:
        """Normalized MySQL type name (without UNSIGNED), default INT."""
        if not self.type_name:
            return "INT"
        words = self.type_name.upper().split()
        return words[0]

    @property
    def mysql_unsigned(self) -> bool:
        return bool(self.type_name) and "UNSIGNED" in self.type_name.upper()


@dataclass
class Index:
    name: str
    table: str
    exprs: list[IndexedExpr]
    unique: bool = False
    where: Optional[Expr] = None
    #: True for the implicit index backing a PRIMARY KEY/UNIQUE constraint.
    implicit: bool = False
    #: Entries: list of (key_tuple, rowid).  Key tuples hold Value objects.
    entries: list = field(default_factory=list)
    #: Value of PRAGMA case_sensitive_like when the index was created
    #: (sqlite; consulted by the case-sensitive-like VACUUM defect).
    created_csl: int = 0
    #: Set when the index was built over a column with NULL history while
    #: the pg-index-null-error defect is active.
    null_tainted: bool = False

    @property
    def is_partial(self) -> bool:
        return self.where is not None

    @property
    def is_expression_index(self) -> bool:
        from repro.sqlast.nodes import CollateNode, ColumnNode

        def base(expr):
            while isinstance(expr, CollateNode):
                expr = expr.operand
            return expr

        return any(not isinstance(base(e.expr), ColumnNode)
                   for e in self.exprs)


@dataclass
class Table:
    name: str
    columns: list[Column]
    without_rowid: bool = False
    engine: Optional[str] = None          # mysql storage engine
    inherits: Optional[str] = None        # postgres parent table
    pk_columns: list[str] = field(default_factory=list)
    #: rowid -> {column_name: Value}; insertion-ordered dict.
    rows: dict = field(default_factory=dict)
    next_rowid: int = 1
    analyzed: bool = False                # has ANALYZE gathered statistics
    #: Per-column SERIAL sequence counters (postgres).
    serials: dict = field(default_factory=dict)
    #: column -> True once the column has ever held NULL (pg defect input).
    ever_null: dict = field(default_factory=dict)

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name.lower() == name.lower():
                return col
        raise CatalogError(f"no such column: {self.name}.{name}")

    def has_column(self, name: str) -> bool:
        return any(col.name.lower() == name.lower() for col in self.columns)

    def column_names(self) -> list[str]:
        return [col.name for col in self.columns]


@dataclass
class View:
    name: str
    select: Select


@dataclass
class Statistics:
    name: str
    table: str
    columns: list[str]


class Catalog:
    """All schema objects in one database."""

    def __init__(self) -> None:
        self.tables: dict[str, Table] = {}
        self.indexes: dict[str, Index] = {}
        self.views: dict[str, View] = {}
        self.statistics: dict[str, Statistics] = {}

    # -- lookups -------------------------------------------------------------
    def table(self, name: str) -> Table:
        try:
            return self.tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no such table: {name}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self.tables

    def has_view(self, name: str) -> bool:
        return name.lower() in self.views

    def view(self, name: str) -> View:
        try:
            return self.views[name.lower()]
        except KeyError:
            raise CatalogError(f"no such view: {name}") from None

    def index(self, name: str) -> Index:
        try:
            return self.indexes[name.lower()]
        except KeyError:
            raise CatalogError(f"no such index: {name}") from None

    def indexes_on(self, table: str) -> list[Index]:
        return [idx for idx in self.indexes.values()
                if idx.table.lower() == table.lower()]

    def children_of(self, table: str) -> list[Table]:
        """Tables that INHERIT from *table* (postgres)."""
        return [t for t in self.tables.values()
                if t.inherits and t.inherits.lower() == table.lower()]

    # -- undo ----------------------------------------------------------------
    def snapshot(self) -> Callable[[], None]:
        """Save the catalog; the returned one-shot ``restore()`` writes it
        back in place.

        Shallow: the four name dicts, and each table's and index's
        attributes with every list or dict (rows, columns, entries, ...)
        copied one level deep.  That is exact under one rule: no
        statement edits a row dict or a :class:`Column` in place (UPDATE
        and ALTER TABLE swap in fresh ones).
        """
        names = [(d, dict(d)) for d in (self.tables, self.indexes,
                                        self.views, self.statistics)]
        attrs = [(obj, {k: v.copy() if isinstance(v, (list, dict)) else v
                        for k, v in vars(obj).items()})
                 for obj in (*self.tables.values(), *self.indexes.values())]

        def restore() -> None:
            for live, saved in names:
                live.clear()
                live.update(saved)
            for obj, saved in attrs:
                vars(obj).update(saved)

        return restore

    # -- mutation ------------------------------------------------------------
    def add_table(self, table: Table) -> None:
        key = table.name.lower()
        if key in self.tables or key in self.views:
            raise CatalogError(f"table {table.name} already exists")
        self.tables[key] = table

    def add_view(self, view: View) -> None:
        key = view.name.lower()
        if key in self.tables or key in self.views:
            raise CatalogError(f"view {view.name} already exists")
        self.views[key] = view

    def add_index(self, index: Index) -> None:
        key = index.name.lower()
        if key in self.indexes:
            raise CatalogError(f"index {index.name} already exists")
        self.indexes[key] = index

    def drop_table(self, name: str, if_exists: bool) -> bool:
        key = name.lower()
        if key not in self.tables:
            if if_exists:
                return False
            raise CatalogError(f"no such table: {name}")
        if self.children_of(name):
            raise CatalogError(
                f"cannot drop table {name}: other tables inherit from it")
        del self.tables[key]
        for idx_name in [n for n, idx in self.indexes.items()
                         if idx.table.lower() == key]:
            del self.indexes[idx_name]
        for stat_name in [n for n, stat in self.statistics.items()
                          if stat.table.lower() == key]:
            del self.statistics[stat_name]
        return True

    def drop_index(self, name: str, if_exists: bool) -> bool:
        key = name.lower()
        index = self.indexes.get(key)
        if index is None:
            if if_exists:
                return False
            raise CatalogError(f"no such index: {name}")
        if index.implicit:
            raise CatalogError(
                f"index {name} is backing a constraint and cannot be "
                f"dropped")
        del self.indexes[key]
        return True

    def drop_view(self, name: str, if_exists: bool) -> bool:
        key = name.lower()
        if key not in self.views:
            if if_exists:
                return False
            raise CatalogError(f"no such view: {name}")
        del self.views[key]
        return True

    def rename_table(self, old: str, new: str) -> None:
        table = self.table(old)
        if self.has_table(new) or self.has_view(new):
            raise CatalogError(f"there is already a table named {new}")
        del self.tables[old.lower()]
        table.name = new
        self.tables[new.lower()] = table
        for idx in self.indexes.values():
            if idx.table.lower() == old.lower():
                idx.table = new
