"""The per-database statement stream.

``initial_statements()`` creates tables and seed rows (every table gets
at least one row — paper §3.1 "we ensure that each table holds at least
one row"); ``random_action()`` then draws from the weighted statement
mix.  Each generated statement carries an ``on_success`` callback so the
tool-side schema model is updated only when the target actually accepted
the statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.schema import ColumnModel, SchemaModel, TableModel
from repro.dialects import Dialect
from repro.rng import RandomSource
from repro.stategen.data_gen import DataGenerator
from repro.stategen.schema_gen import SchemaGenerator


@dataclass
class GeneratedStatement:
    sql: str
    kind: str
    on_success: Optional[Callable[[], None]] = None


@dataclass
class ActionWeights:
    """Relative statement-mix weights; the defaults approximate the
    statement distribution behind the paper's Figure 3."""

    insert: float = 28.0
    update: float = 12.0
    delete: float = 6.0
    create_index: float = 18.0
    create_view: float = 5.0
    alter: float = 7.0
    maintenance: float = 14.0
    option: float = 10.0
    transaction: float = 4.0
    drop: float = 3.0

    def items(self) -> list[tuple[str, float]]:
        return [("insert", self.insert), ("update", self.update),
                ("delete", self.delete),
                ("create_index", self.create_index),
                ("create_view", self.create_view), ("alter", self.alter),
                ("maintenance", self.maintenance),
                ("option", self.option),
                ("transaction", self.transaction),
                ("drop", self.drop)]


class ActionGenerator:
    """Draws the statements that build and mutate one database."""

    def __init__(self, dialect: Dialect, schema: SchemaModel,
                 rng: RandomSource,
                 weights: Optional[ActionWeights] = None):
        self.dialect = dialect
        self.schema = schema
        self.rng = rng
        self.weights = weights or ActionWeights()
        self.schema_gen = SchemaGenerator(dialect, schema, rng)
        self.data_gen = DataGenerator(dialect, schema, rng)
        #: Tracks whether the last BEGIN we issued was accepted, so the
        #: stream stays balanced (COMMIT/ROLLBACK follows a BEGIN).
        self.in_transaction = False

    # -- initial state (paper step 1) -----------------------------------------
    def initial_plan_groups(self, n_tables: int, rows_per_table: int):
        """Yield the initial plan as one list of statements per table.

        Each group is one CREATE TABLE plus its seed INSERTs, all
        generated from the group's own table model.  Group *boundaries*
        stay lazy: the next group's CREATE TABLE consults the schema
        state registered by this group's ``on_success`` callbacks (e.g.
        a second table can INHERIT from the first on PostgreSQL), so
        callers must execute a group's statements before pulling the
        next group.
        """
        for _ in range(n_tables):
            sql, model = self.schema_gen.create_table()
            group = [GeneratedStatement(
                sql, "CREATE TABLE",
                on_success=lambda m=model: self.schema.tables.append(m))]
            remaining = rows_per_table
            while remaining > 0:
                batch = min(remaining, self.rng.int_between(1, 5))
                remaining -= batch
                group.append(GeneratedStatement(
                    self.data_gen.insert(model, max_rows=batch),
                    "INSERT"))
            yield group

    def initial_statements(self, n_tables: int, rows_per_table: int):
        """Yield CREATE TABLE + seed INSERTs, lazily (flattened view of
        :meth:`initial_plan_groups`)."""
        for group in self.initial_plan_groups(n_tables, rows_per_table):
            yield from group

    # -- incremental mutation -----------------------------------------------
    def random_action(self) -> Optional[GeneratedStatement]:
        tables = self.schema.base_tables()
        if not tables:
            return None
        names, weights = zip(*self.weights.items())
        kind = self.rng.weighted_choice(list(names), list(weights))
        table = self.rng.choice(tables)
        if kind == "insert":
            return GeneratedStatement(self.data_gen.insert(table), "INSERT")
        if kind == "update":
            return GeneratedStatement(self.data_gen.update(table), "UPDATE")
        if kind == "delete":
            return GeneratedStatement(self.data_gen.delete(table), "DELETE")
        if kind == "create_index":
            sql = self.schema_gen.create_index(table)
            name = sql.split(" ON ")[0].split()[-1]
            return GeneratedStatement(
                sql, "CREATE INDEX",
                on_success=lambda n=name: self.schema.index_names.append(n))
        if kind == "create_view":
            if not self.dialect.supports_views:
                return None
            sql, model = self.schema_gen.create_view(table)
            return GeneratedStatement(
                sql, "CREATE VIEW",
                on_success=lambda m=model: self.schema.tables.append(m))
        if kind == "alter":
            return self._alter(table)
        if kind == "maintenance":
            return self._maintenance(table)
        if kind == "transaction":
            return self._transaction()
        if kind == "drop":
            return self._drop()
        return self._option()

    def _drop(self) -> Optional[GeneratedStatement]:
        """DROP an explicit index or a view (never base tables — the
        pivot machinery needs rows to select from)."""
        views = [t for t in self.schema.tables if t.is_view]
        if self.schema.index_names and (not views or self.rng.flip(0.6)):
            name = self.rng.choice(self.schema.index_names)

            def forget_index(n=name):
                if n in self.schema.index_names:
                    self.schema.index_names.remove(n)

            return GeneratedStatement(f"DROP INDEX {name}", "DROP",
                                      on_success=forget_index)
        if views:
            view = self.rng.choice(views)

            def forget_view(v=view):
                if v in self.schema.tables:
                    self.schema.tables.remove(v)

            return GeneratedStatement(f"DROP VIEW {view.name}", "DROP",
                                      on_success=forget_view)
        return None

    def _transaction(self) -> GeneratedStatement:
        if self.in_transaction:
            sql = "COMMIT" if self.rng.flip(0.7) else "ROLLBACK"

            def leave():
                self.in_transaction = False

            return GeneratedStatement(sql, "TRANSACTION",
                                      on_success=leave)

        def enter():
            self.in_transaction = True

        return GeneratedStatement("BEGIN", "TRANSACTION",
                                  on_success=enter)

    def close_transaction(self) -> Optional[GeneratedStatement]:
        """A COMMIT to balance a dangling BEGIN (used at phase end)."""
        if not self.in_transaction:
            return None

        def leave():
            self.in_transaction = False

        return GeneratedStatement("COMMIT", "TRANSACTION",
                                  on_success=leave)

    def _alter(self, table: TableModel) -> GeneratedStatement:
        if self.rng.flip(0.5):
            old = self.rng.choice(table.columns)
            new_name = f"r{self.rng.int_between(0, 99)}"
            if any(c.name == new_name for c in table.columns):
                new_name += "x"
            sql = (f"ALTER TABLE {table.name} RENAME COLUMN "
                   f"{old.name} TO {new_name}")

            def apply(column=old, name=new_name):
                column.name = name

            return GeneratedStatement(sql, "ALTER", on_success=apply)
        new_col = ColumnModel(
            name=f"a{self.rng.int_between(0, 99)}",
            type_name=self.rng.choice(
                [t for t in self.dialect.column_types if t != "SERIAL"]))
        while any(c.name == new_col.name for c in table.columns):
            new_col.name += "x"
        type_sql = f" {new_col.type_name}" if new_col.type_name else ""
        sql = (f"ALTER TABLE {table.name} ADD COLUMN "
               f"{new_col.name}{type_sql}")

        def apply_add(t=table, c=new_col):
            t.columns.append(c)

        return GeneratedStatement(sql, "ALTER", on_success=apply_add)

    def _maintenance(self, table: TableModel,
                     ) -> Optional[GeneratedStatement]:
        if not self.dialect.maintenance:
            return None
        command = self.rng.choice(self.dialect.maintenance)
        if command == "VACUUM":
            return GeneratedStatement("VACUUM", "VACUUM")
        if command == "VACUUM FULL":
            return GeneratedStatement("VACUUM FULL", "VACUUM")
        if command == "REINDEX":
            target = f" {table.name}" if self.rng.flip(0.5) else ""
            return GeneratedStatement(f"REINDEX{target}", "REINDEX")
        if command == "ANALYZE":
            target = f" {table.name}" if self.rng.flip(0.6) else ""
            return GeneratedStatement(f"ANALYZE{target}", "ANALYZE")
        if command == "CHECK TABLE":
            upgrade = " FOR UPGRADE" if self.rng.flip(0.5) else ""
            return GeneratedStatement(
                f"CHECK TABLE {table.name}{upgrade}", "CHECK TABLE")
        if command == "REPAIR TABLE":
            return GeneratedStatement(f"REPAIR TABLE {table.name}",
                                      "REPAIR TABLE")
        if command == "DISCARD":
            return GeneratedStatement("DISCARD ALL", "DISCARD")
        if command == "CREATE STATISTICS":
            return GeneratedStatement(
                self.schema_gen.create_statistics(table),
                "CREATE STATISTICS")
        return None

    def _option(self) -> Optional[GeneratedStatement]:
        if not self.dialect.options:
            return None
        name, values = self.rng.choice(self.dialect.options)
        value = self.rng.choice(values)
        if self.dialect.name == "sqlite":
            return GeneratedStatement(f"PRAGMA {name} = {value}", "PRAGMA")
        scope = "GLOBAL " if (self.dialect.name == "mysql"
                              and self.rng.flip(0.5)) else ""
        return GeneratedStatement(f"SET {scope}{name} = {value}", "SET")
