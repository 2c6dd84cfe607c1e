"""Pivot row selection — step 2 of the paper's approach.

"We then select a random row from each of the tables, to which we refer
as the pivot row."  The runner fetches rows from the system under test
with ``SELECT * FROM t`` — the DBMS's own view of its state, exactly
like SQLancer queries state from the DBMS rather than tracking it
(§3.4) — and hands them to :meth:`PivotSelector.select`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.schema import TableModel
from repro.rng import RandomSource
from repro.values import Value


@dataclass
class PivotRow:
    """One selected row per table, with a column environment for the
    oracle interpreter."""

    tables: list[TableModel]
    #: "t0.c0" -> stored Value, for every column of every pivot table.
    values: dict[str, Value] = field(default_factory=dict)
    #: table name -> the pivot row as fetched (tuple of Values).
    row_by_table: dict[str, tuple] = field(default_factory=dict)
    #: table name -> number of rows the table held at selection time.
    row_counts: dict[str, int] = field(default_factory=dict)

    @property
    def all_single_row(self) -> bool:
        """True when every pivot table has exactly one row — the regime
        where the paper partially tests aggregate functions (§3.2)."""
        return all(count == 1 for count in self.row_counts.values())


class PivotSelector:
    """Selects pivot rows from the rows the runner fetched."""

    def __init__(self, rng: RandomSource):
        self.rng = rng

    def select(self, tables_rows: list[tuple[TableModel, list[tuple]]],
               ) -> PivotRow:
        """Pick one random row per table (paper step 2)."""
        pivot = PivotRow(tables=[t for t, _ in tables_rows])
        for table, rows in tables_rows:
            row = self.rng.choice(rows)
            pivot.row_by_table[table.name] = row
            pivot.row_counts[table.name] = len(rows)
            for column, value in zip(table.columns, row):
                pivot.values[f"{table.name}.{column.name}"] = value
        return pivot
