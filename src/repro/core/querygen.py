"""Query synthesis — step 5 of the paper's approach.

Rectified conditions go into WHERE and JOIN clauses of an otherwise
random query over the pivot tables.  The SELECT targets are either the
pivot tables' columns or random *expressions on columns* (the paper's
§3.4 extension: instead of checking that the pivot row is contained, we
check that the expressions' values on the pivot row are contained).
When every pivot table holds exactly one row, aggregate functions are
partially tested too (§3.2): for a single-row table the aggregate's
result is computable from the pivot row alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.exprgen import ExpressionGenerator
from repro.core.pivot import PivotRow
from repro.core.rectify import rectify_condition
from repro.interp.base import EvalError, Interpreter
from repro.rng import RandomSource
from repro.sqlast.nodes import Expr, FunctionNode
from repro.sqlast.render import render_expr
from repro.values import Value

#: Aggregates usable on single-row tables (their value equals the
#: expression's value on the pivot row, or 1 for COUNT).
_SINGLE_ROW_AGGREGATES = ("MIN", "MAX", "SUM", "COUNT", "AVG")
#: Share of queries over single-row pivot tables that project
#: aggregates (§3.2).
AGGREGATE_PROBABILITY = 0.15
#: Share of the remaining queries that GROUP BY their projection.
GROUPBY_PROBABILITY = 0.25
#: Share of the rest that project expressions on columns (§3.4) rather
#: than the columns themselves.
EXPRESSION_TARGETS_PROBABILITY = 0.4


@dataclass
class SynthesizedQuery:
    """A query plus everything the containment check needs."""

    sql: str
    targets: list[Expr]
    expected: list[Value]
    table_names: list[str] = field(default_factory=list)
    distinct: bool = False
    join_count: int = 0
    uses_aggregates: bool = False
    #: Negative mode (§7 future work): the condition is FALSE on the
    #: pivot row, so ``expected`` must NOT be in the result set.
    negative: bool = False
    #: Query carries ORDER BY — INTERSECT-mode checking must be skipped
    #: (ORDER BY binds to the whole compound and would be rejected).
    has_order_by: bool = False


class QueryGenerator:
    """Builds pivot-fetching queries from rectified conditions."""

    def __init__(self, generator: ExpressionGenerator,
                 interpreter: Interpreter, rng: RandomSource,
                 rectify: bool = True):
        self.generator = generator
        self.interpreter = interpreter
        self.rng = rng
        #: Rectification can be disabled for the ablation benchmark —
        #: doing so makes the containment oracle unsound (DESIGN.md §4.1).
        self.rectify = rectify

    # -- public -----------------------------------------------------------
    def synthesize(self, pivot: PivotRow, max_attempts: int = 50,
                   ) -> SynthesizedQuery:
        """Generate a query that must fetch the pivot row.

        Retries generation when the strict-dialect interpreter rejects a
        candidate expression (ill-typed / division by zero), mirroring
        how SQLancer constrains generation per dialect.
        """
        self._bind_columns(pivot)
        for _ in range(max_attempts):
            try:
                return self._synthesize_once(pivot)
            except EvalError:
                continue
        raise EvalError("could not synthesize a well-typed query")

    def synthesize_negative(self, pivot: PivotRow,
                            max_attempts: int = 50) -> SynthesizedQuery:
        """A query whose condition is FALSE on the pivot row (§7).

        Callers must ensure the pivot row's values are unique within its
        table; otherwise an equal-valued sibling row would legitimately
        appear in the result set.  Single-table, full-column projection
        only — the narrowest fragment in which non-containment is sound.
        """
        from repro.core.rectify import rectify_condition_to_false

        self._bind_columns(pivot)
        table = pivot.tables[0]
        for _ in range(max_attempts):
            try:
                condition = self.generator.condition()
                condition = rectify_condition_to_false(
                    condition, self.interpreter, pivot.values)
            except EvalError:
                continue
            targets, expected = self._column_targets(pivot)
            sql = self._render(targets, [table.name], [], [], condition,
                               False, self.generator.dialect.name)
            return SynthesizedQuery(sql=sql, targets=targets,
                                    expected=expected,
                                    table_names=[table.name],
                                    negative=True)
        raise EvalError("could not synthesize a well-typed query")

    # -- internals -----------------------------------------------------------
    def _bind_columns(self, pivot: PivotRow) -> None:
        columns = []
        for table in pivot.tables:
            for col in table.columns:
                node = col.column_node(table.name,
                                       self.generator.dialect.name)
                columns.append((node, col.type_bucket(
                    self.generator.dialect.name)))
        self.generator.set_columns(columns, pivot.values)

    def _synthesize_once(self, pivot: PivotRow) -> SynthesizedQuery:
        dialect = self.generator.dialect.name
        condition = self.generator.condition()
        if self.rectify:
            condition = rectify_condition(condition, self.interpreter,
                                          pivot.values)
        else:
            # Ablation mode: use the raw random condition (paper's
            # baseline-free soundness argument, measured in benches).
            self.interpreter.evaluate_bool(condition, pivot.values)

        join_conditions: list[Expr] = []
        join_tables: list[str] = []
        table_names = [t.name for t in pivot.tables]
        use_join = len(table_names) > 1 and self.rng.flip(0.35)
        if use_join:
            # The last table becomes an explicit JOIN with a rectified ON.
            join_tables = [table_names[-1]]
            table_names = table_names[:-1]
            on = self.generator.condition()
            if self.rectify:
                on = rectify_condition(on, self.interpreter, pivot.values)
            join_conditions.append(on)

        use_aggregates = (pivot.all_single_row
                          and self.rng.flip(AGGREGATE_PROBABILITY))
        group_by: list[Expr] = []
        if use_aggregates:
            targets, expected = self._aggregate_targets(pivot)
        elif self.rng.flip(GROUPBY_PROBABILITY):
            # GROUP BY over exactly the projected columns: every distinct
            # projected tuple (the pivot's included) must appear once.
            targets, expected = self._groupby_targets(pivot)
            group_by = list(targets)
        elif self.rng.flip(EXPRESSION_TARGETS_PROBABILITY):
            targets, expected = self._expression_targets(pivot)
        else:
            targets, expected = self._column_targets(pivot)

        distinct = self.rng.flip(0.25) and not group_by
        order_by: list[Expr] = []
        if targets and not use_aggregates and self.rng.flip(0.2):
            # ORDER BY never affects containment; it exercises the
            # engine's sort path ("we randomly select appropriate
            # keywords when generating these queries", §3.2).
            order_by = [self.rng.choice(targets)]
        sql = self._render(targets, table_names, join_tables,
                           join_conditions, condition, distinct, dialect,
                           group_by, order_by)
        return SynthesizedQuery(sql=sql, targets=targets,
                                expected=expected,
                                table_names=[t.name for t in pivot.tables],
                                distinct=distinct,
                                join_count=len(join_tables),
                                uses_aggregates=use_aggregates,
                                has_order_by=bool(order_by))

    def _column_targets(self, pivot: PivotRow,
                        ) -> tuple[list[Expr], list[Value]]:
        targets: list[Expr] = []
        expected: list[Value] = []
        for table in pivot.tables:
            for col in table.columns:
                node = col.column_node(table.name,
                                       self.generator.dialect.name)
                targets.append(node)
                expected.append(pivot.values[f"{table.name}.{col.name}"])
        return targets, expected

    def _groupby_targets(self, pivot: PivotRow,
                         ) -> tuple[list[Expr], list[Value]]:
        """A random column subset, projected *and* grouped by.

        Sound because grouping by exactly the projected columns means
        every distinct projected tuple appears once; the containment
        check compares text columns under their collations, so a
        case-variant group representative still matches the pivot.
        (GROUP BY is beyond the paper's tested fragment; this is the
        soundness argument for adding it.)
        """
        table = self.rng.choice(pivot.tables)
        candidates = table.columns
        count = self.rng.int_between(1, len(candidates))
        columns = self.rng.sample(candidates, count)
        targets = []
        expected = []
        for col in columns:
            targets.append(col.column_node(table.name,
                                           self.generator.dialect.name))
            expected.append(pivot.values[f"{table.name}.{col.name}"])
        return targets, expected

    def _expression_targets(self, pivot: PivotRow,
                            ) -> tuple[list[Expr], list[Value]]:
        """Expressions-on-columns extension (§3.4): project random
        expressions and expect their pivot-row values."""
        count = self.rng.int_between(1, 3)
        targets = []
        expected = []
        for _ in range(count):
            expr = self.generator.scalar()
            value = self.interpreter.evaluate(expr, pivot.values)
            targets.append(expr)
            expected.append(value)
        return targets, expected

    def _aggregate_targets(self, pivot: PivotRow,
                           ) -> tuple[list[Expr], list[Value]]:
        """Aggregates over single-row tables (§3.2): the aggregate of a
        one-row group equals the aggregated expression's value."""
        table = self.rng.choice(pivot.tables)
        column = self.rng.choice(table.columns)
        node = column.column_node(table.name, self.generator.dialect.name)
        name = self.rng.choice(_SINGLE_ROW_AGGREGATES)
        if self.generator.dialect.boolean_root and name in ("SUM", "AVG") \
                and column.type_bucket("postgres") != "number":
            # PostgreSQL has no sum(boolean)/sum(text); stay well-typed.
            name = self.rng.choice(("MIN", "MAX", "COUNT"))
        call = FunctionNode(name, (node,))
        value = pivot.values[f"{table.name}.{column.name}"]
        expected = self._single_row_aggregate(name, value)
        return [call], [expected]

    def _single_row_aggregate(self, name: str, value: Value) -> Value:
        if name == "COUNT":
            return Value.integer(0 if value.is_null else 1)
        if value.is_null:
            return Value.null()
        if name in ("MIN", "MAX"):
            return value
        # SUM / AVG coerce numerically; reuse the dialect's own rules.
        num = self.interpreter.semantics.aggregate_number(value)
        if name == "AVG":
            return Value.real(float(num))
        if isinstance(num, float):
            return Value.real(num)
        return Value.integer(int(num))

    def _render(self, targets: list[Expr], table_names: list[str],
                join_tables: list[str], join_conditions: list[Expr],
                condition: Expr, distinct: bool, dialect: str,
                group_by: Optional[list[Expr]] = None,
                order_by: Optional[list[Expr]] = None) -> str:
        parts = ["SELECT"]
        if distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(render_expr(t, dialect) for t in targets))
        parts.append("FROM")
        parts.append(", ".join(table_names))
        for table, on in zip(join_tables, join_conditions):
            parts.append(f"INNER JOIN {table} ON "
                         f"{render_expr(on, dialect)}")
        parts.append("WHERE")
        parts.append(render_expr(condition, dialect))
        if group_by:
            parts.append("GROUP BY")
            parts.append(", ".join(render_expr(e, dialect)
                                   for e in group_by))
        if order_by:
            parts.append("ORDER BY")
            directions = [" DESC" if self.rng.flip() else ""
                          for _ in order_by]
            parts.append(", ".join(
                render_expr(e, dialect) + suffix
                for e, suffix in zip(order_by, directions)))
        return " ".join(parts)
