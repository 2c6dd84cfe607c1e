"""The SELECT pipeline: scan → join → filter → group → project → distinct
→ compound → order → limit.

Execution is naive nested-loop/materialize-everything — the paper sizes
databases at 10–30 rows precisely so that query evaluation cost stays
trivial — but it is a *real* pipeline: rows flow from access paths chosen
by the planner, through the engine-side evaluator, into result sets.
Several injected defects live here (MEMORY-engine scans, inherited
GROUP BY, skip-scan DISTINCT, stale-index detection).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.errors import CatalogError, DBCrash, DBError, IntegrityError, UnsupportedError
from repro.interp.base import EvalError
from repro.interp.mysql_sem import to_number as mysql_to_number
from repro.minidb import statements as st
from repro.minidb.catalog import Table
from repro.minidb.planner import AccessPath, Scope, bind, choose_path, rewrite
from repro.sqlast.nodes import ColumnNode, Expr, FunctionNode, LiteralNode, walk
from repro.sqlast.render import render_expr
from repro.sqlast.transform import transform
from repro.values import NULL, SQLType, Value, int_or_real

if TYPE_CHECKING:  # pragma: no cover
    from repro.minidb.engine import Engine, ResultSet

#: Function names that are aggregates (MIN/MAX only in their 1-arg form).
ALWAYS_AGGREGATE = frozenset({"COUNT", "SUM", "AVG", "TOTAL"})


def is_aggregate_call(node: Expr) -> bool:
    if not isinstance(node, FunctionNode):
        return False
    if node.name.upper() in ALWAYS_AGGREGATE:
        return True
    return node.name.upper() in ("MIN", "MAX") and len(node.args) == 1


@dataclass
class SourceRow:
    """One joined row: qualified-name environment plus per-table rowids."""

    env: dict[str, Value]
    tables: dict[str, int] = field(default_factory=dict)


class SelectExecutor:
    """Executes one (bound) SELECT statement against an engine."""

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self.catalog = engine.catalog
        self.bugs = engine.bugs
        self.dialect = engine.dialect
        self.interp = engine.interp
        self.semantics = engine.semantics
        # Resolved once per statement: consulted per joined row otherwise.
        self._memory_clamp = engine.bugs.on("mysql-memory-engine-join")

    # -- public entry -----------------------------------------------------
    def execute(self, select: st.Select) -> "ResultSet":
        from repro.minidb.engine import ResultSet

        columns, rows = self._run(select)
        return ResultSet(columns=columns, rows=rows)

    def explain(self, select: st.Select,
                ) -> list[tuple[str, str, Optional[str], str]]:
        """Access-path rows for *select* without scanning any data.

        Takes the planning step of :meth:`_run` (:meth:`_plan`), so
        EXPLAIN always reports the paths the executor takes, and renders
        each path as a ``(table, kind, index, detail)`` row.
        Planning-time *defect* checks are deliberately skipped: EXPLAIN
        inspects the plan, it does not trigger the modeled bugs.
        """
        steps: list[tuple[str, str, Optional[str], str]] = []
        self._explain_into(select, steps)
        return steps

    def _explain_into(self, select: st.Select,
                      steps: list[tuple[str, str, Optional[str], str]],
                      ) -> None:
        scope_tables, bound, where, paths = self._plan(select)
        for (visible, _table), path in zip(scope_tables, paths):
            steps.append(self._plan_step(visible, path))
        for join, (visible, _table) in zip(
                select.joins, scope_tables[len(paths):]):
            steps.append((visible, "full-scan", None,
                          f"{join.kind.lower()} join"))
        if where is not None:
            for tag in self._rewrite_tags(bound.where, where):
                steps.append(("-", "rewrite", None, tag))
        if bound.compound is not None:
            kind, rhs = bound.compound
            steps.append(("-", "compound", None, kind.lower()))
            self._explain_into(rhs, steps)

    @staticmethod
    def _plan_step(visible: str,
                   path: AccessPath) -> tuple[str, str, Optional[str], str]:
        index = path.index
        tags = []
        if index is not None:
            if index.is_partial:
                tags.append("partial")
            if index.is_expression_index:
                tags.append("expression")
            if index.unique:
                tags.append("unique")
            if any(e.collation for e in index.exprs):
                tags.append("collated")
            if any(e.descending for e in index.exprs):
                tags.append("desc")
            if index.implicit:
                tags.append("implicit")
        detail = " ".join(tags)
        if path.reason:
            detail = f"{detail} ({path.reason})" if detail \
                else f"({path.reason})"
        return (visible, path.kind,
                index.name if index is not None else None, detail)

    @staticmethod
    def _rewrite_tags(before: Expr, after: Expr) -> list[str]:
        """Which optimizer rewrites fired between *before* and *after*.

        Detected structurally (operator-count deltas) so EXPLAIN output —
        and therefore plan fingerprints — distinguishes states where a
        rewrite such as the LIKE-affinity optimization kicked in.
        """
        from repro.sqlast.nodes import BinaryNode, BinaryOp, UnaryNode, UnaryOp

        def counts(expr: Expr) -> tuple[int, int, int]:
            like = nots = nullsafe = 0
            for node in walk(expr):
                if isinstance(node, BinaryNode):
                    if node.op is BinaryOp.LIKE:
                        like += 1
                    elif node.op is BinaryOp.NULL_SAFE_EQ:
                        nullsafe += 1
                elif isinstance(node, UnaryNode) and \
                        node.op is UnaryOp.NOT:
                    nots += 1
            return like, nots, nullsafe

        b, a = counts(before), counts(after)
        tags = []
        if a[0] < b[0]:
            tags.append("like-opt")
        if a[1] < b[1]:
            tags.append("not-not-opt")
        if a[2] < b[2]:
            tags.append("nullsafe-fold")
        return tags

    def _plan(self, select: st.Select,
              ) -> tuple[list[tuple[str, Table]], st.Select,
                         Optional[Expr], list[AccessPath]]:
        """The planning step that both :meth:`_run` and EXPLAIN take:
        the scope tables, the bound Select, the rewritten WHERE (None
        without one) and one access path per plain (non-JOIN) table."""
        scope_tables = self._scope_tables(select)
        scope = Scope(scope_tables, self.dialect)
        bound = self._bound(select, scope)
        where = None
        if bound.where is not None:
            where = self._rewritten(bound.where, scope)
        paths = [self._choose_path(bound, table, where)
                 for _visible, table in scope_tables[:len(bound.tables)]]
        return scope_tables, bound, where, paths

    def _run(self, select: st.Select) -> tuple[list[str], list[tuple]]:
        # Paths are chosen before the planning-time defect checks, as
        # EXPLAIN chooses them, so a forced plan the planner rejects
        # ("no query solution") raises the same error whether or not an
        # EXPLAIN ran first.  Unforced, choose_path never raises.
        scope_tables, bound, where, paths = self._plan(select)
        self._planning_defect_checks(bound, scope_tables)

        skip_scan_index = None
        source_rows: list[SourceRow] = []
        if scope_tables:
            source_rows, skip_scan_index = self._from_rows(
                bound, scope_tables, paths)
        else:
            source_rows = [SourceRow(env={})]

        if where is not None:
            source_rows = list(filter(self._predicate(where), source_rows))

        columns, projected = self._project(bound, source_rows)

        if bound.distinct:
            projected = self._distinct(projected, source_rows,
                                       skip_scan_index)

        if bound.compound is not None:
            kind, rhs = bound.compound
            rhs_columns, rhs_rows = self._run(rhs)
            if len(rhs_columns) != len(columns):
                raise DBError("SELECTs to the left and right of "
                              f"{kind} do not have the same number of "
                              "result columns")
            projected = self._combine(kind, projected, rhs_rows)

        if bound.order_by:
            projected = self._order(bound, projected, source_rows)

        if bound.limit is not None:
            projected = self._limit(bound, projected)
        return columns, projected

    # -- FROM clause -----------------------------------------------------------
    def _scope_tables(self, select: st.Select) -> list[tuple[str, Table]]:
        names = list(select.tables) + [j.table for j in select.joins]
        out: list[tuple[str, Table]] = []
        for name in names:
            out.append((name, self.engine.resolve_relation(name)))
        return out

    def _bound(self, select: st.Select, scope: Scope) -> st.Select:
        """*select* bound against *scope*, memoized per engine (see
        ``Engine._bound_selects``).  No pipeline stage mutates a bound
        Select: every stage reads it and builds new rows and nodes."""
        cache = self.engine._bound_selects
        entry = cache.get(id(select))
        if entry is None:
            if len(cache) >= 256:
                self.engine.drop_bound_selects()
            entry = (select, self._bind_select(select, scope))
            cache[id(select)] = entry
        return entry[1]

    def _rewritten(self, where: Expr, scope: Scope) -> Expr:
        """The optimizer rewrite of the bound *where*, memoized per
        engine (see ``Engine._plan_memo``).  Hints reach the rewrites
        only through ``no_like_opt`` and whether an index is forced."""
        hints = self.engine.hints
        key = ("where", id(where),
               hints is not None and hints.no_like_opt,
               hints is not None and bool(hints.force_index))
        memo = self.engine._plan_memo
        entry = memo.get(key)
        if entry is None:
            entry = (where, rewrite(where, self.dialect, self.bugs, scope,
                                    hints))
            memo[key] = entry
        return entry[1]

    def _bind_select(self, select: st.Select, scope: Scope) -> st.Select:
        bound = st.Select(
            items=[st.SelectItem(
                expr=bind(item.expr, scope) if item.expr else None,
                star_table=item.star_table, alias=item.alias)
                for item in select.items],
            tables=select.tables,
            joins=[st.JoinClause(kind=j.kind, table=j.table,
                                 on=bind(j.on, scope) if j.on else None)
                   for j in select.joins],
            where=bind(select.where, scope) if select.where else None,
            group_by=[bind(e, scope) for e in select.group_by],
            having=bind(select.having, scope) if select.having else None,
            order_by=[st.OrderItem(expr=bind(o.expr, scope),
                                   descending=o.descending)
                      for o in select.order_by],
            limit=select.limit, offset=select.offset,
            distinct=select.distinct, compound=select.compound)
        return bound

    def _choose_path(self, select: st.Select, table: Table,
                     where: Optional[Expr]) -> AccessPath:
        indexes = self.catalog.indexes_on(table.name)
        if self.dialect == "postgres" and \
                self.catalog.has_table(table.name) and \
                self.catalog.children_of(table.name):
            # A parent's indexes do not cover inherited child rows; an
            # inheritance scan must walk the heap of every table.
            indexes = []
        return choose_path(table, where, indexes, select.distinct,
                           self.bugs, self.engine.hints,
                           self._analyzed(table))

    def _analyzed(self, table: Table) -> bool:
        """Does the planner see statistics for *table*?  A forced plan's
        ``analyze`` hint answers for every catalog table without writing
        its flag; a view keeps its own."""
        hints = self.engine.hints
        if hints is None or hints.analyze is None or \
                not self.catalog.has_table(table.name):
            return table.analyzed
        return hints.analyze

    def _from_rows(self, select: st.Select,
                   scope_tables: list[tuple[str, Table]],
                   paths: list[AccessPath],
                   ) -> tuple[list[SourceRow], Optional[object]]:
        """Scan + join all FROM sources into combined rows, the plain
        tables along their chosen *paths*."""
        skip_scan_index = None
        plain = scope_tables[:len(select.tables)]
        combined: list[SourceRow] = [SourceRow(env={})]
        hints = self.engine.hints
        stale_join = len(plain) >= 2 \
            and self.bugs.on("sqlite-stale-stats-join") \
            and hints is not None and hints.analyze \
            and not all(t.analyzed for t in self.catalog.tables.values())
        prev: Optional[tuple[str, Table]] = None
        for (visible, table), path in zip(plain, paths):
            if path.kind == "skip-scan":
                skip_scan_index = path.index
            scanned = self._scan(visible, table, path)
            if prev is None:
                # First source: merging each row with the empty seed row
                # only copied dicts; the scanned rows already carry the
                # full env (and _scan always returns a fresh list).
                combined = scanned
            elif stale_join:
                # Defect (sqlite-stale-stats-join): statistics that no
                # ANALYZE gathered make the join reorderer believe the
                # tables were already equi-joined, so the cross product
                # drops pairs whose lead columns collide.  Fires only
                # under an analyze hint that synthesizes statistics some
                # table lacks.
                combined = [
                    self._merge(a, b)
                    for a in combined for b in scanned
                    if not self._stale_join_collision(a, prev, b,
                                                      (visible, table))]
            else:
                combined = [self._merge(a, b)
                            for a in combined for b in scanned]
            prev = (visible, table)
        for join, (visible, table) in zip(
                select.joins, scope_tables[len(select.tables):]):
            scanned = self._scan(visible, table,
                                 AccessPath("full-scan", table.name))
            combined = self._join(combined, scanned, join, visible, table)
        return combined, skip_scan_index

    def _scan(self, visible: str, table: Table,
              path: AccessPath) -> list[SourceRow]:
        # Full scans are pure functions of table contents, so their
        # SourceRow lists are shared across queries until the next
        # write (the engine clears the cache on any non-SELECT).  The
        # list container is copied both ways — callers may hand the
        # list onward — but the SourceRows themselves are shared: no
        # pipeline stage mutates env/tables in place (merges, LEFT-join
        # padding and the MEMORY clamp all copy first).  Index and
        # skip scans stay uncached: their row order depends on index
        # entries and defect state, not just the heap.
        cacheable = path.kind == "full-scan"
        if cacheable:
            key = (table.name, visible)
            cached = self.engine._scan_cache.get(key)
            if cached is not None:
                return list(cached)
        rows = self.engine.scan_rows(table, path)
        out = []
        # All rows of one relation share the same key set in the same
        # insertion order (every construction path — INSERT, UPDATE's
        # dict(row), ADD/RENAME COLUMN backfills, view materialization,
        # inheritance projection — walks the column list uniformly), so
        # the qualified-name keys are computed once per scan.
        keys: Optional[list[str]] = None
        for rowid, row in rows:
            if keys is None or len(keys) != len(row):
                keys = [f"{visible}.{col}" for col in row]
            out.append(SourceRow(env=dict(zip(keys, row.values())),
                                 tables={visible: rowid}))
        if cacheable and self.engine._scan_caching:
            self.engine._scan_cache[key] = list(out)
        return out

    def _stale_join_collision(self, a: SourceRow,
                              prev_vt: tuple[str, Table], b: SourceRow,
                              cur_vt: tuple[str, Table]) -> bool:
        prev_visible, prev_table = prev_vt
        cur_visible, cur_table = cur_vt
        if not prev_table.columns or not cur_table.columns:
            return False
        av = a.env.get(f"{prev_visible}.{prev_table.columns[0].name}")
        bv = b.env.get(f"{cur_visible}.{cur_table.columns[0].name}")
        if av is None or bv is None or av.is_null or bv.is_null:
            return False
        try:
            return self.semantics.values_equal(av, bv) is True
        except EvalError:
            return False

    @staticmethod
    def _merge(a: SourceRow, b: SourceRow) -> SourceRow:
        env = dict(a.env)
        env.update(b.env)
        tables = dict(a.tables)
        tables.update(b.tables)
        return SourceRow(env=env, tables=tables)

    def _join(self, left: list[SourceRow], right: list[SourceRow],
              join: st.JoinClause, visible: str,
              table: Table) -> list[SourceRow]:
        out: list[SourceRow] = []
        null_env = {f"{visible}.{col}": NULL
                    for col in table.column_names()}
        test = None if join.on is None else self._predicate(join.on)
        for lrow in left:
            matched = False
            for rrow in right:
                merged = self._merge(lrow, rrow)
                if test is None or test(merged):
                    matched = True
                    out.append(merged)
            if join.kind == "LEFT" and not matched:
                padded = SourceRow(env=dict(lrow.env),
                                   tables=dict(lrow.tables))
                padded.env.update(null_env)
                out.append(padded)
        return out

    # -- evaluation ------------------------------------------------------------
    def _eval(self, expr: Expr, row: SourceRow) -> Value:
        try:
            return self.interp.compile(expr)(row.env)
        except EvalError as exc:
            raise DBError(str(exc)) from exc

    def _predicate(self, expr: Expr) -> Callable[[SourceRow], bool]:
        """Is *expr* TRUE on a row?  WHERE and JOIN ... ON both test rows
        through this one compiled predicate; the first row whose
        evaluation fails raises :class:`DBError`."""
        compiled = self.interp.compile(expr)
        to_bool = self.semantics.to_bool
        clamp = self._memory_clamped if self._memory_clamp else None

        def holds(row: SourceRow) -> bool:
            try:
                return to_bool(compiled(
                    row.env if clamp is None else clamp(row))) is True
            except EvalError as exc:
                raise DBError(str(exc)) from exc
        return holds

    def _memory_clamped(self, row: SourceRow) -> dict[str, Value]:
        """Defect: MEMORY-engine scans clamp negative ints to 0 during
        predicate evaluation (paper Listing 11 analogue)."""
        env = row.env
        memory_tables = {visible for visible in row.tables
                         if self._is_memory(visible)}
        if not memory_tables:
            return env
        clamped = dict(env)
        for key, value in env.items():
            table = key.split(".", 1)[0]
            if (table in memory_tables and value.t is SQLType.INTEGER
                    and int(value.v) < 0):
                clamped[key] = Value.integer(0)
        return clamped

    def _is_memory(self, visible: str) -> bool:
        try:
            table = self.catalog.table(visible)
        except CatalogError:
            return False
        return (table.engine or "").upper() == "MEMORY"

    # -- projection -------------------------------------------------------------
    def _project(self, select: st.Select, rows: list[SourceRow],
                 ) -> tuple[list[str], list[tuple]]:
        memo = self.engine._plan_memo
        key = ("aggregate", id(select))
        entry = memo.get(key)
        if entry is None:
            entry = (select, any(
                item.expr is not None and any(is_aggregate_call(n)
                                              for n in walk(item.expr))
                for item in select.items))
            memo[key] = entry
        if select.group_by or entry[1]:
            return self._project_grouped(select, rows)
        columns = self._output_columns(select, rows)
        # Compile each select item once; rows then evaluate closures
        # directly (same left-to-right order, same first-error-raises).
        compiled = [None if item.expr is None
                    else self.interp.compile(item.expr)
                    for item in select.items]
        out = []
        try:
            if None not in compiled:
                for row in rows:
                    env = row.env
                    out.append(tuple(fn(env) for fn in compiled))
            else:
                for row in rows:
                    values: list[Value] = []
                    for item, fn in zip(select.items, compiled):
                        if fn is None:
                            values.extend(
                                self._star_values(item, row, select))
                        else:
                            values.append(fn(row.env))
                    out.append(tuple(values))
        except EvalError as exc:
            raise DBError(str(exc)) from exc
        return columns, out

    def _output_columns(self, select: st.Select,
                        rows: list[SourceRow]) -> list[str]:
        columns: list[str] = []
        for item in select.items:
            if item.expr is None:
                columns.extend(self._star_names(item, select))
            elif item.alias:
                columns.append(item.alias)
            elif isinstance(item.expr, ColumnNode):
                columns.append(item.expr.column)
            else:
                columns.append(render_expr(item.expr))
        return columns

    def _star_tables(self, item: st.SelectItem,
                     select: st.Select) -> list[str]:
        if item.star_table is not None:
            return [item.star_table]
        return list(select.tables) + [j.table for j in select.joins]

    def _star_names(self, item: st.SelectItem,
                    select: st.Select) -> list[str]:
        names = []
        for visible in self._star_tables(item, select):
            table = self.engine.resolve_relation(visible)
            names.extend(table.column_names())
        return names

    def _star_values(self, item: st.SelectItem, row: SourceRow,
                     select: st.Select) -> list[Value]:
        values = []
        for visible in self._star_tables(item, select):
            table = self.engine.resolve_relation(visible)
            for col in table.column_names():
                values.append(row.env.get(f"{visible}.{col}", NULL))
        return values

    # -- grouping / aggregates ------------------------------------------------
    def _project_grouped(self, select: st.Select, rows: list[SourceRow],
                         ) -> tuple[list[str], list[tuple]]:
        columns = self._output_columns(select, rows)
        for item in select.items:
            if item.expr is None:
                raise UnsupportedError(
                    "star projection with aggregates is not supported")
        groups = self._group(select, rows)
        out: list[tuple] = []
        for group_rows in groups:
            if select.having is not None:
                keep = self.semantics.to_bool(
                    self._eval_aggregate_expr(select.having, group_rows))
                if keep is not True:
                    continue
            values = tuple(self._eval_aggregate_expr(item.expr, group_rows)
                           for item in select.items if item.expr is not None)
            out.append(values)
        return columns, out

    def _group(self, select: st.Select,
               rows: list[SourceRow]) -> list[list[SourceRow]]:
        if not select.group_by:
            # Aggregates with no GROUP BY: one group over all rows.
            return [rows] if rows else [[]]
        group_exprs = list(select.group_by)
        if self.bugs.on("pg-inherit-groupby"):
            group_exprs = self._inherit_groupby_defect(select, group_exprs)
        compiled = [self.interp.compile(e) for e in group_exprs]
        canon = self._canon
        keyed: dict[tuple, list[SourceRow]] = {}
        try:
            for row in rows:
                env = row.env
                key = tuple(canon(fn(env)) for fn in compiled)
                keyed.setdefault(key, []).append(row)
        except EvalError as exc:
            raise DBError(str(exc)) from exc
        return list(keyed.values())

    def _inherit_groupby_defect(self, select: st.Select,
                                group_exprs: list[Expr]) -> list[Expr]:
        """Defect: when grouping a table with inheritance children, trust
        the parent's PRIMARY KEY and group by the PK columns only
        (paper Listing 15)."""
        for name in select.tables:
            if not self.catalog.has_table(name):
                continue
            table = self.catalog.table(name)
            if not self.catalog.children_of(name) or not table.pk_columns:
                continue
            pk = {c.lower() for c in table.pk_columns}
            grouped = {e.column.lower() for e in group_exprs
                       if isinstance(e, ColumnNode)}
            if pk <= grouped:
                return [e for e in group_exprs
                        if isinstance(e, ColumnNode)
                        and e.column.lower() in pk]
        return group_exprs

    def _canon(self, v: Value):
        """Hashable canonical form implementing grouping equality."""
        if v.t is SQLType.NULL:
            return ("null",)
        if v.is_numeric:
            num = int(v.v) if v.t is not SQLType.REAL else float(v.v)
            if isinstance(num, float) and num == int(num):
                num = int(num)
            if isinstance(v.v, bool):
                num = int(v.v)
            return ("num", num)
        if v.t is SQLType.TEXT:
            text = str(v.v)
            if self.dialect == "mysql":
                text = text.lower()
            return ("text", text)
        return ("blob", bytes(v.v))

    def _eval_aggregate_expr(self, expr: Expr,
                             group_rows: list[SourceRow]) -> Value:
        """Evaluate an expression that may contain aggregate calls by
        substituting each aggregate with its computed literal."""
        if is_aggregate_call(expr):
            # The overwhelmingly common shape (`COUNT(*)`, `SUM(c)`, ...):
            # no substitution or re-walk needed.
            return self._aggregate(expr, group_rows)

        def visit(node: Expr) -> Optional[Expr]:
            if is_aggregate_call(node):
                return LiteralNode(self._aggregate(node, group_rows))
            return None

        substituted = transform(expr, visit)
        env = group_rows[0].env if group_rows else {}
        try:
            # One-shot tree: evaluate, which keeps no memo entry (each
            # group builds fresh nodes, which would thrash the memo).
            return self.interp.evaluate(substituted, env)
        except EvalError as exc:
            raise DBError(str(exc)) from exc

    def _aggregate(self, call: FunctionNode,
                   group_rows: list[SourceRow]) -> Value:
        name = call.name.upper()
        if name == "COUNT" and not call.args:
            return Value.integer(len(group_rows))
        arg = call.args[0]
        arg_fn = self.interp.compile(arg)
        try:
            values = [arg_fn(row.env) for row in group_rows]
        except EvalError as exc:
            raise DBError(str(exc)) from exc
        present = [v for v in values if not v.is_null]
        if name == "COUNT":
            return Value.integer(len(present))
        if name == "TOTAL":
            return Value.real(sum(self._as_number(v) for v in present))
        if name in ("SUM", "AVG"):
            if not present:
                return NULL
            numbers = [self._as_number(v) for v in present]
            total = sum(numbers)
            if name == "AVG":
                return Value.real(float(total) / len(numbers))
            if any(isinstance(n, float) for n in numbers):
                return Value.real(float(total))
            return int_or_real(int(total))
        if name in ("MIN", "MAX"):
            if not present:
                return NULL
            best = present[0]
            for v in present[1:]:
                cmp = self._compare_values(v, best)
                if (name == "MIN" and cmp < 0) or (name == "MAX" and cmp > 0):
                    best = v
            return best
        raise UnsupportedError(f"unknown aggregate: {name}")

    def _as_number(self, v: Value) -> int | float:
        try:
            return self.semantics.aggregate_number(v)
        except EvalError as exc:
            raise DBError(str(exc)) from exc

    def _compare_values(self, a: Value, b: Value) -> int:
        try:
            return self.semantics.order(a, b)
        except EvalError as exc:
            raise DBError(str(exc)) from exc

    # -- distinct / compound / order / limit -------------------------------------
    def _distinct(self, projected: list[tuple], source: list[SourceRow],
                  skip_scan_index) -> list[tuple]:
        if skip_scan_index is not None and source and \
                len(source) == len(projected):
            # Defect path (sqlite-skip-scan-distinct): deduplicate on the
            # index's leading expression instead of the projected row.
            lead = skip_scan_index.exprs[0].expr
            seen_keys = []
            out = []
            for row, src in zip(projected, source):
                try:
                    key = self._eval(self._rebind_lead(lead, src), src)
                except DBError:
                    key = NULL
                if any(self.semantics.values_equal(key, s)
                       for s in seen_keys):
                    continue
                seen_keys.append(key)
                out.append(row)
            return out
        return self._dedup(projected)

    def _rebind_lead(self, lead: Expr, src: SourceRow) -> Expr:
        table = next(iter(src.tables), "")

        def visit(node: Expr) -> Optional[Expr]:
            if isinstance(node, ColumnNode) and not node.table:
                return ColumnNode(table=table, column=node.column)
            return None

        return transform(lead, visit)

    def _rows_equal(self, a: tuple, b: tuple) -> bool:
        return len(a) == len(b) and all(
            self.semantics.values_equal(x, y) for x, y in zip(a, b))

    # Row deduplication (DISTINCT/UNION/INTERSECT/EXCEPT) hash-buckets
    # candidate rows before confirming with the dialect's values_equal.
    # Soundness needs only "equal values => equal key" — key collisions
    # between unequal values merely grow a bucket, and the pairwise
    # confirmation inside a bucket reproduces the historical
    # order-dependent scan exactly (including non-transitive numeric
    # equality: huge ints that compare equal to a float share its key).
    # MySQL's equality coerces across storage classes (TEXT '1' equals
    # INTEGER 1), so no type-segregated key exists — it keeps the
    # pairwise scan.

    def _value_key(self, v: Value):
        t = v.t
        if self.dialect == "mysql":
            # MySQL equality coerces across storage classes through
            # ``to_number`` (TEXT '1' = INTEGER 1; BLOB b'1' = INTEGER 1
            # via the decoded text) and compares TEXT×TEXT without case.
            # Every equal pair therefore shares a numeric image:
            # case-folded-equal texts have identical numeric prefixes,
            # and blob↔anything equality goes through the same text.
            # Collisions (e.g. all non-numeric texts keying 0.0) are
            # performance-only — the bucket confirms pairwise.
            if t is SQLType.NULL:
                return ("null",)
            num = mysql_to_number(v)
            try:
                f = float(num)
            except OverflowError:
                return ("big", num)
            if f != f:
                return ("nan",)
            return f
        if t is SQLType.NULL:
            return ("null",)
        if t is SQLType.TEXT:
            # sqlite/pg row equality uses BINARY collation: exact text.
            return str(v.v)
        if t is SQLType.BLOB:
            return bytes(v.v)
        if t is SQLType.BOOLEAN and self.dialect == "postgres":
            # PG booleans only ever equal other booleans.
            return ("bool", bool(v.v))
        # Numbers (and sqlite booleans, which debooleanize): equality
        # implies equal float images, NaN equals NaN.
        num = int(v.v) if t is SQLType.BOOLEAN else v.v
        try:
            f = float(num)
        except OverflowError:
            return ("big", num)
        if f != f:
            return ("nan",)
        return f

    def _row_key(self, row: tuple) -> tuple:
        return tuple(self._value_key(v) for v in row)

    def _dedup(self, rows: list[tuple]) -> list[tuple]:
        out: list[tuple] = []
        buckets: dict[tuple, list[tuple]] = {}
        for row in rows:
            key = self._row_key(row)
            kept = buckets.get(key)
            if kept is None:
                buckets[key] = [row]
                out.append(row)
            elif not any(self._rows_equal(row, k) for k in kept):
                kept.append(row)
                out.append(row)
        return out

    def _membership_index(self, rows: list[tuple],
                          ) -> dict[tuple, list[tuple]]:
        index: dict[tuple, list[tuple]] = {}
        for row in rows:
            index.setdefault(self._row_key(row), []).append(row)
        return index

    def _combine(self, kind: str, left: list[tuple],
                 right: list[tuple]) -> list[tuple]:
        if kind == "UNION ALL":
            return left + right
        if kind == "UNION":
            return self._dedup(left + right)
        if kind not in ("INTERSECT", "EXCEPT"):
            raise UnsupportedError(f"unsupported compound operator: {kind}")
        want = kind == "INTERSECT"
        rindex = self._membership_index(right)
        matching = []
        for row in left:
            candidates = rindex.get(self._row_key(row), ())
            if any(self._rows_equal(row, r)
                   for r in candidates) is want:
                matching.append(row)
        return self._dedup(matching)

    def _order(self, select: st.Select, projected: list[tuple],
               source: list[SourceRow]) -> list[tuple]:
        # ORDER BY over projected rows: when the source rows are still
        # 1:1 with projected rows we can evaluate arbitrary expressions;
        # otherwise (post-DISTINCT/aggregate) only ordinal references and
        # output columns order deterministically — MiniDB sorts by the
        # projected tuple in that case.
        if source and len(source) == len(projected) and \
                not select.group_by and not select.distinct \
                and select.compound is None:
            compiled = [self.interp.compile(item.expr)
                        for item in select.order_by]
            keyed = []
            try:
                for row, src in zip(projected, source):
                    env = src.env
                    key = tuple(fn(env) for fn in compiled)
                    keyed.append((key, row))
            except EvalError as exc:
                raise DBError(str(exc)) from exc
            descending = [item.descending for item in select.order_by]
            keyed.sort(key=functools.cmp_to_key(
                lambda a, b: self._order_cmp(a[0], b[0], descending)))
            return [row for _, row in keyed]
        ascending = itertools.repeat(False)
        ordered = list(projected)
        ordered.sort(key=functools.cmp_to_key(
            lambda a, b: self._order_cmp(a, b, ascending)))
        return ordered

    def _order_cmp(self, a: tuple, b: tuple,
                   descending: Iterable[bool]) -> int:
        for av, bv, desc in zip(a, b, descending):
            cmp = self._null_aware_cmp(av, bv)
            if cmp != 0:
                return -cmp if desc else cmp
        return 0

    def _null_aware_cmp(self, a: Value, b: Value) -> int:
        if a.is_null and b.is_null:
            return 0
        if a.is_null:
            # SQLite and MySQL order NULLs first; PostgreSQL orders last.
            return 1 if self.dialect == "postgres" else -1
        if b.is_null:
            return -1 if self.dialect == "postgres" else 1
        try:
            return self._compare_values(a, b)
        except DBError:
            return 0

    def _limit(self, select: st.Select,
               projected: list[tuple]) -> list[tuple]:
        limit = self._int_const(select.limit)
        offset = 0
        if select.offset is not None:
            offset = max(0, self._int_const(select.offset))
        if limit < 0:
            return projected[offset:]
        return projected[offset:offset + limit]

    def _int_const(self, expr: Expr) -> int:
        value = self._eval(expr, SourceRow(env={}))
        if value.t is not SQLType.INTEGER:
            raise DBError("LIMIT/OFFSET must be an integer")
        return int(value.v)

    # -- injected planning-time defects ----------------------------------------
    def _planning_defect_checks(
            self, select: st.Select,
            scope_tables: list[tuple[str, Table]]) -> None:
        where = select.where
        for visible, table in scope_tables:
            if self.bugs.on("pg-stats-bitmap-error") and where is not None:
                if self._has_statistics(table) and \
                        self._analyzed(table) and \
                        self._has_expression_index(table) and \
                        self._has_boolean_combination(where):
                    raise DBError("negative bitmapset member not allowed")
            if self.bugs.on("pg-statistics-crash") and where is not None:
                if self._has_statistics(table) and \
                        self._has_is_true_over_or(where):
                    raise DBCrash("server process terminated by signal 11")
            if self.bugs.on("pg-index-null-error") and where is not None:
                tainted = self._tainted_index_column(table)
                if tainted and self._compares_column(where, visible,
                                                     tainted[0]):
                    raise DBError('found unexpected null value in index '
                                  f'"{tainted[1]}"')
            if self.bugs.on("sqlite-rename-expr-index"):
                for index in self.catalog.indexes_on(table.name):
                    missing = self._index_missing_column(index, table)
                    if missing:
                        raise IntegrityError(
                            f"malformed database schema ({index.name}) - "
                            f"no such column: {missing}")

    def _has_statistics(self, table: Table) -> bool:
        return any(s.table.lower() == table.name.lower()
                   for s in self.catalog.statistics.values())

    def _has_expression_index(self, table: Table) -> bool:
        return any(idx.is_expression_index
                   for idx in self.catalog.indexes_on(table.name))

    @staticmethod
    def _has_boolean_combination(where: Expr) -> bool:
        from repro.sqlast.nodes import BinaryNode

        return any(isinstance(n, BinaryNode) and n.op.is_logical
                   for n in walk(where))

    @staticmethod
    def _has_is_true_over_or(where: Expr) -> bool:
        from repro.sqlast.nodes import BinaryNode, BinaryOp, PostfixNode, PostfixOp

        for node in walk(where):
            if isinstance(node, PostfixNode) and node.op in (
                    PostfixOp.IS_TRUE, PostfixOp.IS_NOT_FALSE):
                if any(isinstance(k, BinaryNode)
                       and k.op in (BinaryOp.OR, BinaryOp.AND)
                       for k in walk(node.operand)):
                    return True
        return False

    def _tainted_index_column(self,
                              table: Table) -> Optional[tuple[str, str]]:
        for index in self.catalog.indexes_on(table.name):
            if getattr(index, "null_tainted", False):
                lead = index.exprs[0].expr
                if isinstance(lead, ColumnNode):
                    return lead.column, index.name
        return None

    @staticmethod
    def _compares_column(where: Expr, visible: str, column: str) -> bool:
        from repro.sqlast.nodes import BinaryNode

        for node in walk(where):
            if isinstance(node, BinaryNode) and node.op.is_comparison:
                for side in (node.left, node.right):
                    if isinstance(side, ColumnNode) and \
                            side.column.lower() == column.lower():
                        return True
        return False

    @staticmethod
    def _index_missing_column(index, table: Table) -> Optional[str]:
        for indexed in index.exprs:
            for node in walk(indexed.expr):
                if isinstance(node, ColumnNode) and \
                        not table.has_column(node.column):
                    return node.column
        if index.where is not None:
            for node in walk(index.where):
                if isinstance(node, ColumnNode) and \
                        not table.has_column(node.column):
                    return node.column
        return None
