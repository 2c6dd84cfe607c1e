"""The PQS driving loop — paper Figure 1, steps 1 through 7.

One *database round*: generate random state (step 1), then repeatedly
select pivot rows (step 2) and synthesize/check queries (steps 3–7).
Findings from all three oracles are collected as replayable
:class:`~repro.core.reports.BugReport` objects.

Every statement sent to the target is logged, so a finding's test case
is the exact statement prefix that reproduces it — the input to the
reducer (and the raw material for the paper's Figures 2 and 3).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.adapters.base import DBMSConnection
from repro.core.containment import check_containment, values_match
from repro.core.error_oracle import ErrorOracle, statement_kind
from repro.core.exprgen import ExpressionGenerator
from repro.core.pivot import PivotRow, PivotSelector
from repro.core.querygen import QueryGenerator
from repro.core.reports import (
    BugReport,
    Oracle,
    RoundRecord,
    RunStatistics,
    TestCase,
)
from repro.core.schema import SchemaModel
from repro.dialects import get_dialect
from repro.errors import DBCrash, DBError, DBTimeout
from repro.guidance.scheduler import MUTATION_STATEMENTS, NULL_GUIDANCE
from repro.interp import make_interpreter
from repro.multiplan.oracle import MultiPlanOracle, NULL_MULTIPLAN
from repro.interp.base import EvalError
from repro.rng import RandomSource
from repro.stategen.actions import ActionGenerator
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry import names as metric_names


#: Additional random statements after the initial state.
EXTRA_STATEMENTS = 10
#: Pivot selections per database state.
PIVOTS_PER_DATABASE = 4
#: Synthesized queries per pivot row.
QUERIES_PER_PIVOT = 5
#: Check containment via INTERSECT (vs client-side) when supported.
USE_INTERSECT_PROBABILITY = 0.3
#: Probability of the §7 negative-containment mode (condition FALSE on
#: the pivot row => the row must NOT be fetched).  Applied only when the
#: pivot row is value-unique within its (single) table.
NEGATIVE_PROBABILITY = 0.1
#: Stop a database round after this many findings (keeps campaign test
#: cases small).
MAX_REPORTS_PER_DATABASE = 3


@dataclass
class RunnerConfig:
    """Knobs for one PQS run; defaults follow the paper's §3.4 choices.

    Only what some caller varies is a field; the paper's fixed
    generation choices are the module constants above and in
    :mod:`repro.core.querygen`."""

    dialect: str = "sqlite"
    seed: int = 0
    min_tables: int = 1
    max_tables: int = 2
    #: Rows per table — the paper found most bugs with 10–30 rows.
    min_rows: int = 3
    max_rows: int = 12
    max_expression_depth: int = 4
    #: Disable rectification (Algorithm 3) — ablation only; makes the
    #: containment oracle unsound.
    rectify: bool = True
    #: Error-message patterns the target's developers have documented as
    #: intended (see ErrorOracle).  Pass
    #: error_oracle.SQLITE3_DOCUMENTED_QUIRKS when driving a modern real
    #: SQLite build.
    documented_quirks: tuple = ()
    #: Cross-check every synthesized query across all distinct feasible
    #: plans (repro.multiplan).  Forced runs go through the adapters'
    #: non-logged ``forced_plan``/``with_plan`` hooks, so the tested
    #: statement stream is bit-identical with this on or off.
    multiplan: bool = False


class PQSRunner:
    """Runs Pivoted Query Synthesis against one connection factory."""

    def __init__(self, connection_factory: Callable[[], DBMSConnection],
                 config: Optional[RunnerConfig] = None,
                 telemetry: Optional[Telemetry] = None,
                 guidance=None, multiplan=None):
        self.connection_factory = connection_factory
        self.config = config or RunnerConfig()
        self.telemetry = telemetry or NULL_TELEMETRY
        #: Plan-coverage guidance (repro.guidance); NULL_GUIDANCE keeps
        #: the unguided path bit-identical to a build without it.
        self.guidance = guidance or NULL_GUIDANCE
        #: Multi-plan differential oracle (repro.multiplan); built from
        #: config.multiplan unless an instance is passed explicitly.
        if multiplan is None:
            multiplan = (MultiPlanOracle(telemetry=self.telemetry)
                         if self.config.multiplan else NULL_MULTIPLAN)
        self.multiplan = multiplan
        self.rng = RandomSource(self.config.seed)
        self.dialect = get_dialect(self.config.dialect)
        self.interpreter = make_interpreter(self.config.dialect)
        self.error_oracle = ErrorOracle(
            self.config.dialect,
            documented_quirks=tuple(self.config.documented_quirks))
        # Instruments are resolved once here; the hot loop only calls
        # inc()/observe()/__enter__ on them (no-ops when disabled).
        t = self.telemetry
        self._m_rounds = t.counter(metric_names.ROUNDS)
        self._m_statements = t.counter(metric_names.STATEMENTS)
        self._m_queries = t.counter(metric_names.QUERIES)
        self._m_pivots = t.counter(metric_names.PIVOTS)
        self._m_timeouts = t.counter(metric_names.TIMEOUTS)
        self._m_synthesis_failures = t.counter(
            metric_names.SYNTHESIS_FAILURES)
        self._m_round_seconds = t.histogram(metric_names.ROUND_SECONDS)
        self._phase_connect = t.phase(metric_names.PHASE_CONNECT)
        self._phase_stategen = t.phase(metric_names.PHASE_STATEGEN)
        self._phase_pivot = t.phase(metric_names.PHASE_PIVOT)
        self._phase_synth = t.phase(metric_names.PHASE_SYNTH)
        self._phase_contain = t.phase(metric_names.PHASE_CONTAIN)

    # -- public -----------------------------------------------------------
    def run(self, databases: int = 10) -> RunStatistics:
        """Run *databases* rounds on this runner's one random stream."""
        stats = RunStatistics()
        for _ in range(databases):
            stats.absorb_round(self.run_database_round())
        return stats

    def reseed(self, seed: int) -> None:
        """Reset the random stream mid-run (journaled campaigns derive an
        independent seed per database so an interrupted hunt can resume
        at any round without replaying the rounds before it)."""
        self.config.seed = seed
        self.rng = RandomSource(seed)

    def run_database_round(self) -> RoundRecord:
        """One full pass: state generation, pivots, queries, oracles."""
        started = time.monotonic()
        with self._phase_connect:
            connection = self.connection_factory()
        round_ = RoundRecord(seed=self.config.seed)
        # Fresh database => default run-time options; the oracle's LIKE
        # semantics must track PRAGMA case_sensitive_like (§3.4: the
        # paper's SQLite component models run-time options exactly).
        if hasattr(self.interpreter.semantics, "like_case_sensitive"):
            self.interpreter.semantics.like_case_sensitive = False
        log: list[str] = []
        schema = SchemaModel(dialect=self.config.dialect)
        # Guidance may redirect state generation to a scheduler-chosen
        # seed (replaying an "interesting" state) plus a mutation burst.
        # With guidance off (or passive) the profile is None and state
        # generation draws from self.rng exactly as it always has.
        profile = self.guidance.begin_round(self.config.seed)
        mutators: list[ActionGenerator] = []
        if profile is None:
            actions = ActionGenerator(self.dialect, schema, self.rng)
        else:
            actions = ActionGenerator(self.dialect, schema,
                                      RandomSource(profile.state_seed))
            mutators = [
                ActionGenerator(self.dialect, schema,
                                RandomSource(mutation_seed),
                                weights=profile.weights)
                for mutation_seed in profile.mutations]
        try:
            with self._phase_stategen:
                self._generate_state(connection, schema, actions, log,
                                     round_, mutators)
            if len(round_.reports) < MAX_REPORTS_PER_DATABASE:
                self._query_phase(connection, schema, log, round_)
        finally:
            connection.close()
        self.guidance.end_round()
        round_.plans = self.guidance.take_round_plans()
        round_.multiplan = self.multiplan.take_round_outcome()
        round_.seconds = time.monotonic() - started
        self._m_round_seconds.observe(round_.seconds)
        self._m_rounds.inc()
        return round_

    # -- step 1: random state ----------------------------------------------
    def _generate_state(self, connection: DBMSConnection,
                        schema: SchemaModel, actions: ActionGenerator,
                        log: list[str], round_: RoundRecord,
                        mutators: Optional[list[ActionGenerator]] = None,
                        ) -> None:
        # Table/row counts come from the state generator's stream —
        # unguided that stream *is* self.rng (identical draws to before
        # guidance existed); guided it is the scheduler's state seed, so
        # replaying the seed reproduces the whole state.
        n_tables = actions.rng.int_between(self.config.min_tables,
                                           self.config.max_tables)
        rows = actions.rng.int_between(self.config.min_rows,
                                       self.config.max_rows)
        for generated in actions.initial_statements(n_tables, rows):
            self._run_statement(connection, generated.sql,
                                generated.on_success, log, round_)
            if len(round_.reports) >= MAX_REPORTS_PER_DATABASE:
                return
        for _ in range(EXTRA_STATEMENTS):
            generated = actions.random_action()
            if generated is None:
                continue
            self._run_statement(connection, generated.sql,
                                generated.on_success, log, round_)
            if len(round_.reports) >= MAX_REPORTS_PER_DATABASE:
                return
        closing = actions.close_transaction()
        if closing is not None:
            self._run_statement(connection, closing.sql,
                                closing.on_success, log, round_)
        # Guided mutation bursts: extra index/ANALYZE-heavy statements
        # stacked on the replayed base state, each burst from its own
        # independent stream so replaying the chain reproduces the state.
        for mutator in mutators or ():
            for _ in range(MUTATION_STATEMENTS):
                generated = mutator.random_action()
                if generated is None:
                    continue
                self._run_statement(connection, generated.sql,
                                    generated.on_success, log, round_)
                if len(round_.reports) >= MAX_REPORTS_PER_DATABASE:
                    return
            closing = mutator.close_transaction()
            if closing is not None:
                self._run_statement(connection, closing.sql,
                                    closing.on_success, log, round_)

    def _run_statement(self, connection: DBMSConnection, sql: str,
                       on_success, log: list[str],
                       round_: RoundRecord) -> None:
        """Execute one state-generation statement and feed its outcome
        to the oracles."""
        round_.statements += 1
        self._m_statements.inc()
        try:
            connection.execute(sql)
        except (DBCrash, DBError) as failure:
            # Absorbed inside the block, whose end unbinds the name: a
            # local that kept the exception would keep its traceback's
            # frame, and with it the connection, until a cyclic collection.
            self._absorb_failure(sql, failure, log, round_, keep=True)
            return
        log.append(sql)
        if on_success is not None:
            on_success()
        self._track_option(sql)

    def _absorb_failure(self, sql: str, failure: BaseException,
                        log: list[str], round_: RoundRecord,
                        keep: bool = False) -> None:
        """Classify one failed statement — timeout, expected error,
        error-oracle or crash-oracle finding — the one path every
        statement failure of a round takes.

        A finding's test case is ``log + [sql]``.  ``keep`` (state
        generation) also appends *sql* to *log* when a finding is made,
        since the statement then belongs to every later finding's
        prefix."""
        if isinstance(failure, DBTimeout):
            # The watchdog killed the statement; the harness restored
            # state without it, so it is neither logged nor a finding.
            round_.timeouts += 1
            self._m_timeouts.inc()
            return
        if isinstance(failure, DBCrash):
            oracle = Oracle.CRASH
        elif self.error_oracle.classify(sql, failure).expected:
            round_.expected_errors += 1
            self._count_expected(sql)
            return
        else:
            oracle = Oracle.ERROR
        round_.reports.append(self._report(oracle, log + [sql],
                                           failure.message))
        if keep:
            log.append(sql)

    _CSL_PATTERN = None

    def _track_option(self, sql: str) -> None:
        """Mirror semantics-affecting options into the oracle."""
        if self.config.dialect != "sqlite":
            return
        import re

        if PQSRunner._CSL_PATTERN is None:
            PQSRunner._CSL_PATTERN = re.compile(
                r"PRAGMA\s+case_sensitive_like\s*=\s*(\S+)", re.IGNORECASE)
        match = PQSRunner._CSL_PATTERN.match(sql.strip())
        if match:
            value = match.group(1).strip("'\"").lower()
            sensitive = value in ("1", "true", "on", "yes")
            self.interpreter.semantics.like_case_sensitive = sensitive

    # -- steps 2–7: pivots and queries ----------------------------------------
    def _query_phase(self, connection: DBMSConnection,
                     schema: SchemaModel, log: list[str],
                     round_: RoundRecord) -> None:
        selector = PivotSelector(self.rng)
        generator = ExpressionGenerator(
            self.dialect, self.rng,
            max_depth=self.config.max_expression_depth)
        querygen = QueryGenerator(generator, self.interpreter, self.rng,
                                  rectify=self.config.rectify)

        for _ in range(PIVOTS_PER_DATABASE):
            with self._phase_pivot:
                tables_rows = self._probe_relations(connection, schema,
                                                    log, round_)
                if not tables_rows or \
                        len(round_.reports) >= MAX_REPORTS_PER_DATABASE:
                    return
                # Mostly one table, sometimes two (90% of the paper's
                # bug reports involved a single table).
                count = (1 if len(tables_rows) == 1 or self.rng.flip(0.7)
                         else 2)
                chosen = self.rng.sample(tables_rows, count)
                pivot = selector.select(chosen)
            round_.pivots += 1
            self._m_pivots.inc()
            for _ in range(QUERIES_PER_PIVOT):
                self._one_query(connection, querygen, pivot, log, round_,
                                chosen)
                if len(round_.reports) >= MAX_REPORTS_PER_DATABASE:
                    return

    def _probe_relations(self, connection: DBMSConnection,
                         schema: SchemaModel, log: list[str],
                         round_: RoundRecord) -> list:
        """SELECT * from every relation, feeding errors to the oracles."""
        healthy = []
        for table in schema.relations():
            sql = f"SELECT * FROM {table.name}"
            try:
                rows = connection.execute(sql)
            except (DBCrash, DBError) as failure:
                self._absorb_failure(sql, failure, log, round_)
                continue
            if rows and all(len(r) == len(table.columns) for r in rows):
                healthy.append((table, rows))
        return healthy

    def _one_query(self, connection: DBMSConnection,
                   querygen: QueryGenerator, pivot: PivotRow,
                   log: list[str], round_: RoundRecord,
                   chosen=None) -> None:
        negative = (chosen is not None
                    and self.rng.flip(NEGATIVE_PROBABILITY)
                    and self._negative_mode_sound(pivot, chosen))
        try:
            with self._phase_synth:
                if negative:
                    query = querygen.synthesize_negative(pivot)
                else:
                    query = querygen.synthesize(pivot)
        except EvalError:
            self._m_synthesis_failures.inc()
            return
        round_.queries += 1
        self._m_queries.inc()
        self.guidance.observe_query(connection, query.sql)
        use_intersect = self.rng.flip(USE_INTERSECT_PROBABILITY)
        try:
            with self._phase_contain:
                contained = check_containment(
                    connection, query, self.interpreter.semantics,
                    use_intersect=use_intersect)
        except (DBCrash, DBError) as failure:
            self._absorb_failure(query.sql, failure, log, round_)
            return
        if query.negative:
            if contained:
                report = self._report(
                    Oracle.CONTAINMENT, log + [query.sql],
                    "pivot row fetched although the condition is FALSE "
                    "for it")
                report.test_case.expected_row = list(query.expected)
                round_.reports.append(report)
        elif not contained:
            expected = [v for v in query.expected]
            report = self._report(
                Oracle.CONTAINMENT, log + [query.sql],
                "pivot row not contained in result set")
            report.test_case.expected_row = expected
            round_.reports.append(report)
        self._check_multiplan(connection, query, log, round_)

    def _check_multiplan(self, connection: DBMSConnection, query,
                         log: list[str], round_: RoundRecord) -> None:
        """Cross-check *query* across forced plans (no-op when off)."""
        if not self.multiplan.enabled:
            return
        if len(round_.reports) >= MAX_REPORTS_PER_DATABASE:
            return
        divergence = self.multiplan.check(connection, query,
                                          self.interpreter.semantics)
        if divergence is None:
            return
        report = self._report(Oracle.MULTIPLAN, log + [query.sql],
                              divergence.message)
        report.test_case.expected_row = list(query.expected)
        report.plan_results = divergence.plan_results()
        round_.reports.append(report)

    def _negative_mode_sound(self, pivot: PivotRow, chosen) -> bool:
        """Negative containment is sound only for a single-table pivot
        whose row is value-unique in that table — under the containment
        check's own :func:`values_match`, since an equal-valued sibling
        would legitimately appear in the result."""
        if len(pivot.tables) != 1:
            return False
        table = pivot.tables[0]
        pivot_row = pivot.row_by_table[table.name]
        collations = [c.collation for c in table.columns]
        semantics = self.interpreter.semantics
        equal_count = 0
        for model, rows in chosen:
            if model.name != table.name:
                continue
            for row in rows:
                if len(row) == len(pivot_row) and all(
                        values_match(a, b, semantics, coll)
                        for a, b, coll in zip(row, pivot_row, collations)):
                    equal_count += 1
        return equal_count == 1

    def _count_expected(self, sql: str) -> None:
        """Expected-error counter, labeled by statement kind (the
        error oracle's acceptance profile is itself a telemetry
        target: a kind whose expected-error share explodes usually
        means the generator regressed)."""
        if not self.telemetry.registry.enabled:
            return
        self.telemetry.counter(metric_names.EXPECTED_ERRORS,
                               kind=statement_kind(sql)).inc()

    def _report(self, oracle: Oracle, statements: list[str],
                message: str) -> BugReport:
        if self.telemetry.registry.enabled:
            self.telemetry.counter(metric_names.REPORTS,
                                   oracle=oracle.value).inc()
        self.telemetry.tracer.event("report", oracle=oracle.value)
        return BugReport(
            oracle=oracle, dialect=self.config.dialect,
            test_case=TestCase(statements=list(statements),
                               dialect=self.config.dialect),
            message=message, seed=self.config.seed)
