"""Undo is exact (hypothesis): a failing statement leaves no trace, ROLLBACK
restores the state BEGIN saw, and COMMIT keeps what the transaction did.

PQS rebuilds a database by replaying only the statements that succeeded,
so MiniDB's undo (``Catalog.snapshot``) must put back every piece of
state a statement may have touched before it failed.  Hypothesis drives
random programs of DML, ALTER TABLE, index DDL, ANALYZE and statements
built to fail (UNIQUE violations, a NOT NULL ADD COLUMN on a non-empty
table, unknown names) inside BEGIN ... ROLLBACK/COMMIT, and compares a
full dump of the engine before and after.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import DBError
from repro.minidb.engine import Engine

SETUP = (
    "CREATE TABLE t(a INT UNIQUE, b TEXT)",
    "CREATE INDEX ib ON t(b)",
    "CREATE TABLE u(a INT, b TEXT)",
    "CREATE INDEX iu ON u(a)",
    "INSERT INTO t(a, b) VALUES (1, 'x'), (2, 'y')",
    "INSERT INTO u(a, b) VALUES (1, 'x')",
)


def literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, int):
        return str(value)
    return "'" + value + "'"


tables = st.sampled_from(["t", "u", "w"])
columns = st.sampled_from(["a", "b", "c"])
new_columns = st.sampled_from(["c", "d"])
indexes = st.sampled_from(["i0", "i1", "ib"])
ints = st.integers(min_value=-1, max_value=3)
values = st.one_of(st.none(), ints,
                   st.sampled_from(["x", "X", "y"])).map(literal)

statements = st.one_of(
    st.builds("INSERT INTO {}(a, b) VALUES ({}, {}), ({}, {})".format,
              tables, values, values, values, values),
    st.builds("UPDATE {} SET {} = {} WHERE a = {}".format,
              tables, columns, values, ints),
    st.builds("DELETE FROM {} WHERE a = {}".format, tables, ints),
    st.builds("ALTER TABLE {} RENAME COLUMN {} TO {}".format,
              tables, columns, new_columns),
    st.builds("ALTER TABLE {} ADD COLUMN {} INT NOT NULL".format,
              tables, new_columns),
    st.builds("ALTER TABLE {} ADD COLUMN {} TEXT DEFAULT 'd'".format,
              tables, new_columns),
    st.builds("ALTER TABLE {} RENAME TO {}".format, tables, tables),
    st.builds("CREATE {}INDEX {} ON {}({})".format,
              st.sampled_from(["", "UNIQUE "]), indexes, tables, columns),
    st.builds("DROP INDEX {}".format, indexes),
    st.just("ANALYZE"),
    st.builds("ANALYZE {}".format, tables),
    st.builds("PRAGMA case_sensitive_like = {}".format,
              st.sampled_from([0, 1])),
)
programs = st.lists(statements, min_size=1, max_size=12)


def dump(engine: Engine) -> dict:
    """Everything a statement can change, as plain comparable values (in
    dict order, since catalog and row order decide plans and output)."""
    catalog = engine.catalog
    return {
        "tables": [(key, t.name, [repr(c) for c in t.columns],
                    list(t.pk_columns),
                    [(rowid, [(name, repr(value))
                              for name, value in row.items()])
                     for rowid, row in t.rows.items()],
                    t.next_rowid, dict(t.serials), dict(t.ever_null),
                    t.analyzed)
                   for key, t in catalog.tables.items()],
        "indexes": [(key, i.name, i.table, repr(i.exprs), repr(i.where),
                     i.unique, [(repr(k), rowid) for k, rowid in i.entries])
                    for key, i in catalog.indexes.items()],
        "views": [(key, repr(v.select))
                  for key, v in catalog.views.items()],
        "statistics": [(key, s.table, list(s.columns))
                       for key, s in catalog.statistics.items()],
        "options": [(name, repr(value))
                    for name, value in engine.options.items()],
    }


def execute_checked(engine: Engine, sql: str, applied: list[str]) -> None:
    """Run *sql*; a failure must leave the dump unchanged."""
    before = dump(engine)
    try:
        engine.execute(sql)
    except DBError:
        assert dump(engine) == before, sql
    else:
        applied.append(sql)


def replay(sqls: list[str]) -> Engine:
    engine = Engine("sqlite")
    for sql in sqls:
        engine.execute(sql)
    return engine


@given(programs, programs, st.booleans())
@example([], ["ALTER TABLE t ADD COLUMN c TEXT DEFAULT 'd'",
              "INSERT INTO t(a, b) VALUES (5, 'z'), (1, 'z')",
              "ALTER TABLE t ADD COLUMN e INT NOT NULL"], False)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_failures_and_rollback_leave_no_trace(before, body, commit):
    engine = replay(list(SETUP))
    applied = list(SETUP)
    for sql in before:
        execute_checked(engine, sql, applied)
    at_begin = dump(engine)
    engine.execute("BEGIN")
    in_transaction: list[str] = []
    for sql in body:
        execute_checked(engine, sql, in_transaction)
    at_end = dump(engine)
    engine.execute("COMMIT" if commit else "ROLLBACK")
    if commit:
        assert dump(engine) == at_end
        applied += in_transaction
    else:
        assert dump(engine) == at_begin
    # Replaying only the statements that succeeded rebuilds the state.
    assert dump(replay(applied)) == dump(engine)

