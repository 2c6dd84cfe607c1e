"""Column-vs-column comparisons against a real ``sqlite3`` build.

SQLite hands TEXT affinity to the other operand of a comparison only
when that operand has no affinity at all.  A column always has one: a
column declared without a type, or as ``BLOB``, has BLOB affinity and is
compared as stored.  So with ``c0 TEXT = '0.5'`` and an untyped
``c1 = 766``, ``c0 <= c1`` is 0 (TEXT sorts after INTEGER).

Both the oracle and MiniDB (which shares the oracle's comparison
semantics) are checked over every pair of declared types, every pair of
stored values and all six comparison operators.  Stored values are read
back from SQLite, exactly as PQS reads its pivot rows.
"""

import itertools

import pytest

from repro.adapters import MiniDBConnection, SQLite3Connection
from repro.core.schema import ColumnModel
from repro.interp import make_interpreter
from repro.sqlast.nodes import BinaryNode, BinaryOp

DECLARED = ("TEXT", "BLOB", None, "INT", "REAL", "NUMERIC")
LITERALS = ("'0.5'", "'10'", "766", "1.5", "X'61'", "NULL", "'abc'", "10")
OPERATORS = {"=": BinaryOp.EQ, "<>": BinaryOp.NE, "<": BinaryOp.LT,
             "<=": BinaryOp.LE, ">": BinaryOp.GT, ">=": BinaryOp.GE}
PAIRS = list(itertools.product(LITERALS, LITERALS))


def _decl(type_name):
    return "" if type_name is None else f" {type_name}"


@pytest.mark.parametrize(
    "left,right", list(itertools.product(DECLARED, DECLARED)),
    ids=lambda t: t or "none")
def test_oracle_and_minidb_match_sqlite(left, right):
    interpreter = make_interpreter("sqlite")
    columns = [ColumnModel("c0", left).column_node("t", "sqlite"),
               ColumnModel("c1", right).column_node("t", "sqlite")]
    targets = {"sqlite3": SQLite3Connection(),
               "minidb": MiniDBConnection("sqlite")}
    for target in targets.values():
        target.execute(f"CREATE TABLE t(c0{_decl(left)}, c1{_decl(right)})")
        for a, b in PAIRS:
            target.execute(f"INSERT INTO t VALUES ({a}, {b})")
    stored = targets["sqlite3"].execute("SELECT c0, c1 FROM t")
    assert stored == targets["minidb"].execute("SELECT c0, c1 FROM t")
    mismatches = []
    for symbol, op in OPERATORS.items():
        sql = f"SELECT c0 {symbol} c1 FROM t"
        truth = [row[0] for row in targets["sqlite3"].execute(sql)]
        engine = [row[0] for row in targets["minidb"].execute(sql)]
        expr = BinaryNode(op, *columns)
        for (a, b), (lv, rv), want, got in zip(PAIRS, stored, truth, engine):
            oracle = interpreter.evaluate(expr, {"t.c0": lv, "t.c1": rv})
            if oracle != want or got != want:
                mismatches.append(f"{a} {symbol} {b}: sqlite3={want!r} "
                                  f"oracle={oracle!r} minidb={got!r}")
    for target in targets.values():
        target.close()
    assert not mismatches, "\n".join(mismatches[:10])
