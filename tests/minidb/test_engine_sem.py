"""Engine-side semantics wrappers: identical to the oracle unless a
defect is enabled; each injection point flips exactly one behaviour."""

import pytest

from repro.interp.base import Interpreter
from repro.minidb.bugs import BugRegistry
from repro.minidb.engine_sem import (
    EngineMySQLSemantics,
    EnginePostgresSemantics,
    EngineSQLiteSemantics,
    build_engine_semantics,
)
from repro.minidb.parser import parse_expression
from repro.sqlast.transform import transform
from repro.sqlast.nodes import ColumnNode
from repro.values import Value

from ..conftest import make_engine, rows, run


def evaluate(semantics, sql, row=None):
    interp = Interpreter(semantics)
    env = {k: (v if isinstance(v, Value) else Value.from_python(v))
           for k, v in (row or {}).items()}
    expr = parse_expression(sql)

    def bind(node):
        if isinstance(node, ColumnNode) and node.qualified in env:
            return ColumnNode(node.table, node.column,
                              collation="RTRIM"
                              if node.column == "rt" else None)
        return None

    expr = transform(expr, bind)
    out = interp.evaluate(expr, env)
    return None if out.is_null else out.v


class TestFactory:
    def test_builds_per_dialect(self):
        registry = BugRegistry()
        assert isinstance(build_engine_semantics("sqlite", registry),
                          EngineSQLiteSemantics)
        assert isinstance(build_engine_semantics("mysql", registry),
                          EngineMySQLSemantics)
        assert isinstance(build_engine_semantics("postgres", registry),
                          EnginePostgresSemantics)
        with pytest.raises(ValueError):
            build_engine_semantics("oracle", registry)


class TestSQLiteWrapper:
    def test_clean_matches_oracle(self):
        clean = EngineSQLiteSemantics(BugRegistry())
        assert evaluate(clean, "('  a' COLLATE RTRIM) = 'a'") == 0
        assert evaluate(clean, "('a  ' COLLATE RTRIM) = 'a'") == 1

    def test_rtrim_defect_strips_leading(self):
        buggy = EngineSQLiteSemantics(
            BugRegistry({"sqlite-rtrim-compare"}))
        assert evaluate(buggy, "('  a' COLLATE RTRIM) = 'a'") == 1

    def test_rtrim_defect_ignores_other_collations(self):
        buggy = EngineSQLiteSemantics(
            BugRegistry({"sqlite-rtrim-compare"}))
        assert evaluate(buggy, "'  a' = 'a'") == 0


class TestMySQLWrapper:
    def test_text_double_bool_defect(self):
        clean = EngineMySQLSemantics(BugRegistry())
        buggy = EngineMySQLSemantics(
            BugRegistry({"mysql-text-double-bool"}))
        assert clean.to_bool(Value.text("0.5")) is True
        assert buggy.to_bool(Value.text("0.5")) is False
        # Integer-valued text unaffected.
        assert buggy.to_bool(Value.text("2")) is True
        # Infinity falls back to the correct path.
        assert buggy.to_bool(Value.text("9e999")) is True

    def test_unsigned_cast_defect(self):
        clean = EngineMySQLSemantics(BugRegistry())
        buggy = EngineMySQLSemantics(
            BugRegistry({"mysql-unsigned-cast-compare"}))
        sql = "CAST(-1 AS UNSIGNED) > 5"
        assert evaluate(clean, sql) == 1
        assert evaluate(buggy, sql) == 0

    def test_unsigned_cast_defect_only_hits_casts(self):
        buggy = EngineMySQLSemantics(
            BugRegistry({"mysql-unsigned-cast-compare"}))
        assert evaluate(buggy, "18446744073709551615 > 5") == 1


def compiled_once(semantics, sql):
    """*sql* (no column references) compiled once; each call of the
    returned function evaluates that same compiled closure again."""
    closure = Interpreter(semantics).compile(parse_expression(sql))

    def evaluate_again():
        out = closure({})
        return None if out.is_null else out.v
    return evaluate_again


class TestDefectToggledAfterCompilation:
    """A comparison defect consults the registry on every evaluation, so
    toggling it after compilation changes the outcome of the same
    compiled site."""

    @pytest.mark.parametrize("semantics, bug_id, sql, clean, buggy", [
        (EngineSQLiteSemantics, "sqlite-rtrim-compare",
         "('  a' COLLATE RTRIM) = 'a'", 0, 1),
        (EngineSQLiteSemantics, "sqlite-rtrim-compare",
         "('  a' COLLATE RTRIM) IN ('b', 'a')", 0, 1),
        (EngineMySQLSemantics, "mysql-unsigned-cast-compare",
         "CAST(-1 AS UNSIGNED) > 5", 1, 0),
    ], ids=["rtrim-compare", "rtrim-in-list", "unsigned-cast-compare"])
    def test_outcome_follows_the_registry(self, semantics, bug_id, sql,
                                          clean, buggy):
        registry = BugRegistry()
        evaluate_again = compiled_once(semantics(registry), sql)
        assert evaluate_again() == clean
        registry.enable(bug_id)
        assert evaluate_again() == buggy
        registry.disable(bug_id)
        assert evaluate_again() == clean


class TestMemoryClampOnJoin:
    def test_memory_engine_join_on(self):
        # Paper Listing 11, with the condition in JOIN ... ON instead of
        # WHERE (test_bugs.py pins the WHERE form): the clamp rewrites
        # the row a JOIN condition sees, too.
        def scenario(engine, kind):
            run(engine, "CREATE TABLE t0(c0 INT)",
                "CREATE TABLE t1(c0 INT) ENGINE = MEMORY",
                "INSERT INTO t0(c0) VALUES (0)",
                "INSERT INTO t1(c0) VALUES (-1)")
            return rows(engine.execute(
                f"SELECT * FROM t0 {kind} t1 ON (CAST(t1.c0 AS UNSIGNED)) "
                "> (IFNULL('u', t0.c0))"))

        assert scenario(make_engine("mysql"), "JOIN") == [(0, -1)]
        assert scenario(make_engine("mysql", "mysql-memory-engine-join"),
                        "JOIN") == []
        assert scenario(make_engine("mysql", "mysql-memory-engine-join"),
                        "LEFT JOIN") == [(0, None)]
