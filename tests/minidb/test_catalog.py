"""Catalog unit tests: lookups, mutations, name rules."""

import pytest

from repro.errors import CatalogError
from repro.minidb.catalog import Catalog, Column, Index, Table, View
from repro.minidb.statements import IndexedExpr, Select, SelectItem
from repro.sqlast.nodes import BinaryNode, BinaryOp, CollateNode, ColumnNode, LiteralNode
from repro.values import Value


def make_table(name="t", columns=("a", "b")):
    return Table(name=name,
                 columns=[Column(name=c, type_name=None)
                          for c in columns])


def make_index(name="i", table="t", column="a", **kwargs):
    return Index(name=name, table=table,
                 exprs=[IndexedExpr(expr=ColumnNode(table, column))],
                 **kwargs)


class TestTable:
    def test_column_lookup_case_insensitive(self):
        table = make_table()
        assert table.column("A").name == "a"

    def test_unknown_column(self):
        with pytest.raises(CatalogError, match="no such column"):
            make_table().column("z")

    def test_column_names_order(self):
        assert make_table().column_names() == ["a", "b"]

    def test_affinity_from_type(self):
        column = Column(name="x", type_name="VARCHAR(10)")
        assert column.affinity == "TEXT"
        assert Column(name="y", type_name=None).affinity is None

    def test_mysql_type_helpers(self):
        column = Column(name="x", type_name="TINYINT UNSIGNED")
        assert column.mysql_base_type == "TINYINT"
        assert column.mysql_unsigned


class TestIndex:
    def test_partial_flag(self):
        index = make_index(where=LiteralNode(Value.integer(1)))
        assert index.is_partial
        assert not make_index().is_partial

    def test_expression_index_detection(self):
        plain = make_index()
        assert not plain.is_expression_index
        collated = Index(name="i2", table="t", exprs=[IndexedExpr(
            expr=CollateNode(ColumnNode("t", "a"), "NOCASE"))])
        assert not collated.is_expression_index
        computed = Index(name="i3", table="t", exprs=[IndexedExpr(
            expr=BinaryNode(BinaryOp.ADD, ColumnNode("t", "a"),
                            LiteralNode(Value.integer(1))))])
        assert computed.is_expression_index


class TestCatalog:
    def test_add_and_lookup(self):
        catalog = Catalog()
        catalog.add_table(make_table())
        assert catalog.has_table("T")
        assert catalog.table("t").name == "t"

    def test_duplicate_table(self):
        catalog = Catalog()
        catalog.add_table(make_table())
        with pytest.raises(CatalogError):
            catalog.add_table(make_table())

    def test_view_table_namespace_shared(self):
        catalog = Catalog()
        catalog.add_table(make_table("x"))
        with pytest.raises(CatalogError):
            catalog.add_view(View(name="x", select=Select(items=[
                SelectItem(expr=None)])))

    def test_drop_table_cascades_indexes_and_stats(self):
        from repro.minidb.catalog import Statistics

        catalog = Catalog()
        catalog.add_table(make_table())
        catalog.add_index(make_index())
        catalog.statistics["s"] = Statistics(name="s", table="t",
                                             columns=["a"])
        catalog.drop_table("t", if_exists=False)
        assert catalog.indexes == {} and catalog.statistics == {}

    def test_drop_missing_with_if_exists(self):
        catalog = Catalog()
        assert catalog.drop_table("ghost", if_exists=True) is False
        with pytest.raises(CatalogError):
            catalog.drop_table("ghost", if_exists=False)

    def test_rename_table_updates_indexes(self):
        catalog = Catalog()
        catalog.add_table(make_table())
        catalog.add_index(make_index())
        catalog.rename_table("t", "u")
        assert catalog.index("i").table == "u"
        assert catalog.has_table("u") and not catalog.has_table("t")

    def test_rename_collision(self):
        catalog = Catalog()
        catalog.add_table(make_table("a"))
        catalog.add_table(make_table("b"))
        with pytest.raises(CatalogError):
            catalog.rename_table("a", "b")

    def test_children_of(self):
        catalog = Catalog()
        parent = make_table("p")
        child = make_table("c")
        child.inherits = "p"
        catalog.add_table(parent)
        catalog.add_table(child)
        assert [t.name for t in catalog.children_of("p")] == ["c"]
        with pytest.raises(CatalogError, match="inherit"):
            catalog.drop_table("p", if_exists=False)

    def test_indexes_on(self):
        catalog = Catalog()
        catalog.add_table(make_table())
        catalog.add_index(make_index("i1"))
        catalog.add_index(make_index("i2"))
        assert len(catalog.indexes_on("T")) == 2
