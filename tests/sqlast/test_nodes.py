"""Tests for AST node structure: children, traversal, immutability."""

import pytest

from repro.sqlast.nodes import (
    BetweenNode,
    BinaryNode,
    BinaryOp,
    CaseNode,
    CastNode,
    CollateNode,
    ColumnNode,
    FunctionNode,
    InListNode,
    LiteralNode,
    PostfixNode,
    PostfixOp,
    UnaryNode,
    UnaryOp,
    count_nodes,
    depth,
    walk,
)
from repro.values import NULL, Value

LIT = LiteralNode(Value.integer(1))
COL = ColumnNode("t0", "c0")


class TestChildren:
    def test_leaf_nodes_have_no_children(self):
        assert LIT.children() == ()
        assert COL.children() == ()

    def test_unary(self):
        node = UnaryNode(UnaryOp.NOT, LIT)
        assert node.children() == (LIT,)

    def test_binary(self):
        node = BinaryNode(BinaryOp.ADD, LIT, COL)
        assert node.children() == (LIT, COL)

    def test_between(self):
        node = BetweenNode(COL, LIT, LIT)
        assert len(node.children()) == 3

    def test_in_list(self):
        node = InListNode(COL, (LIT, LIT))
        assert len(node.children()) == 3

    def test_case_with_operand_and_else(self):
        node = CaseNode(COL, ((LIT, LIT),), LIT)
        assert len(node.children()) == 4

    def test_case_without_operand(self):
        node = CaseNode(None, ((LIT, LIT),), None)
        assert len(node.children()) == 2

    def test_function(self):
        node = FunctionNode("ABS", (LIT,))
        assert node.children() == (LIT,)

    def test_cast_and_collate(self):
        assert CastNode(LIT, "TEXT").children() == (LIT,)
        assert CollateNode(LIT, "NOCASE").children() == (LIT,)


class TestTraversal:
    def test_walk_preorder(self):
        tree = BinaryNode(BinaryOp.AND, UnaryNode(UnaryOp.NOT, LIT), COL)
        nodes = list(walk(tree))
        assert nodes[0] is tree
        assert COL in nodes and LIT in nodes
        assert len(nodes) == 4

    def test_depth(self):
        assert depth(LIT) == 1
        assert depth(UnaryNode(UnaryOp.NOT, LIT)) == 2
        nested = BinaryNode(BinaryOp.OR, UnaryNode(UnaryOp.NOT, LIT), LIT)
        assert depth(nested) == 3

    def test_count_nodes(self):
        tree = BinaryNode(BinaryOp.ADD, LIT, LIT)
        assert count_nodes(tree) == 3


class TestIdentity:
    def test_nodes_hashable_and_equal_by_value(self):
        a = BinaryNode(BinaryOp.ADD, LIT, COL)
        b = BinaryNode(BinaryOp.ADD, LIT, COL)
        assert a == b and hash(a) == hash(b)

    def test_nodes_frozen(self):
        with pytest.raises(AttributeError):
            LIT.value = NULL  # type: ignore[misc]

    def test_column_qualified_name(self):
        assert COL.qualified == "t0.c0"

    def test_column_annotations_not_part_of_name(self):
        annotated = ColumnNode("t0", "c0", collation="NOCASE",
                               affinity="TEXT")
        assert annotated.qualified == "t0.c0"
        assert annotated != COL  # annotations do affect equality


class TestOperatorClassification:
    def test_comparisons(self):
        assert BinaryOp.EQ.is_comparison
        assert BinaryOp.IS_NOT.is_comparison
        assert BinaryOp.LIKE.is_comparison
        assert not BinaryOp.ADD.is_comparison

    def test_logical(self):
        assert BinaryOp.AND.is_logical and BinaryOp.OR.is_logical
        assert not BinaryOp.EQ.is_logical

    def test_postfix_op_values(self):
        assert PostfixOp.ISNULL.value == "ISNULL"
        assert PostfixOp.IS_NOT_TRUE.value == "IS NOT TRUE"
