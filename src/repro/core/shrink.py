"""Expression-level shrinking of a failing query.

Statement-level ddmin (``reducer.py``) removes whole statements; the
paper's authors additionally "manually shortened [test cases] where
possible" (§4.1).  This module automates that step for the final query:
it parses the statement, then repeatedly tries to replace expression
subtrees with simpler equivalents-for-the-failure —

* a composite node with one of its children,
* any node with a small literal (NULL, 0, 1),
* dropping DISTINCT / ORDER BY / a JOIN's extra conjuncts is left to
  statement text candidates,

keeping a candidate whenever the caller's predicate still fails.  The
result is the kind of minimal expression the paper's listings show
(``t0.c0 IS NOT 1`` rather than a four-level tree).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.reports import TestCase
from repro.errors import DBError
from repro.minidb.parser import parse_statement
from repro.minidb.statements import Select
from repro.sqlast.nodes import Expr, LiteralNode, walk
from repro.sqlast.render import render_expr
from repro.values import NULL, Value

FailurePredicate = Callable[[TestCase], bool]

#: Replacement literals tried for every subtree, simplest first.
_LITERAL_CANDIDATES = (LiteralNode(NULL), LiteralNode(Value.integer(0)),
                       LiteralNode(Value.integer(1)))


class QueryShrinker:
    """Shrinks the WHERE/ON expressions of a failing final SELECT."""

    def __init__(self, still_fails: FailurePredicate,
                 max_attempts: int = 400):
        self.still_fails = still_fails
        self.max_attempts = max_attempts
        self.attempts = 0
        #: Why the last :meth:`shrink` left the final query as it was,
        #: or None; the campaign counts it as the ``reason`` label of
        #: ``pqs_reduce_unshrunk_total``.
        self.unshrunk: Optional[str] = None

    def shrink(self, test_case: TestCase) -> TestCase:
        """Return a test case whose final query is expression-minimal.

        Only SELECT finals are shrunk (error/crash finals are usually a
        single maintenance statement already); a final MiniDB cannot
        parse is returned unchanged, with :attr:`unshrunk` set.
        """
        final = test_case.statements[-1]
        self.unshrunk = None
        try:
            statement = parse_statement(final)
        except DBError:
            self.unshrunk = "unparseable"
            return test_case
        if not isinstance(statement, Select) or statement.where is None:
            return test_case
        best = statement.where
        improved = True
        while improved and self.attempts < self.max_attempts:
            improved = False
            for candidate in self._candidates(best):
                if self._node_count(candidate) >= self._node_count(best):
                    continue
                rebuilt = self._rebuild(test_case, final, best, candidate)
                if rebuilt is None:
                    continue
                self.attempts += 1
                if self.attempts > self.max_attempts:
                    break
                if self.still_fails(rebuilt):
                    best = candidate
                    test_case = rebuilt
                    final = test_case.statements[-1]
                    improved = True
                    break
        return test_case

    # -- internals -----------------------------------------------------------
    @staticmethod
    def _node_count(expr: Expr) -> int:
        return sum(1 for _ in walk(expr))

    def _candidates(self, expr: Expr):
        """Smaller variants of *expr*: each subtree hoisted to the root,
        then every subtree swapped for a literal."""
        for node in walk(expr):
            if node is not expr:
                yield node
        for target in walk(expr):
            for literal in _LITERAL_CANDIDATES:
                replaced = _replace_once(expr, target, literal)
                if replaced is not None:
                    yield replaced

    def _rebuild(self, test_case: TestCase, final: str, old: Expr,
                 new: Expr) -> TestCase | None:
        old_text = render_expr(old, test_case.dialect)
        new_text = render_expr(new, test_case.dialect)
        if old_text not in final:
            return None
        rebuilt_final = final.replace(old_text, new_text, 1)
        statements = test_case.statements[:-1] + [rebuilt_final]
        return TestCase(statements=statements,
                        expected_row=test_case.expected_row,
                        dialect=test_case.dialect)


def _replace_once(root: Expr, target: Expr, replacement: Expr,
                  ) -> Expr | None:
    """Replace the first occurrence of *target* (by identity) in *root*."""
    from repro.sqlast.transform import transform

    done = [False]

    def visit(node: Expr):
        if not done[0] and node is target:
            done[0] = True
            return replacement
        return None

    out = transform(root, visit)
    if not done[0] or out is root:
        return None
    return out
