"""Expression-level query shrinking tests."""

import pytest

from repro.core import shrink
from repro.core.reports import TestCase
from repro.core.shrink import QueryShrinker
from repro.errors import DBError
from repro.minidb.bugs import BugRegistry
from repro.minidb.engine import Engine
from repro.telemetry import names


def engine_fails_predicate(bug_id: str, wrong_result_marker):
    """A predicate replaying candidates against single-bug vs clean
    engines (same scheme the campaign uses)."""
    from repro.campaigns.replay import DifferentialReplayer

    return DifferentialReplayer("sqlite",
                                BugRegistry({bug_id})).manifests


class TestShrinkMechanics:
    def test_keeps_failure(self):
        case = TestCase(statements=[
            "CREATE TABLE t0(c0)",
            "CREATE INDEX i0 ON t0(1) WHERE c0 NOT NULL",
            "INSERT INTO t0(c0) VALUES (0), (1), (NULL)",
            "SELECT c0 FROM t0 WHERE ((t0.c0 IS NOT 1) AND (1 = 1))",
        ])
        manifests = engine_fails_predicate("sqlite-partial-index-is-not",
                                           None)
        assert manifests(case)
        shrunk = QueryShrinker(manifests).shrink(case)
        assert manifests(shrunk)

    def test_shrinks_padded_condition(self):
        # The padded AND-with-tautology must shrink toward the core
        # `t0.c0 IS NOT 1` predicate.
        case = TestCase(statements=[
            "CREATE TABLE t0(c0)",
            "CREATE INDEX i0 ON t0(1) WHERE c0 NOT NULL",
            "INSERT INTO t0(c0) VALUES (0), (1), (NULL)",
            "SELECT c0 FROM t0 WHERE ((t0.c0 IS NOT 1) AND "
            "((1 = 1) AND (2 = 2)))",
        ])
        manifests = engine_fails_predicate("sqlite-partial-index-is-not",
                                           None)
        shrunk = QueryShrinker(manifests).shrink(case)
        final = shrunk.statements[-1]
        assert "IS NOT 1" in final
        assert len(final) < len(case.statements[-1])

    def test_non_select_final_untouched(self):
        case = TestCase(statements=["CREATE TABLE t0(c0)", "VACUUM"])
        shrunk = QueryShrinker(lambda c: True).shrink(case)
        assert shrunk.statements == case.statements

    def test_select_without_where_untouched(self):
        case = TestCase(statements=["CREATE TABLE t0(c0)",
                                    "SELECT * FROM t0"])
        shrunk = QueryShrinker(lambda c: True).shrink(case)
        assert shrunk is case

    def test_attempt_budget_respected(self):
        case = TestCase(statements=[
            "CREATE TABLE t0(c0)",
            "SELECT c0 FROM t0 WHERE ((1 = 1) AND ((2 = 2) AND "
            "((3 = 3) AND (4 = 4))))",
        ])
        shrinker = QueryShrinker(lambda c: False, max_attempts=5)
        shrinker.shrink(case)
        assert shrinker.attempts <= 6

    def test_never_grows(self):
        case = TestCase(statements=[
            "CREATE TABLE t0(c0)",
            "SELECT c0 FROM t0 WHERE (t0.c0 = 1)",
        ])
        shrunk = QueryShrinker(lambda c: True).shrink(case)
        assert len(shrunk.statements[-1]) <= len(case.statements[-1])


class TestUnparseableFinal:
    def test_counted_and_returned_unchanged(self):
        # The shrinker names the reason; the campaign counts it
        # (tests/campaigns/test_triage_pool.py checks the counter).
        case = TestCase(statements=["CREATE TABLE t0(c0)",
                                    "SELEKT c0 FROM t0"])
        shrinker = QueryShrinker(lambda c: True)
        assert shrinker.shrink(case) is case
        assert shrinker.unshrunk == "unparseable"
        assert shrinker.shrink(TestCase(statements=[
            "SELECT c0 FROM t0 WHERE c0"])).statements
        assert shrinker.unshrunk is None
        assert names.REDUCE_UNSHRUNK in names.HELP

    def test_a_programming_error_propagates(self, monkeypatch):
        def broken(sql):
            raise AttributeError("not a DBError")

        monkeypatch.setattr(shrink, "parse_statement", broken)
        case = TestCase(statements=["SELECT 1 WHERE 1"])
        with pytest.raises(AttributeError, match="not a DBError"):
            QueryShrinker(lambda c: True).shrink(case)


class TestCampaignIntegration:
    def test_campaign_reports_have_small_conditions(self):
        from repro.campaigns.campaign import Campaign, CampaignConfig

        result = None
        for seed in range(6):
            config = CampaignConfig(
                dialect="sqlite", seed=seed, databases=60,
                bug_ids=["sqlite-partial-index-is-not"])
            result = Campaign(config).run()
            if result.reports:
                break
        assert result is not None and result.reports
        for report in result.reports:
            final = report.test_case.statements[-1]
            # Shrunk WHERE clauses stay compact.
            assert len(final) < 400, final


@pytest.mark.xfail(strict=True, reason=(
    "sqlast.transform always rebuilds a CaseNode, so the shrinker's "
    "identity match never sees the original CASE node or any node "
    "above one; keeping unchanged CASE nodes changes reduced reports "
    "and waits for the next triage-golden re-pin"))
def test_replace_once_reaches_a_case_node():
    from repro.core.shrink import _replace_once
    from repro.sqlast.nodes import BinaryNode, BinaryOp, CaseNode, LiteralNode
    from repro.values import Value

    one = LiteralNode(Value.integer(1))
    zero = LiteralNode(Value.integer(0))
    case = CaseNode(None, ((one, one),), zero)
    root = BinaryNode(BinaryOp.EQ, case, one)
    assert _replace_once(root, case, zero) == BinaryNode(BinaryOp.EQ, zero,
                                                         one)
