"""Campaign-level plan-coverage guidance: journaling, resume, merge."""

from __future__ import annotations

import json

import pytest

from repro.campaigns.campaign import Campaign, CampaignConfig
from repro.errors import PQSError
from repro.guidance import PlanCoverage


def config(**kw):
    kw.setdefault("seed", 21)
    kw.setdefault("databases", 4)
    kw.setdefault("reduce", False)
    return CampaignConfig(**kw)


def test_guided_campaign_reports_coverage(tmp_path):
    path = tmp_path / "coverage.json"
    result = Campaign(config(guidance=True,
                             plan_coverage=str(path))).run()
    assert result.plan_coverage is not None
    assert result.plan_coverage.distinct > 0
    dumped = json.loads(path.read_text())
    assert dumped["distinct"] == result.plan_coverage.distinct


def test_unguided_campaign_has_no_coverage():
    result = Campaign(config()).run()
    assert result.plan_coverage is None


def test_passive_coverage_without_guidance(tmp_path):
    path = tmp_path / "coverage.json"
    result = Campaign(config(plan_coverage=str(path))).run()
    baseline = Campaign(config()).run()
    assert result.plan_coverage.distinct > 0
    # Passive observation must not perturb the hunt itself.
    assert result.stats.queries == baseline.stats.queries
    assert result.stats.statements == baseline.stats.statements


def test_journal_resume_restores_guidance(tmp_path):
    journal = tmp_path / "hunt.jsonl"
    full = Campaign(config(databases=6, guidance=True,
                           journal=str(journal))).run()

    # Simulate an interrupt after round 2: keep header + 3 records.
    lines = journal.read_text().splitlines()
    journal.write_text("\n".join(lines[:4]) + "\n")
    resumed = Campaign(config(databases=6, guidance=True,
                              journal=str(journal), resume=True)).run()

    assert resumed.stats.queries == full.stats.queries
    assert resumed.plan_coverage.to_json() == \
        full.plan_coverage.to_json()


def test_guided_journal_rejects_unguided_resume(tmp_path):
    journal = tmp_path / "hunt.jsonl"
    Campaign(config(guidance=True, journal=str(journal))).run()
    with pytest.raises(PQSError):
        Campaign(config(journal=str(journal), resume=True)).run()


def test_parallel_campaign_merges_coverage(tmp_path):
    path = tmp_path / "coverage.json"
    journal = tmp_path / "hunt.jsonl"
    result = Campaign(CampaignConfig(
        seed=21, threads=2, databases=6, reduce=False,
        guidance=True, plan_coverage=str(path),
        journal=str(journal))).run()
    assert result.plan_coverage is not None
    # The coverage set is the union of every round's novel plans.
    union = set()
    for line in journal.read_text().splitlines()[1:]:
        union.update(fp for fp, _ in json.loads(line).get("plans", []))
    assert union
    assert set(result.plan_coverage.fingerprints()) == union
    loaded = PlanCoverage.load(str(path))
    assert loaded.distinct == result.plan_coverage.distinct
