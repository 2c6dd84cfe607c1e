"""Triage golden: reduction, shrinking and attribution are byte-stable.

The fixture pins, per campaign, the hunt's statement and query counts
and a sha256 over every triaged report's oracle, message, reduced
statements, triage status and attributed defects.  Multiplan campaigns
also pin the summed multi-plan counters: queries checked, distinct
plans run, divergences and forced-plan failures.  Any change to the
replayers, the reducer, the shrinker or the MiniDB engine that alters
a single reduced case (or which cases survive the per-defect cap)
changes a digest.  Regenerate only for an intended behaviour change:

    PYTHONPATH=src python tests/campaigns/test_triage_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.campaigns.campaign import Campaign, CampaignConfig
from repro.core.runner import RunnerConfig

FIXTURE = Path(__file__).with_name("triage_golden.json")

#: (name, dialect, seed, databases, multiplan)
CAMPAIGNS = [
    ("sqlite-multiplan-0", "sqlite", 0, 8, True),
    ("sqlite-multiplan-1", "sqlite", 1, 8, True),
    ("sqlite-0", "sqlite", 0, 20, False),
    ("mysql-0", "mysql", 0, 20, False),
    ("postgres-0", "postgres", 0, 20, False),
]


def digest(dialect: str, seed: int, databases: int,
           multiplan: bool) -> dict:
    result = Campaign(CampaignConfig(
        dialect=dialect, seed=seed, databases=databases,
        runner=RunnerConfig(multiplan=multiplan))).run()
    body = [[r.oracle.value, r.message, r.test_case.statements, r.triage,
             r.attributed_bugs] for r in result.reports]
    encoded = json.dumps(body, sort_keys=True).encode("utf-8")
    stats = result.stats
    out = {"statements": stats.statements,
           "queries": stats.queries,
           "reports": len(result.reports),
           "sha256": hashlib.sha256(encoded).hexdigest()}
    if multiplan:
        for name in ("multiplan_queries", "multiplan_plans",
                     "multiplan_divergences", "multiplan_forced_failures"):
            out[name] = getattr(stats, name)
    return out


@pytest.mark.parametrize("name,dialect,seed,databases,multiplan",
                         CAMPAIGNS, ids=[c[0] for c in CAMPAIGNS])
def test_triage_matches_golden(name, dialect, seed, databases, multiplan):
    expected = json.loads(FIXTURE.read_text())[name]
    assert digest(dialect, seed, databases, multiplan) == expected


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        {c[0]: digest(*c[1:]) for c in CAMPAIGNS}, indent=2,
        sort_keys=True) + "\n")
