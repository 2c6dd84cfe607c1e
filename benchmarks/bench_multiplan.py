"""Multi-plan differential oracle: per-plan cost and defect reach.

The multiplan oracle (DESIGN.md §12) re-executes each synthesized query
under every distinct feasible plan.  This bench measures what that
costs and what it buys:

* **per-plan timings** — wall-clock per forced execution, per hint
  kind, over deterministic demonstration scenarios for each of the
  three planner defects only this oracle can reach;
* **divergence counts** — each scenario must diverge on the buggy
  engine and agree on a clean engine (plan forcing is
  behavior-preserving when the planner is correct);
* **containment blindness** — a containment-only campaign with the same
  defects enabled finds nothing (the defects fire only on forced
  plans, which the unforced stream never executes);
* **campaign detection** — short ``multiplan=True`` campaigns for the
  defects whose trigger shapes the random stream actually generates
  (``sqlite-like-prefix-range`` needs a bare ``col LIKE 'prefix%'``
  against an indexed column — too rare for a short random campaign, so
  its reach is demonstrated by the scenario runs above and recorded as
  ``campaign_detected: false`` here).

Results land in ``results/multiplan.json``.
"""

import json
import time

from _shared import RESULTS_DIR

from repro.adapters.minidb_adapter import MiniDBConnection
from repro.campaigns.campaign import Campaign, CampaignConfig
from repro.core.runner import RunnerConfig
from repro.minidb.bugs import BugRegistry
from repro.multiplan.hints import BASELINE, PlannerHints
from repro.multiplan.oracle import _canonical

REPEATS = 50

#: One deterministic scenario per injected optimizer defect: the state,
#: the final query, and the forcing hints whose executions disagree.
SCENARIOS = {
    "sqlite-forced-index-fencepost": {
        "statements": [
            "CREATE TABLE t0 (c0 TEXT)",
            "CREATE INDEX i0 ON t0 (c0)",
            "INSERT INTO t0 VALUES ('a'), ('b'), ('c')",
        ],
        "query": "SELECT c0 FROM t0",
        "hints": [BASELINE, PlannerHints(force_index="i0")],
    },
    "sqlite-stale-stats-join": {
        "statements": [
            "CREATE TABLE t0 (c0 INTEGER)",
            "CREATE TABLE t1 (c1 INTEGER)",
            "INSERT INTO t0 VALUES (1), (2)",
            "INSERT INTO t1 VALUES (1), (3)",
        ],
        "query": "SELECT * FROM t0, t1",
        "hints": [PlannerHints(force_full_scan=True),
                  PlannerHints(force_full_scan=True, analyze=True)],
    },
    "sqlite-like-prefix-range": {
        "statements": [
            "CREATE TABLE t0 (c0 TEXT)",
            "CREATE INDEX i0 ON t0 (c0)",
            "INSERT INTO t0 VALUES ('ab'), ('abc'), ('b'), ('ba')",
        ],
        "query": "SELECT c0 FROM t0 WHERE c0 LIKE 'ab%'",
        "hints": [BASELINE, PlannerHints(force_index="i0"),
                  PlannerHints(force_index="i0", no_like_opt=True)],
    },
}

#: Defects a short random multiplan campaign reliably detects (the
#: like-prefix defect's trigger shape is too rare — see module
#: docstring).
CAMPAIGN_SEEDS = {
    "sqlite-forced-index-fencepost": 0,
    "sqlite-stale-stats-join": 0,
}


def _run_scenario(bug_id: str, scenario: dict, buggy: bool) -> dict:
    """Execute the scenario's forced plans; time each, count outcomes."""
    bugs = BugRegistry({bug_id}) if buggy else BugRegistry()
    connection = MiniDBConnection("sqlite", bugs=bugs)
    for sql in scenario["statements"]:
        connection.execute(sql)
    timings: list[dict] = []
    outcomes = set()
    for hints in scenario["hints"]:
        t0 = time.perf_counter()
        for _ in range(REPEATS):
            rows = connection.with_plan(scenario["query"], hints)
        elapsed = (time.perf_counter() - t0) / REPEATS
        outcomes.add(_canonical(rows, weak=False))
        timings.append({"hints": hints.describe(),
                        "rows": len(rows),
                        "mean_us": round(elapsed * 1e6, 2)})
    return {"plans": timings, "distinct_outcomes": len(outcomes),
            "diverges": len(outcomes) > 1}


def test_multiplan_reaches_planner_defects():
    """Emit ``multiplan.json``; assert the oracle's reach claims."""
    artifact: dict = {"repeats": REPEATS, "bugs": {}}

    for bug_id, scenario in SCENARIOS.items():
        buggy = _run_scenario(bug_id, scenario, buggy=True)
        clean = _run_scenario(bug_id, scenario, buggy=False)
        entry = {
            "query": scenario["query"],
            "buggy": buggy,
            "clean": clean,
            "campaign_detected": False,
            "campaign_divergences": 0,
        }
        seed = CAMPAIGN_SEEDS.get(bug_id)
        if seed is not None:
            multiplan_cfg = CampaignConfig(
                dialect="sqlite", seed=seed, databases=3,
                bug_ids=[bug_id], reduce=False,
                runner=RunnerConfig(multiplan=True))
            result = Campaign(multiplan_cfg).run()
            entry["campaign_detected"] = any(
                bug_id in report.attributed_bugs for report in result.reports)
            entry["campaign_divergences"] = \
                result.stats.multiplan_divergences
            # Containment blindness: the same campaign without the
            # multiplan oracle sees nothing — the defect never fires on
            # the unforced stream.
            contain_cfg = CampaignConfig(
                dialect="sqlite", seed=seed, databases=3,
                bug_ids=[bug_id], reduce=False)
            contain = Campaign(contain_cfg).run()
            entry["containment_reports"] = len(contain.reports)
        artifact["bugs"][bug_id] = entry

    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "multiplan.json"
    path.write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"wrote {path}")
    print(json.dumps(artifact, indent=2))

    for bug_id, entry in artifact["bugs"].items():
        assert entry["buggy"]["diverges"], \
            f"{bug_id}: buggy engine's forced plans did not diverge"
        assert not entry["clean"]["diverges"], \
            f"{bug_id}: clean engine's forced plans diverged"
        assert entry.get("containment_reports", 0) == 0, \
            f"{bug_id}: containment-only campaign saw the defect"
    for bug_id in CAMPAIGN_SEEDS:
        assert artifact["bugs"][bug_id]["campaign_detected"], \
            f"{bug_id}: multiplan campaign missed the defect"
