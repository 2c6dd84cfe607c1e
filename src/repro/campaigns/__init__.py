"""Campaign orchestration: long PQS runs with ground-truth scoring.

The paper's evaluation ran SQLancer for months against live DBMS and
counted developer-confirmed bugs.  Offline, a *campaign* runs PQS
against a MiniDB engine with that dialect's injected defects enabled,
reduces every finding, attributes it to specific defects by differential
replay against single-defect engines, and aggregates the statistics that
regenerate the paper's Tables 2–3 and Figures 2–3.

Journaled campaigns, and campaigns with ``threads > 1``, run their
rounds in one loop in the calling thread (``Campaign._run_rounds``):
every round the journal lacks, in index order, each under a
campaign-global derived seed.  ``threads`` counts round streams, not OS
threads.  The journal is checksummed and self-healing
(repro.campaigns.journal): a resume skips and counts corrupt lines and
re-runs only the rounds they held.
"""

from repro.campaigns.campaign import Campaign, CampaignConfig, CampaignResult
from repro.campaigns.journal import (
    CampaignJournal,
    JournalState,
    RecoveryStats,
    RoundRecord,
    round_seed,
)
from repro.campaigns.replay import DifferentialReplayer
from repro.campaigns.metrics import (
    constraint_statistics,
    statement_distribution,
    testcase_loc_cdf,
)

__all__ = [
    "Campaign",
    "CampaignConfig",
    "CampaignJournal",
    "CampaignResult",
    "DifferentialReplayer",
    "JournalState",
    "RecoveryStats",
    "RoundRecord",
    "constraint_statistics",
    "round_seed",
    "statement_distribution",
    "testcase_loc_cdf",
]
