"""Campaign orchestration: long PQS runs with ground-truth scoring.

The paper's evaluation ran SQLancer for months against live DBMS and
counted developer-confirmed bugs.  Offline, a *campaign* runs PQS
against a MiniDB engine with that dialect's injected defects enabled,
reduces every finding, attributes it to specific defects by differential
replay against single-defect engines, and aggregates the statistics that
regenerate the paper's Tables 2–3 and Figures 2–3.

Journaled campaigns, and campaigns with ``threads > 1``, run their
rounds through one round queue (repro.campaigns.scheduler) drained by
one executor in the calling thread (repro.campaigns.executor).
``threads`` counts round streams, not OS threads: under the GIL a
thread fleet bought no speed, so it was removed.  Failed rounds are
retried and poison rounds quarantined instead of aborting, the journal
is checksummed and self-healing (repro.campaigns.journal), and the
whole stack is exercised by a deterministic fault injector
(repro.campaigns.chaos).
"""

from repro.campaigns.campaign import Campaign, CampaignConfig, CampaignResult
from repro.campaigns.chaos import ChaosEvents, ChaosPolicy, NULL_CHAOS
from repro.campaigns.executor import RoundExecutor
from repro.campaigns.journal import (
    CampaignJournal,
    JournalState,
    QuarantineRecord,
    RecoveryStats,
    RoundRecord,
    round_seed,
)
from repro.campaigns.replay import DifferentialReplayer
from repro.campaigns.scheduler import RoundQueue
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
    "ChaosEvents",
    "ChaosPolicy",
    "DifferentialReplayer",
    "JournalState",
    "NULL_CHAOS",
    "QuarantineRecord",
    "RecoveryStats",
    "RoundExecutor",
    "RoundQueue",
    "RoundRecord",
    "constraint_statistics",
    "round_seed",
    "statement_distribution",
    "testcase_loc_cdf",
]
