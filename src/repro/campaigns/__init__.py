"""Campaign orchestration: long PQS runs with ground-truth scoring.

The paper's evaluation ran SQLancer for months against live DBMS and
counted developer-confirmed bugs.  Offline, a *campaign* runs PQS
against a MiniDB engine with that dialect's injected defects enabled,
reduces every finding, attributes it to specific defects by differential
replay against single-defect engines, and aggregates the statistics that
regenerate the paper's Tables 2–3 and Figures 2–3.

Every campaign runs its rounds in one loop in the calling thread
(``Campaign._run_rounds``): every round the journal lacks, in index
order.  Journaled campaigns, and campaigns with ``threads > 1``, run
each under a campaign-global derived seed.  ``threads`` counts round
streams, not OS threads.  The journal is checksummed and self-healing
(repro.campaigns.journal): a resume skips and counts corrupt lines and
re-runs only the rounds they held.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.campaigns.campaign import (
        Campaign,
        CampaignConfig,
        CampaignResult,
    )
    from repro.campaigns.journal import (
        CampaignJournal,
        JournalState,
        RecoveryStats,
        round_seed,
    )
    from repro.campaigns.metrics import (
        constraint_statistics,
        statement_distribution,
        testcase_loc_cdf,
    )
    from repro.campaigns.replay import DifferentialReplayer
    from repro.core.reports import RoundRecord

#: Resolved on first access (:func:`repro._lazy.lazy_exports`): the
#: replayer runs MiniDB, which ``pqs sqlite`` never does.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.campaigns.campaign": ("Campaign", "CampaignConfig",
                                 "CampaignResult"),
    "repro.campaigns.journal": ("CampaignJournal", "JournalState",
                                "RecoveryStats", "round_seed"),
    "repro.campaigns.metrics": ("constraint_statistics",
                                "statement_distribution",
                                "testcase_loc_cdf"),
    "repro.campaigns.replay": ("DifferentialReplayer",),
    "repro.core.reports": ("RoundRecord",),
})

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
