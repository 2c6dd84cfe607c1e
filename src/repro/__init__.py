"""Pivoted Query Synthesis — a reproduction of Rigger & Su, OSDI 2020.

Public API tour:

* :class:`repro.core.PQSRunner` — the PQS loop (steps 1–7 of Figure 1)
  against any :class:`repro.adapters.DBMSConnection`;
* :class:`repro.minidb.Engine` — the from-scratch relational engine used
  as the offline system under test, with injectable defects
  (:data:`repro.minidb.BUG_CATALOG`) modeled on the paper's reported
  bugs;
* :class:`repro.campaigns.Campaign` — end-to-end bug-hunting runs with
  reduction, attribution and the paper's Tables/Figures statistics;
* :mod:`repro.interp` — the exact expression interpreter (the oracle),
  cross-validated against real SQLite;
* :class:`repro.adapters.SQLite3Connection` — run the same loop against
  a live SQLite build;
* :class:`repro.telemetry.Telemetry` — opt-in metrics registry and span
  tracer threaded through the runner, campaigns and fault harness.

Quick start::

    from repro import Campaign, CampaignConfig

    result = Campaign(CampaignConfig(dialect="sqlite", seed=1,
                                     databases=20)).run()
    for report in result.reports:
        print(report.oracle.value, report.attributed_bugs)
        print(report.test_case.render())
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.adapters import (
        DBMSConnection,
        FaultPlan,
        FaultyFactory,
        MiniDBConnection,
        SQLite3Connection,
        SubprocessConnection,
    )
    from repro.campaigns import Campaign, CampaignConfig, CampaignResult
    from repro.core import (
        BugReport,
        Oracle,
        PQSRunner,
        RunnerConfig,
        TestCase,
        TestCaseReducer,
    )
    from repro.errors import (
        DBCrash,
        DBError,
        DBTimeout,
        HarnessError,
        PQSError,
    )
    from repro.minidb import BUG_CATALOG, BugRegistry, Engine, ResultSet
    from repro.telemetry import MetricsRegistry, Telemetry, Tracer
    from repro.values import Value

__version__ = "1.0.0"

#: Where each public name is defined.  Names resolve on first access
#: (:func:`repro._lazy.lazy_exports`), so ``import repro`` -- which an
#: exec-started isolated worker pays -- loads no subpackage, MiniDB
#: least of all.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.adapters": (
        "DBMSConnection", "FaultPlan", "FaultyFactory", "MiniDBConnection",
        "SQLite3Connection", "SubprocessConnection"),
    "repro.campaigns": ("Campaign", "CampaignConfig", "CampaignResult"),
    "repro.core": ("BugReport", "Oracle", "PQSRunner", "RunnerConfig",
                   "TestCase", "TestCaseReducer"),
    "repro.errors": ("DBCrash", "DBError", "DBTimeout", "HarnessError",
                     "PQSError"),
    "repro.minidb": ("BUG_CATALOG", "BugRegistry", "Engine", "ResultSet"),
    "repro.telemetry": ("MetricsRegistry", "Telemetry", "Tracer"),
    "repro.values": ("Value",),
})

__all__ = [
    "BUG_CATALOG",
    "BugRegistry",
    "BugReport",
    "Campaign",
    "CampaignConfig",
    "CampaignResult",
    "DBCrash",
    "DBError",
    "DBMSConnection",
    "DBTimeout",
    "Engine",
    "FaultPlan",
    "FaultyFactory",
    "HarnessError",
    "MetricsRegistry",
    "MiniDBConnection",
    "Oracle",
    "PQSError",
    "PQSRunner",
    "ResultSet",
    "RunnerConfig",
    "SQLite3Connection",
    "SubprocessConnection",
    "Telemetry",
    "TestCase",
    "TestCaseReducer",
    "Tracer",
    "Value",
    "__version__",
]

