"""Campaign observability: status service and triage analytics.

The observe package is the read side of a hunt.  Two pieces:

* :mod:`repro.observe.observatory` + :mod:`repro.observe.server` — a
  live aggregation hub and the zero-dependency stdlib HTTP status
  service (``hunt --serve``) over it;
* :mod:`repro.observe.report` — offline triage analytics
  (``pqs report``): journal + metrics snapshot in, a deduplicated bug
  digest out.

Everything here is off by default and **observation-only**: no code
path in this package feeds back into generation, and the durability
tests pin that a fully-observed campaign writes the same journal as an
unobserved one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.observe.observatory import (
        NULL_OBSERVATORY,
        NullObservatory,
        Observatory,
    )
    from repro.observe.report import (
        build_report,
        campaign_id,
        render_report,
    )
    from repro.observe.server import StatusServer, parse_address

#: Resolved on first access (:func:`repro._lazy.lazy_exports`): a hunt
#: without ``--serve`` must not import the status server (and with it
#: ``http.server``), nor a hunt the report builder.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.observe.observatory": ("NULL_OBSERVATORY", "NullObservatory",
                                  "Observatory"),
    "repro.observe.report": ("build_report", "campaign_id",
                             "render_report"),
    "repro.observe.server": ("StatusServer", "parse_address"),
})

__all__ = [
    "NULL_OBSERVATORY",
    "NullObservatory",
    "Observatory",
    "StatusServer",
    "build_report",
    "campaign_id",
    "parse_address",
    "render_report",
]
