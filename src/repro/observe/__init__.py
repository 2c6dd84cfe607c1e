"""Campaign observability: event log, status service, triage analytics.

The observe package is the read side of a hunt.  Three pieces:

* :mod:`repro.observe.events` — the unified structured event log, one
  seeded JSONL stream of typed events sharing ``campaign``/``round``/
  ``round_seed``/``worker`` correlation keys with the journal and the
  span tracer;
* :mod:`repro.observe.observatory` + :mod:`repro.observe.server` — a
  live aggregation hub and the zero-dependency stdlib HTTP status
  service (``hunt --serve``) over it;
* :mod:`repro.observe.report` — offline triage analytics
  (``pqs report``): journal + metrics snapshot in, a deduplicated bug
  digest and a ``results/history.jsonl`` line out.

Everything here is off by default and **observation-only**: no code
path in this package feeds back into generation, and the durability
tests pin that a fully-observed campaign writes the same journal as an
unobserved one.
"""

from repro.observe.events import (
    NULL_EVENTS,
    EventLog,
    NullEventLog,
    campaign_id,
    load_events,
)
from repro.observe.observatory import (
    NULL_OBSERVATORY,
    NullObservatory,
    Observatory,
)
from repro.observe.report import (
    append_history,
    build_report,
    history_line,
    load_history,
    render_report,
    render_trend,
)
from repro.observe.server import StatusServer, parse_address

__all__ = [
    "NULL_EVENTS",
    "NULL_OBSERVATORY",
    "EventLog",
    "NullEventLog",
    "NullObservatory",
    "Observatory",
    "StatusServer",
    "append_history",
    "build_report",
    "campaign_id",
    "history_line",
    "load_events",
    "load_history",
    "parse_address",
    "render_report",
    "render_trend",
]
