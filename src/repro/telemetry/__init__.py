"""``repro.telemetry`` — metrics, tracing, and live progress for hunts.

The paper's evaluation is quantitative (queries/second §4.4, statement
distributions Figures 2–3, error and timeout behaviour); this package
is how the reproduction measures itself while it runs.  Three pieces:

* :class:`MetricsRegistry` (:mod:`repro.telemetry.registry`) —
  thread-safe counters/gauges/histograms with JSON snapshots (one
  registry's snapshot merges into another) and Prometheus text export;
* :class:`Tracer` (:mod:`repro.telemetry.tracer`) — span-based JSONL
  trace events, monotonic-clock timed;
* :class:`ProgressReporter` (:mod:`repro.telemetry.progress`) — the
  periodic stderr heartbeat behind ``pqs hunt --progress``.

Everything is **off by default**: components take an optional
:class:`Telemetry` and fall back to :data:`NULL_TELEMETRY`, whose
instruments are shared no-ops.  The overhead budget (DESIGN.md §7) is
<5% disabled and the throughput benchmark keeps it honest.

Usage::

    from repro import telemetry

    t = telemetry.Telemetry()          # metrics on, tracing off
    runner = PQSRunner(factory, config, telemetry=t)
    runner.run(100)
    print(t.registry.to_prometheus())
"""

from __future__ import annotations

import time
from typing import Optional

from repro.telemetry import names
from repro.telemetry.progress import ProgressReporter
from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.telemetry.tracer import (
    JsonlSink,
    ListSink,
    NullTracer,
    Span,
    Tracer,
)

__all__ = [
    "Counter", "DEFAULT_BUCKETS", "Gauge", "Histogram", "JsonlSink",
    "ListSink", "MetricsRegistry", "NULL_TELEMETRY", "NullRegistry",
    "NullTracer", "PhaseTimer", "ProgressReporter", "Span", "Telemetry",
    "Tracer", "names",
]


class PhaseTimer:
    """Reusable context manager: one timed phase -> histogram + span.

    A single ``time.monotonic()`` pair feeds both the latency histogram
    and (when tracing) the span event, so turning tracing on does not
    change the recorded latencies.  Not re-entrant — each is owned by
    one single-threaded loop (the runner pre-resolves one per phase).
    """

    __slots__ = ("name", "_histogram", "_tracer", "_start")

    def __init__(self, name: str, histogram, tracer=None):
        self.name = name
        self._histogram = histogram
        self._tracer = tracer if tracer is not None and tracer.enabled \
            else None
        self._start = 0.0

    def __enter__(self) -> "PhaseTimer":
        self._start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.record(self._start, time.monotonic() - self._start,
                    {"error": exc_type.__name__}
                    if exc_type is not None else {})
        return False

    def record(self, start: float, duration: float,
               attrs: Optional[dict] = None) -> None:
        """Observe a phase timed elsewhere, e.g. in a worker process
        (``start`` is on the same system-wide monotonic clock)."""
        self._histogram.observe(duration)
        if self._tracer is not None:
            self._tracer._emit(self.name, start, duration, attrs or {})


class _NullPhaseTimer:
    """Shared no-op phase timer — the disabled hot path."""

    __slots__ = ()
    name = ""

    def __enter__(self) -> "_NullPhaseTimer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def record(self, start: float, duration: float,
               attrs: Optional[dict] = None) -> None:
        pass


_NULL_PHASE = _NullPhaseTimer()


class Telemetry:
    """Registry + tracer bundle handed through the stack.

    ``Telemetry()`` enables metrics with no tracing; pass a
    :class:`Tracer` over a :class:`JsonlSink` to record spans too.
    :data:`NULL_TELEMETRY` (both parts null) is the library default.
    """

    def __init__(self, registry=None, tracer=None):
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NullTracer()

    @property
    def enabled(self) -> bool:
        return self.registry.enabled or self.tracer.enabled

    # -- instrument passthroughs (resolve once, use on the hot path) --------
    def counter(self, name: str, **labels):
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels):
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, buckets=DEFAULT_BUCKETS, **labels):
        return self.registry.histogram(name, buckets=buckets, **labels)

    def phase(self, phase: str, metric: str = names.PHASE_SECONDS):
        """A pre-resolvable timer for one named phase."""
        if not self.enabled:
            return _NULL_PHASE
        return PhaseTimer(phase,
                          self.registry.histogram(metric, phase=phase),
                          self.tracer)

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs)


#: The library-wide disabled default: shared no-op instruments.
NULL_TELEMETRY = Telemetry(registry=NullRegistry(), tracer=NullTracer())
