"""Thread-safe metrics: counters, gauges, and latency histograms.

The registry is the campaign's single source of quantitative truth —
the paper's throughput claim (§3.4: "5,000 to 20,000 statements per
second") and distribution figures are only checkable if the running
hunt counts what it does.  Design constraints, in order:

1. **Hot-path cost.**  ``Counter.inc`` is a lock acquire, an add, and a
   release; ``Histogram.observe`` adds one bisect.  Instruments are
   resolved *once* (at runner construction) and cached, so the PQS loop
   never touches the registry dict while hunting.  The disabled path
   (:class:`NullRegistry`) hands out shared no-op instruments whose
   methods are empty — instrumented-but-off code stays within noise of
   uninstrumented code.
2. **Thread safety.**  Each instrument carries its own lock, so the
   hunt loop can update a registry while the ``--serve`` status
   server's request threads read it.
3. **Exportability.**  ``snapshot()`` is plain JSON (round-trippable via
   :meth:`MetricsRegistry.from_snapshot`); ``to_prometheus()`` renders
   the conventional text exposition format so a long-running hunt can be
   scraped.

Histograms keep exact ``count``/``sum``/``min``/``max`` and exact
cumulative bucket counts, plus a bounded sample reservoir for
percentile math.  When the reservoir fills it is decimated
deterministically (every second sample kept, the admission stride
doubled) — no randomness, so runs stay reproducible, and memory stays
O(cap) regardless of campaign length.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from typing import Iterable, Optional

#: Default latency buckets, in seconds: sub-millisecond through tens of
#: seconds — spans the oracle interpreter (~µs) to a watchdog deadline.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Reservoir capacity per histogram before deterministic decimation.
RESERVOIR_CAP = 4096


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _escape_label_value(value) -> str:
    """Prometheus exposition escaping for a quoted label value:
    backslash, double quote, and line feed."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _escape_help(text: str) -> str:
    """``# HELP`` escaping: backslash and line feed only (quotes are
    legal in help text)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"'
                     for k, v in sorted(labels.items()))
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: Optional[dict] = None):
        self.name = name
        self.labels = dict(labels or {})
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def to_json(self) -> dict:
        return {"value": self.value}

    def absorb(self, data: dict) -> None:
        self.inc(data.get("value", 0))


class Gauge:
    """A value that goes up and down (e.g. rounds remaining)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: Optional[dict] = None):
        self.name = name
        self.labels = dict(labels or {})
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def to_json(self) -> dict:
        return {"value": self.value}

    def absorb(self, data: dict) -> None:
        # Merging gauges across snapshots: sum (a merged gauge is a
        # total).
        self.inc(data.get("value", 0.0))


class Histogram:
    """Latency distribution: exact moments + bounded percentile samples."""

    kind = "histogram"
    __slots__ = ("name", "labels", "buckets", "_lock", "_bucket_counts",
                 "_count", "_sum", "_min", "_max", "_samples", "_stride",
                 "_pending")

    def __init__(self, name: str, labels: Optional[dict] = None,
                 buckets: Iterable[float] = DEFAULT_BUCKETS):
        self.name = name
        self.labels = dict(labels or {})
        self.buckets = tuple(sorted(buckets))
        self._lock = threading.Lock()
        self._bucket_counts = [0] * len(self.buckets)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._samples: list[float] = []
        #: Every ``stride``-th observation enters the reservoir.
        self._stride = 1
        self._pending = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
            index = bisect_left(self.buckets, value)
            if index < len(self._bucket_counts):
                self._bucket_counts[index] += 1
            self._pending += 1
            if self._pending >= self._stride:
                self._pending = 0
                self._samples.append(value)
                if len(self._samples) >= RESERVOIR_CAP:
                    # Deterministic decimation: thin to every other
                    # sample, admit half as often from now on.
                    self._samples = self._samples[::2]
                    self._stride *= 2

    # -- reading ------------------------------------------------------------
    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile (``p`` in [0, 100]) over the
        sample reservoir; exact until the reservoir first decimates."""
        with self._lock:
            samples = sorted(self._samples)
        if not samples:
            return 0.0
        if len(samples) == 1:
            return samples[0]
        rank = (p / 100.0) * (len(samples) - 1)
        low = int(rank)
        high = min(low + 1, len(samples) - 1)
        frac = rank - low
        return samples[low] * (1.0 - frac) + samples[high] * frac

    def to_json(self) -> dict:
        with self._lock:
            return {
                "count": self._count, "sum": self._sum,
                "min": self._min, "max": self._max,
                "buckets": list(self.buckets),
                "bucket_counts": list(self._bucket_counts),
                "samples": list(self._samples),
                "stride": self._stride,
            }

    def absorb(self, data: dict) -> None:
        """Merge a snapshot of another histogram (same bucket layout)."""
        with self._lock:
            self._count += data.get("count", 0)
            self._sum += data.get("sum", 0.0)
            for bound in ("min", "max"):
                theirs = data.get(bound)
                if theirs is None:
                    continue
                mine = self._min if bound == "min" else self._max
                if mine is None:
                    better = theirs
                else:
                    better = min(mine, theirs) if bound == "min" \
                        else max(mine, theirs)
                if bound == "min":
                    self._min = better
                else:
                    self._max = better
            counts = data.get("bucket_counts", [])
            if tuple(data.get("buckets", self.buckets)) == self.buckets:
                for i, n in enumerate(counts[:len(self._bucket_counts)]):
                    self._bucket_counts[i] += n
            self._samples.extend(data.get("samples", []))
            while len(self._samples) >= RESERVOIR_CAP:
                self._samples = self._samples[::2]
                self._stride *= 2


_INSTRUMENT_KINDS = {"counter": Counter, "gauge": Gauge,
                     "histogram": Histogram}


class MetricsRegistry:
    """Process-wide instrument store, keyed by (name, labels)."""

    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: dict[tuple[str, tuple], object] = {}

    # -- instrument access --------------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, buckets: Iterable[float] = DEFAULT_BUCKETS,
                  **labels) -> Histogram:
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = Histogram(name, labels, buckets)
                self._instruments[key] = instrument
            if not isinstance(instrument, Histogram):
                raise TypeError(f"{name} already registered as "
                                f"{instrument.kind}")
            return instrument

    def _get(self, cls, name: str, labels: dict):
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = cls(name, labels)
                self._instruments[key] = instrument
            if not isinstance(instrument, cls):
                raise TypeError(f"{name} already registered as "
                                f"{instrument.kind}")
            return instrument

    # -- aggregate reads ----------------------------------------------------
    def instruments(self) -> list:
        with self._lock:
            return list(self._instruments.values())

    def value(self, name: str) -> float:
        """Sum of a counter/gauge family across all label sets."""
        return sum(i.value for i in self.instruments()
                   if i.name == name and i.kind in ("counter", "gauge"))

    # -- export -------------------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-safe dump of every instrument, keyed
        ``name{label="v"}`` -> ``{"kind": ..., **state}``."""
        out: dict[str, dict] = {}
        for instrument in self.instruments():
            key = instrument.name + _render_labels(instrument.labels)
            out[key] = {"kind": instrument.kind,
                        "labels": dict(instrument.labels),
                        **instrument.to_json()}
        return out

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one
        (:meth:`from_snapshot` rebuilds a saved ``--metrics`` file
        this way)."""
        for key, data in snapshot.items():
            kind = data.get("kind")
            if kind not in _INSTRUMENT_KINDS:
                continue
            name = key.split("{", 1)[0]
            labels = data.get("labels", {})
            if kind == "counter":
                self.counter(name, **labels).absorb(data)
            elif kind == "gauge":
                self.gauge(name, **labels).absorb(data)
            else:
                buckets = tuple(data.get("buckets", DEFAULT_BUCKETS))
                self.histogram(name, buckets=buckets,
                               **labels).absorb(data)

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "MetricsRegistry":
        registry = cls()
        registry.merge_snapshot(snapshot)
        return registry

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (one scrape page).

        Conformance points (audited against the exposition-format
        spec): ``# HELP`` before ``# TYPE`` per family, label values
        escaped (backslash, quote, newline), histograms with cumulative
        ``le`` buckets ending in ``+Inf`` plus ``_sum``/``_count``
        series, non-finite values rendered ``+Inf``/``-Inf``/``NaN``,
        and a trailing newline.
        """
        from repro.telemetry import names as metric_names

        lines: list[str] = []
        by_name: dict[str, list] = {}
        for instrument in self.instruments():
            by_name.setdefault(instrument.name, []).append(instrument)
        for name in sorted(by_name):
            family = by_name[name]
            help_text = metric_names.HELP.get(name)
            if help_text:
                lines.append(f"# HELP {name} {_escape_help(help_text)}")
            lines.append(f"# TYPE {name} {family[0].kind}")
            for instrument in family:
                rendered = _render_labels(instrument.labels)
                if instrument.kind in ("counter", "gauge"):
                    lines.append(f"{name}{rendered} "
                                 f"{_fmt(instrument.value)}")
                    continue
                state = instrument.to_json()
                cumulative = 0
                for bound, count in zip(state["buckets"],
                                        state["bucket_counts"]):
                    cumulative += count
                    labels = dict(instrument.labels)
                    labels["le"] = _fmt(bound)
                    lines.append(f"{name}_bucket{_render_labels(labels)} "
                                 f"{cumulative}")
                labels = dict(instrument.labels)
                labels["le"] = "+Inf"
                lines.append(f"{name}_bucket{_render_labels(labels)} "
                             f"{state['count']}")
                lines.append(f"{name}_sum{rendered} {_fmt(state['sum'])}")
                lines.append(f"{name}_count{rendered} {state['count']}")
        return "\n".join(lines) + "\n" if lines else ""


def _fmt(value) -> str:
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == float("inf"):
            return "+Inf"
        if value == float("-inf"):
            return "-Inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


# -- disabled mode ----------------------------------------------------------
class NullCounter:
    kind = "counter"
    name = ""
    labels: dict = {}
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass


class NullGauge:
    kind = "gauge"
    name = ""
    labels: dict = {}
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass


class NullHistogram:
    kind = "histogram"
    name = ""
    labels: dict = {}
    count = 0
    sum = 0.0
    mean = 0.0

    def observe(self, value: float) -> None:
        pass

    def percentile(self, p: float) -> float:
        return 0.0


_NULL_COUNTER = NullCounter()
_NULL_GAUGE = NullGauge()
_NULL_HISTOGRAM = NullHistogram()


class NullRegistry:
    """Shared no-op instruments; the default when telemetry is off."""

    enabled = False

    def counter(self, name: str, **labels) -> NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, **labels) -> NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str, buckets=DEFAULT_BUCKETS,
                  **labels) -> NullHistogram:
        return _NULL_HISTOGRAM

    def instruments(self) -> list:
        return []

    def value(self, name: str) -> float:
        return 0.0

    def snapshot(self) -> dict:
        return {}

    def to_json(self, indent: Optional[int] = 2) -> str:
        return "{}"

    def merge_snapshot(self, snapshot: dict) -> None:
        pass

    def to_prometheus(self) -> str:
        return ""
