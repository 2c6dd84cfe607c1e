"""Span-based tracing: what the hunt did, when, and for how long.

A :class:`Tracer` hands out :class:`Span` context managers; closing a
span emits one JSON event to the configured sink.  Timing uses the
monotonic clock (wall-clock steps must never produce negative phase
latencies); each event also carries a wall-clock timestamp derived from
a single anchor taken at tracer construction, so traces from different
processes line up on one timeline.

Event schema (one JSON object per line in a :class:`JsonlSink` file)::

    {"kind": "span", "name": "containment", "seq": 17, "t": 1.0421,
     "wall": 1754489000.12, "dur": 0.00031, "attrs": {"oracle": "ok"}}

``seq`` orders events by *emission* (span close); nested spans therefore
emit child-before-parent, the conventional trace layout.  ``t`` is
seconds since the tracer started.

**Context attributes** (:meth:`Tracer.context`) are thread-local
key/values merged into every event the thread emits while the context
is open.  The campaign's round loop binds ``round``/``round_seed``
around each round, so its spans join against journal lines on exactly
the keys those lines carry (``index``/``seed``) — explicit per-event
attrs win over context on collision.

The disabled path is :class:`NullTracer`: ``span()`` returns one shared
no-op context manager, so an instrumented-but-off hot loop costs two
empty method calls per span.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Optional


class JsonlSink:
    """Appends one JSON object per line to a file, under a lock."""

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._handle = open(path, "w", encoding="utf-8")

    def write(self, event: dict) -> None:
        line = json.dumps(event) + "\n"
        with self._lock:
            if self._handle is not None:
                self._handle.write(line)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
                self._handle.close()
                self._handle = None


class ListSink:
    """Collects events in memory (tests, progress introspection)."""

    def __init__(self):
        self._lock = threading.Lock()
        self.events: list[dict] = []

    def write(self, event: dict) -> None:
        with self._lock:
            self.events.append(event)

    def close(self) -> None:
        pass


class Span:
    """One timed operation; emits on ``__exit__``."""

    __slots__ = ("_tracer", "name", "attrs", "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._start = 0.0

    def set(self, key: str, value) -> None:
        """Attach an attribute discovered mid-span."""
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        self._start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.monotonic()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._emit(self.name, self._start, end - self._start,
                           self.attrs)
        return False


class _TraceContext:
    """Context manager scoping thread-local attributes on a tracer."""

    __slots__ = ("_tracer", "_attrs", "_saved")

    def __init__(self, tracer: "Tracer", attrs: dict):
        self._tracer = tracer
        self._attrs = attrs
        self._saved: dict = {}

    def __enter__(self) -> "_TraceContext":
        local = self._tracer._local
        self._saved = getattr(local, "attrs", {})
        local.attrs = {**self._saved, **self._attrs}
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._local.attrs = self._saved
        return False


class Tracer:
    """Emits span events to a sink; cheap enough to leave on."""

    enabled = True

    def __init__(self, sink):
        self.sink = sink
        self._lock = threading.Lock()
        self._seq = 0
        #: Monotonic instant the tracer was born — ``t`` origin.
        self._origin = time.monotonic()
        #: Wall-clock anchor for the same instant.
        self._wall_anchor = time.time() - self._origin
        #: Thread-local context attributes (see :meth:`context`).
        self._local = threading.local()

    def span(self, name: str, **attrs) -> Span:
        return Span(self, name, attrs)

    def event(self, name: str, **attrs) -> None:
        """An instantaneous (zero-duration) event."""
        now = time.monotonic()
        self._emit(name, now, 0.0, attrs, kind="event")

    def context(self, **attrs) -> _TraceContext:
        """Bind *attrs* to every event this thread emits inside the
        ``with`` block (nests; inner bindings shadow outer ones)."""
        return _TraceContext(self, attrs)

    def current_context(self) -> dict:
        """This thread's active context attributes (empty when none)."""
        return dict(getattr(self._local, "attrs", {}))

    def _emit(self, name: str, start: float, duration: float,
              attrs: dict, kind: str = "span") -> None:
        with self._lock:
            seq = self._seq
            self._seq += 1
        context = getattr(self._local, "attrs", None)
        if context:
            attrs = {**context, **attrs}
        event = {"kind": kind, "name": name, "seq": seq,
                 "t": round(start - self._origin, 6),
                 "wall": round(self._wall_anchor + start, 6),
                 "dur": round(duration, 6)}
        if attrs:
            event["attrs"] = attrs
        self.sink.write(event)


class _NullSpan:
    """Shared do-nothing span."""

    __slots__ = ()
    name = ""

    def set(self, key: str, value) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _NullContext:
    """Shared do-nothing trace context."""

    __slots__ = ()

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class NullTracer:
    """The default tracer: emits nothing, costs (almost) nothing."""

    enabled = False
    sink: Optional[JsonlSink] = None

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs) -> None:
        pass

    def context(self, **attrs) -> _NullContext:
        return _NULL_CONTEXT

    def current_context(self) -> dict:
        return {}
