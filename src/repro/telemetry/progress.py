"""Live campaign progress: a periodic one-line stderr heartbeat.

A long hunt used to run silent until the final summary; the paper's
own runs were babysat for months, which only works if the tool shows a
pulse.  :class:`ProgressReporter` samples the metrics registry from a
daemon thread every ``interval`` seconds and rewrites a line like::

    [pqs] round 37/100 (37%) | reports 2 | 841 stmts, 412 queries |
    163.4 q/s | ETA 12s

Reads are lock-protected registry sums — the reporter never touches
runner state, so it cannot perturb the hunt beyond its own sampling
cost (a handful of dict scans per tick).
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Callable, Optional, TextIO

from repro.telemetry import names


class ProgressReporter:
    """Background thread printing campaign progress from the registry.

    A round is *done* when it completed **or** was quarantined — a
    poison round never completes, so counting completions alone stalls
    the percentage and the ETA on a quarantined tail forever.  The
    completed count is additionally clamped to the campaign total, so
    a progress line never reads 103% whatever the counter saw.

    ``counts`` optionally overrides the registry read: a zero-argument
    callable returning ``(completed, quarantined)`` — the observatory
    supplies the work queue's exact settled counts this way.
    """

    def __init__(self, registry, total_rounds: int,
                 interval: float = 2.0,
                 stream: Optional[TextIO] = None,
                 counts: Optional[Callable[[], tuple[int, int]]] = None):
        self.registry = registry
        self.total_rounds = max(total_rounds, 0)
        self.interval = max(interval, 0.05)
        self.stream = stream if stream is not None else sys.stderr
        self.counts = counts
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._start_time = time.monotonic()

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "ProgressReporter":
        self._start_time = time.monotonic()
        self._thread = threading.Thread(target=self._run,
                                        name="pqs-progress", daemon=True)
        self._thread.start()
        return self

    def stop(self, final_line: bool = True) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.interval + 1.0)
            self._thread = None
        if final_line:
            self._write(self.render_line())

    def __enter__(self) -> "ProgressReporter":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # -- rendering ----------------------------------------------------------
    def _settled(self) -> tuple[int, int]:
        """(completed, quarantined), clamped so their sum never exceeds
        the campaign total."""
        if self.counts is not None:
            completed, quarantined = self.counts()
        else:
            completed = int(self.registry.value(names.ROUNDS))
            quarantined = int(self.registry.value(
                names.SUPERVISOR_QUARANTINED))
        if self.total_rounds:
            quarantined = min(quarantined, self.total_rounds)
            completed = min(completed, self.total_rounds - quarantined)
        return completed, quarantined

    def render_line(self) -> str:
        """The current progress line (public so tests need no thread)."""
        elapsed = max(time.monotonic() - self._start_time, 1e-9)
        completed, quarantined = self._settled()
        done = completed + quarantined
        reports = int(self.registry.value(names.REPORTS))
        statements = int(self.registry.value(names.STATEMENTS))
        queries = int(self.registry.value(names.QUERIES))
        qps = queries / elapsed
        parts = [f"round {done}/{self.total_rounds}"
                 if self.total_rounds else f"round {done}"]
        if self.total_rounds:
            pct = min(100.0 * done / self.total_rounds, 100.0)
            parts[0] += f" ({pct:.0f}%)"
        parts.append(f"reports {reports}")
        if quarantined:
            parts.append(f"quarantined {quarantined}")
        parts.append(f"{statements} stmts, {queries} queries")
        parts.append(f"{qps:.1f} q/s")
        eta = self._eta(done, elapsed)
        if eta is not None:
            parts.append(f"ETA {_fmt_duration(eta)}")
        return "[pqs] " + " | ".join(parts)

    def _eta(self, done: int, elapsed: float) -> Optional[float]:
        if not self.total_rounds or done <= 0:
            return None
        remaining = self.total_rounds - done
        if remaining <= 0:
            return 0.0
        return remaining * (elapsed / done)

    # -- plumbing -----------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._write(self.render_line())

    def _write(self, line: str) -> None:
        try:
            self.stream.write(line + "\n")
            self.stream.flush()
        except (ValueError, OSError):
            # Stream closed under us (interpreter teardown) — stop quietly.
            self._stop.set()


def _fmt_duration(seconds: float) -> str:
    seconds = max(seconds, 0.0)
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"
