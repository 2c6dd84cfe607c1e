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
from typing import Optional, TextIO

from repro.telemetry import names


class ProgressReporter:
    """Background thread printing campaign progress from the registry.

    Rounds done come from the registry's round counter, clamped to the
    campaign total so a progress line never reads 103%.  On a resumed
    hunt that counter includes the rounds loaded from the journal; the
    rate behind the ETA counts only the rounds this process ran (see
    :func:`round_counts`).
    """

    def __init__(self, registry, total_rounds: int,
                 interval: float = 2.0,
                 stream: Optional[TextIO] = None):
        self.registry = registry
        self.total_rounds = max(total_rounds, 0)
        self.interval = max(interval, 0.05)
        self.stream = stream if stream is not None else sys.stderr
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
    def render_line(self) -> str:
        """The current progress line (public so tests need no thread)."""
        elapsed = max(time.monotonic() - self._start_time, 1e-9)
        done, ran = round_counts(self.registry, self.total_rounds)
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
        parts.append(f"{statements} stmts, {queries} queries")
        parts.append(f"{qps:.1f} q/s")
        eta = eta_seconds(done, ran, self.total_rounds, elapsed)
        if eta is not None:
            parts.append(f"ETA {_fmt_duration(eta)}")
        return "[pqs] " + " | ".join(parts)

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


def round_counts(registry, total: int) -> tuple[int, int]:
    """(rounds done, rounds this process ran), read from *registry*.

    Done is the round counter, clamped to *total* when there is one.  A
    resumed hunt adds the rounds it loaded from its journal to that
    counter, so those are subtracted for the second number: rates and
    ETAs must count only work done in this process.
    """
    done = int(registry.value(names.ROUNDS))
    if total:
        done = min(done, total)
    recovered = int(registry.value(names.JOURNAL_RECOVERED_ROUNDS))
    return done, max(done - recovered, 0)


def eta_seconds(done: int, ran: int, total: int,
                elapsed: float) -> Optional[float]:
    """Seconds left at the rate of the *ran* rounds run in *elapsed*;
    None while that rate is unknown."""
    if not total:
        return None
    remaining = max(total - done, 0)
    if not remaining:
        return 0.0
    if ran <= 0:
        return None
    return remaining * elapsed / ran


def _fmt_duration(seconds: float) -> str:
    seconds = max(seconds, 0.0)
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"
