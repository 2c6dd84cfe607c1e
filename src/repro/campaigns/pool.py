"""Per-finding triage in worker processes while the hunt goes on.

Triaging one finding (reduce, shrink, attribute; paper §4.1) depends on
nothing but that finding, so findings can be triaged in any order and
on any core.  A :class:`TriagePool` hands each completed round's
findings to a :class:`concurrent.futures.ProcessPoolExecutor` as soon
as the round ends, so triage overlaps the rest of the hunt, and gives
the results back one report at a time, in whatever order the campaign
asks (round order).

* The pool has one worker per CPU this process may run on
  (``os.sched_getaffinity``) and starts at the first finding.  A hunt
  without findings, or with one usable CPU, never imports
  ``multiprocessing``; :meth:`TriagePool.take` then returns None and the
  caller triages in its own process.
* Workers are forked, so they inherit the imported engine for free,
  unless another thread is alive (``--serve``'s status server,
  ``--progress``'s reporter): a fork copies only the forking thread,
  and any lock another thread held stays held in the child (Python
  3.12 warns about it).  Then the workers come from a ``forkserver``.
  The task takes picklable inputs only, so both start methods run it
  alike.
* When a worker dies (the pool breaks) or the workers cannot be
  started, the pool is given up, which is counted in
  ``pqs_triage_worker_failures_total{reason}``, and every finding not
  yet taken is triaged in the caller's process: none is lost.  An
  exception raised by the task itself reaches the caller of
  :meth:`TriagePool.take` unchanged.
* Workers ignore SIGINT.  A Ctrl-C interrupts the campaign, whose
  :meth:`TriagePool.close` cancels the queued tasks, lets the running
  ones finish and joins the workers.  A worker whose parent dies
  without joining it (``kill -9``) exits at once.
"""

from __future__ import annotations

import os
import signal
import threading
from typing import Callable, Optional

from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry import names as metric_names


def usable_cpus() -> int:
    """CPUs this process may run on (1 where affinity is unknown)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else 1


def _init_worker() -> None:
    """Ignore SIGINT, and exit when the campaign's process dies: one
    killed by a signal never joins its workers, which would otherwise
    wait for tasks forever."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    import multiprocessing

    threading.Thread(target=_exit_with,
                     args=(multiprocessing.parent_process().sentinel,),
                     daemon=True).start()


def _exit_with(parent_sentinel) -> None:
    from multiprocessing.connection import wait

    wait([parent_sentinel])
    os._exit(1)


class TriagePool:
    """Runs ``task(*args, report)`` for submitted reports in worker
    processes; see the module docstring."""

    def __init__(self, task: Callable, args: tuple,
                 telemetry: Optional[Telemetry] = None):
        self.task = task
        self.args = args
        self.telemetry = telemetry or NULL_TELEMETRY
        self._executor = None
        #: id(report) -> (report, future); holding the report keeps
        #: its id from being reused while the future is pending.
        self._futures: dict[int, tuple] = {}
        #: Set when there is one usable CPU or the pool was given up:
        #: triage stays in the caller's process until :meth:`close`.
        self._inline = False

    def submit(self, reports) -> None:
        """Queue one round's findings, starting the pool if need be."""
        if not reports or self._inline:
            return
        if self._executor is None:
            workers = usable_cpus()
            if workers < 2:
                self._inline = True
                return
            try:
                self._executor = self._start(workers)
            except OSError:
                self._give_up("start_failed")
                return
        from concurrent.futures.process import BrokenProcessPool

        try:
            for report in reports:
                future = self._executor.submit(self.task, *self.args,
                                               report)
                self._futures[id(report)] = (report, future)
        except BrokenProcessPool:
            self._give_up("worker_died")
        except OSError:  # forking the workers failed
            self._give_up("start_failed")

    def take(self, report):
        """The task's result for *report*, or None when the caller must
        triage it itself (never submitted, or the pool was given up)."""
        entry = self._futures.pop(id(report), None)
        if entry is None:
            return None
        from concurrent.futures.process import BrokenProcessPool

        try:
            return entry[1].result()
        except BrokenProcessPool:
            self._give_up("worker_died")
            return None

    def close(self) -> None:
        """Cancel queued tasks and join the workers; a later
        :meth:`submit` starts a new pool."""
        self._shutdown()
        self._inline = False

    # -- internals ------------------------------------------------------------
    def _start(self, workers: int):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if threading.active_count() == 1:
            context = multiprocessing.get_context("fork")
        else:
            context = multiprocessing.get_context("forkserver")
            context.set_forkserver_preload([self.task.__module__])
        return ProcessPoolExecutor(workers, mp_context=context,
                                   initializer=_init_worker)

    def _give_up(self, reason: str) -> None:
        self.telemetry.counter(metric_names.TRIAGE_WORKER_FAILURES,
                               reason=reason).inc()
        self._shutdown()
        self._inline = True

    def _shutdown(self) -> None:
        executor, self._executor = self._executor, None
        self._futures.clear()
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)
