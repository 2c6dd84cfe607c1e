"""Fault-isolated execution: run any target connection in a child process.

The paper's crash oracle (§2, §3.4) presumes the tester *outlives* a
SEGFAULT of the system under test.  In-process adapters cannot provide
that: a real crash (or an infinite-loop query) takes the whole campaign
down with it.  :class:`SubprocessConnection` restores the paper's
process boundary in pure stdlib Python:

* the target connection runs in a **child process**
  (:mod:`repro.adapters.subprocess_worker`) and is driven over one pipe
  protocol: each request carries one statement, and every frame in
  either direction is a 4-byte big-endian length followed by a pickle
  (result cells pickle compactly through ``Value.__reduce__``);
* child death — a real segfault, an ``os._exit``, an OOM kill —
  surfaces as :class:`~repro.errors.DBCrash`, making the crash oracle
  real for live targets;
* a per-statement **watchdog deadline** kills a hung child and raises
  :class:`~repro.errors.DBTimeout`;
* after a crash or timeout the harness transparently **restarts** the
  worker and **replays** the log of previously-successful statements to
  restore database state, under a bounded retry budget with exponential
  backoff (:class:`~repro.errors.HarnessError` when exhausted);
* a worker **outlives its connection**: :meth:`SubprocessConnection.close`
  parks a healthy worker, the next connection's ``hello`` frame
  re-targets it (a fresh target from that connection's factory), and
  parked workers are closed and reaped at interpreter exit.  Only a
  crash, a watchdog kill or a failed handshake costs a new process;
* a new worker is **forked** from this process, which already holds
  every module the worker needs, unless another thread is alive or the
  platform has no ``fork``: then it is a fresh interpreter running
  ``python -m repro.adapters.subprocess_worker``.  Either start gives a
  handle with ``Popen``'s ``pid``, ``stdin``, ``stdout``, ``poll``,
  ``wait`` and ``kill``, so everything after the start is one code path.

Replay assumes the target executes statements deterministically — true
for SQLite, MiniDB and every fault-plan wrapper in this repo.  A
statement that crashed or timed out is *not* replayed: the next
incarnation resumes from the last known-good state, and the fault
schedule offset (see :mod:`repro.adapters.faults`) advances past it so a
deterministic fault does not re-fire forever.
"""

from __future__ import annotations

import atexit
import faulthandler
import os
import pickle
import select
import signal
import struct
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path
from typing import Any, Callable, Optional, Union

from repro.errors import (
    CatalogError,
    ConstraintError,
    DBCrash,
    DBError,
    DBTimeout,
    HarnessError,
    IntegrityError,
    ParseError,
    TypeError_,
    UnsupportedError,
)
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry import names as metric_names
from repro.values import Value

_HEADER = struct.Struct("!I")

#: DBError subclasses the worker may report by name.
_ERROR_TYPES = {cls.__name__: cls for cls in (
    DBError, ParseError, CatalogError, TypeError_, ConstraintError,
    IntegrityError, UnsupportedError, DBTimeout)}


def write_frame(stream, obj: Any) -> None:
    """Write one length-prefixed pickle frame (shared with the worker)."""
    body = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    stream.write(_HEADER.pack(len(body)) + body)
    stream.flush()


def read_frame(stream) -> Any:
    """Blocking read of one frame (worker side; parent reads use select)."""
    header = _read_exact(stream, _HEADER.size)
    (length,) = _HEADER.unpack(header)
    return pickle.loads(_read_exact(stream, length))


def _read_exact(stream, n: int) -> bytes:
    parts = []
    got = 0
    while got < n:
        chunk = stream.read(n - got)
        if not chunk:
            raise EOFError("pipe closed")
        parts.append(chunk)
        got += len(chunk)
    return b"".join(parts)


class _ForkedWorker:
    """A worker started by :func:`_fork_worker`: the part of
    :class:`subprocess.Popen`'s interface this module uses."""

    def __init__(self, pid: int, stdin, stdout):
        self.pid = pid
        self.stdin = stdin
        self.stdout = stdout
        self.returncode: Optional[int] = None

    def poll(self) -> Optional[int]:
        if self.returncode is None:
            self._waitpid(os.WNOHANG)
        return self.returncode

    def wait(self, timeout: Optional[float] = None) -> int:
        if timeout is None:
            if self.returncode is None:
                self._waitpid(0)
            return self.returncode
        deadline = time.monotonic() + timeout
        delay = 0.0005
        while self.poll() is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise subprocess.TimeoutExpired(f"worker {self.pid}",
                                                timeout)
            delay = min(delay * 2, remaining, 0.05)
            time.sleep(delay)
        return self.returncode

    def _waitpid(self, options: int) -> None:
        try:
            pid, status = os.waitpid(self.pid, options)
        except ChildProcessError:
            # Reaped elsewhere (SIGCHLD ignored): the status is lost,
            # and Popen reports 0 then too.
            self.returncode = 0
            return
        if pid:
            self.returncode = os.waitstatus_to_exitcode(status)

    def kill(self) -> None:
        if self.poll() is None:
            os.kill(self.pid, signal.SIGKILL)


_Worker = Union[subprocess.Popen, _ForkedWorker]

#: Healthy workers parked by :meth:`SubprocessConnection.close` for the
#: next connection to re-target; see :func:`_reap_idle`.
_idle: list[_Worker] = []
_idle_lock = threading.Lock()
#: Every worker whose pipes are open here, parked or in use.
_live: weakref.WeakSet[_Worker] = weakref.WeakSet()


def _take_idle() -> Optional[_Worker]:
    """A parked worker that is still alive, or None."""
    with _idle_lock:
        while _idle:
            proc = _idle.pop()
            if proc.poll() is None:
                return proc
            _close_pipes(proc)
    return None


@atexit.register
def _reap_idle() -> None:
    """Close every parked worker and wait for it, so its CPU time and
    peak RSS count in this process's child rusage.  A worker whose
    parent was killed instead exits on EOF."""
    with _idle_lock:
        procs, _idle[:] = _idle[:], []
    for proc in procs:
        try:
            write_frame(proc.stdin, {"op": "close"})
            proc.wait(timeout=5)
        except (OSError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()
        finally:
            _close_pipes(proc)


# A forked child must not share the parent's workers or their pipes.
os.register_at_fork(after_in_child=_idle.clear)


class _DeadlineExceeded(Exception):
    """Internal: the watchdog deadline expired mid-read."""


class _WorkerDied(Exception):
    """Internal: the child process is gone (EOF / broken pipe)."""

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


#: Watchdog deadline per statement, seconds, when the connection is
#: given none.
STATEMENT_TIMEOUT = 10.0
#: Deadline for worker startup + handshake.
STARTUP_TIMEOUT = 30.0
#: Consecutive failed restore attempts tolerated per recovery episode
#: before :class:`~repro.errors.HarnessError`.
MAX_RESTARTS = 5
#: Exponential backoff between failed restore attempts:
#: ``BACKOFF_BASE * BACKOFF_FACTOR ** (failures - 1)`` seconds.
BACKOFF_BASE = 0.05
BACKOFF_FACTOR = 2.0


class SubprocessConnection:
    """A :class:`~repro.adapters.base.DBMSConnection` with a process moat.

    ``factory`` is any picklable zero-argument callable returning a
    connection (e.g. the :class:`SQLite3Connection` class itself, or a
    :class:`~repro.adapters.faults.FaultyFactory`).  The worker must be
    able to import it, so a factory defined in ``__main__`` is refused
    with :class:`~repro.errors.HarnessError` before any worker starts:
    a forked worker would unpickle it, an exec-started one could not,
    and which start a worker gets depends on the thread count.  A
    factory exposing
    ``accepts_offset = True`` is instead called with ``offset=<fresh
    statement count>`` so deterministic fault schedules keep their place
    across restarts.

    ``statement_timeout`` is the per-statement watchdog deadline in
    seconds; None means :data:`STATEMENT_TIMEOUT`.

    The worker process is borrowed, not owned: a healthy one is parked
    on :meth:`close` and re-targeted by the next connection's handshake.
    """

    def __init__(self, factory: Callable[[], Any],
                 statement_timeout: Optional[float] = None,
                 telemetry: Optional[Telemetry] = None):
        if "__main__" in (getattr(factory, "__module__", None),
                          type(factory).__module__):
            name = getattr(factory, "__qualname__",
                           type(factory).__qualname__)
            raise HarnessError(
                f"connection factory {name!r} is defined in __main__; "
                f"it must be importable by the worker (define it in a "
                f"module)")
        self.factory = factory
        self.statement_timeout = (STATEMENT_TIMEOUT
                                  if statement_timeout is None
                                  else statement_timeout)
        self.telemetry = telemetry or NULL_TELEMETRY
        self.dialect = "sqlite"  # refined by the handshake
        self._proc: Optional[_Worker] = None
        #: A request was sent whose reply has not been read: the pipe is
        #: out of step, so the worker must not be parked.
        self._pending = False
        self._log: list[str] = []
        #: Fresh (non-replay) statements attempted — the fault offset.
        self._fresh = 0
        t = self.telemetry
        self._metered = t.registry.enabled
        self._m_restarts = t.counter(metric_names.WORKER_RESTARTS)
        self._m_watchdog = t.counter(metric_names.WATCHDOG_KILLS)
        self._m_replay = t.histogram(metric_names.REPLAY_STATEMENTS,
                                     buckets=metric_names.COUNT_BUCKETS)
        self._m_roundtrip = t.histogram(metric_names.ROUNDTRIP_SECONDS)
        self._m_bytes_out = t.counter(metric_names.PIPE_BYTES_SENT)
        self._m_bytes_in = t.counter(metric_names.PIPE_BYTES_RECEIVED)
        self._started = False
        self._restore()

    # -- DBMSConnection -----------------------------------------------------
    def execute(self, sql: str) -> list[tuple[Value, ...]]:
        rows = self._call({"op": "execute", "sql": sql}, "statement", sql,
                          fresh=True)
        self._log.append(sql)
        return rows

    def forced_plan(self, sql: str, hints) -> list:
        """Forward forced-plan planning to the worker's target.

        Lets plan-coverage guidance and the multi-plan oracle drive an
        isolated target.  Unlike ``execute``, planning is *not* appended to the replay log
        (EXPLAIN mutates nothing) and does not advance the
        fault-schedule offset.
        """
        return self._call({"op": "forced_plan", "sql": sql,
                           "hints": hints}, "forced-plan planning", sql)

    def with_plan(self, sql: str, hints) -> Any:
        """Forward a forced-plan execution to the worker's target.

        The same rules as :meth:`forced_plan`: a restart replays exactly
        the statements the unforced stream executed.
        """
        return self._call({"op": "with_plan", "sql": sql, "hints": hints},
                          "forced-plan execution", sql)

    def index_candidates(self, tables: list) -> Any:
        """Forward index enumeration to the worker's target (same
        non-logging rules as ``forced_plan``)."""
        return self._call({"op": "index_candidates", "tables": list(tables)},
                          "index enumeration", repr(tables))

    def _call(self, message: dict, what: str, detail: str,
              fresh: bool = False) -> Any:
        """Send one request and classify its reply: the rows, or the
        DBError/DBCrash/DBTimeout/HarnessError it stands for.  A *fresh*
        statement advances the fault-schedule offset and is timed."""
        if self._proc is None:
            self._restore()
        if fresh:
            self._fresh += 1
        t0 = time.monotonic() if self._metered else 0.0
        try:
            reply = self._request(message, self.statement_timeout)
        except _WorkerDied as died:
            raise DBCrash(died.message) from None
        except _DeadlineExceeded:
            self._kill()
            self._m_watchdog.inc()
            raise DBTimeout(
                f"{what} exceeded {self.statement_timeout:.3g}s "
                f"watchdog deadline: {detail[:120]}") from None
        if fresh and self._metered:
            self._m_roundtrip.observe(time.monotonic() - t0)
        if "ok" in reply:
            return reply["ok"]
        if "error" in reply:
            name, message_text = reply["error"]
            raise _ERROR_TYPES.get(name, DBError)(message_text)
        if "crash" in reply:
            # The worker announced a simulated crash and is exiting; reap
            # it so the next call triggers restore.
            self._drain_dead_worker()
            raise DBCrash(reply["crash"])
        self._kill()
        if "fatal" in reply:
            raise HarnessError(f"worker failed internally:\n{reply['fatal']}")
        raise HarnessError(f"unintelligible worker reply: {reply!r}")

    def close(self) -> None:
        """Park a healthy worker for the next connection; kill one that
        is mid-request."""
        if self._pending:
            self._kill()
            return
        proc, self._proc = self._proc, None
        if proc is not None:
            with _idle_lock:
                _idle.append(proc)

    # -- introspection ------------------------------------------------------
    @property
    def statements_replayed(self) -> int:
        """Length of the state-restoration log (successful statements)."""
        return len(self._log)

    @property
    def worker_pid(self) -> Optional[int]:
        return self._proc.pid if self._proc is not None else None

    # -- recovery -----------------------------------------------------------
    def _restore(self) -> None:
        """(Re)start the worker and replay state, with bounded retries."""
        if self._started:
            # Anything past the constructor's initial spawn is a
            # restart — a crash or watchdog kill already happened.
            self._m_restarts.inc()
        failures = 0
        while True:
            try:
                self._spawn()
                self._replay()
                self._started = True
                return
            except (_WorkerDied, _DeadlineExceeded, EOFError,
                    OSError) as exc:
                self._kill()
                failures += 1
                if failures >= MAX_RESTARTS:
                    raise HarnessError(
                        f"target did not survive {failures} restore "
                        f"attempt(s): {exc!r}") from None
                time.sleep(BACKOFF_BASE * BACKOFF_FACTOR ** (failures - 1))
            except BaseException:
                # A worker left mid-recovery is never parked.
                self._kill()
                raise

    def _spawn(self) -> None:
        """Re-target a parked worker, or start one; the ``hello`` frame
        builds a fresh target from the factory either way."""
        self._proc = _take_idle() or _start_worker()
        hello = {"op": "hello", "factory": self.factory,
                 "offset": self._fresh}
        reply = self._request(hello, STARTUP_TIMEOUT)
        if isinstance(reply, dict) and "fatal" in reply:
            # The factory raised: a tool bug, which no restart mends.
            raise HarnessError(
                f"connection factory failed in the worker:\n"
                f"{reply['fatal']}")
        if not isinstance(reply, dict) or "dialect" not in reply:
            raise _WorkerDied(f"bad handshake reply: {reply!r}")
        self.dialect = reply["dialect"]

    def _replay(self) -> None:
        if self._metered and self._started:
            self._m_replay.observe(len(self._log))
        for sql in self._log:
            reply = self._request({"op": "replay", "sql": sql},
                                  self.statement_timeout)
            if "ok" not in reply:
                # A statement that succeeded before now errors: the
                # target diverged — retrying cannot help.
                raise HarnessError(
                    f"state replay diverged on {sql[:120]!r}: {reply!r}")

    # -- protocol plumbing --------------------------------------------------
    def _request(self, message: dict, timeout: float) -> Any:
        self._send(message)
        try:
            reply = self._recv(timeout)
        except EOFError:
            raise self._reap("read") from None
        self._pending = False
        return reply

    def _send(self, message: dict) -> None:
        assert self._proc is not None
        body = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        self._m_bytes_out.inc(_HEADER.size + len(body))
        self._pending = True
        try:
            stdin = self._proc.stdin
            stdin.write(_HEADER.pack(len(body)) + body)
            stdin.flush()
        except (BrokenPipeError, OSError):
            raise self._reap("write") from None

    def _recv(self, timeout: float) -> Any:
        deadline = time.monotonic() + timeout
        header = self._read_deadline(_HEADER.size, deadline)
        (length,) = _HEADER.unpack(header)
        body = self._read_deadline(length, deadline)
        self._m_bytes_in.inc(_HEADER.size + length)
        return pickle.loads(body)

    def _read_deadline(self, n: int, deadline: float) -> bytes:
        """Read exactly *n* bytes from the worker's stdout before *deadline*.

        Uses the raw file descriptor (never the buffered reader) so
        ``select`` sees exactly what has not been consumed.
        """
        assert self._proc is not None and self._proc.stdout is not None
        fd = self._proc.stdout.fileno()
        parts: list[bytes] = []
        got = 0
        while got < n:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise _DeadlineExceeded()
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                raise _DeadlineExceeded()
            chunk = os.read(fd, n - got)
            if not chunk:
                raise EOFError("worker closed the pipe")
            parts.append(chunk)
            got += len(chunk)
        return b"".join(parts)

    # -- worker lifecycle ---------------------------------------------------
    def _reap(self, during: str) -> _WorkerDied:
        """The child is gone; collect its exit status into a message."""
        proc, self._proc = self._proc, None
        code: Optional[int] = None
        if proc is not None:
            try:
                code = proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                code = proc.wait()
            _close_pipes(proc)
        return _WorkerDied(
            f"target worker died during {during} ({_describe_exit(code)})")

    def _drain_dead_worker(self) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        _close_pipes(proc)

    def _kill(self) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        proc.kill()
        proc.wait()
        _close_pipes(proc)


def _start_worker() -> _Worker:
    """Start a worker: by fork when this process runs one thread (a
    fork copies only the forking thread, so a lock another thread held
    would stay held in the child), by exec otherwise."""
    if hasattr(os, "fork") and threading.active_count() == 1:
        worker = _fork_worker()
    else:
        worker = _exec_worker()
    _live.add(worker)
    return worker


def _exec_worker() -> subprocess.Popen:
    src_dir = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (src_dir if not existing
                         else src_dir + os.pathsep + existing)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.adapters.subprocess_worker"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, env=env)


def _fork_worker() -> _ForkedWorker:
    """Fork a worker that serves the protocol on a fresh pipe pair.

    The child keeps nothing of the parent's I/O: fds 0-2 point at
    ``/dev/null`` (the exec start's worker has no stderr either), and it
    closes its copies of every other worker's pipes, so that only this
    process holds them and each worker sees EOF the moment it dies.  It
    leaves only by ``os._exit``, so it never flushes the parent's stdio
    buffers or runs the parent's ``atexit`` hooks.
    """
    from repro.adapters.subprocess_worker import main

    inherited = list(_live)
    request_r, request_w = os.pipe()
    reply_r, reply_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (request_r, request_w, reply_r, reply_w):
            os.close(fd)
        raise
    if pid == 0:  # pragma: no cover - runs in the worker child
        code = 1
        try:
            # It may hold a copy of the parent's stderr (pytest's does).
            faulthandler.disable()
            null = os.open(os.devnull, os.O_RDWR)
            for fd in (0, 1, 2):
                os.dup2(null, fd)
            if null > 2:
                os.close(null)
            os.close(request_w)
            os.close(reply_r)
            for worker in inherited:
                _close_pipes(worker)
            code = main(os.fdopen(request_r, "rb"),
                        os.fdopen(reply_w, "wb"))
        finally:
            os._exit(code)
    os.close(request_r)
    os.close(reply_w)
    return _ForkedWorker(pid, os.fdopen(request_w, "wb"),
                         os.fdopen(reply_r, "rb"))


def _close_pipes(proc: _Worker) -> None:
    _live.discard(proc)
    for stream in (proc.stdin, proc.stdout):
        if stream is not None:
            try:
                stream.close()
            except OSError:
                pass


def _describe_exit(code: Optional[int]) -> str:
    if code is None:
        return "exit status unknown"
    if code < 0:
        try:
            name = signal.Signals(-code).name
        except ValueError:
            name = f"signal {-code}"
        return f"killed by {name}"
    return f"exit code {code}"
