"""How an isolated worker starts: forked from a single-threaded parent,
a fresh interpreter (exec) when another thread is alive.  Both starts
must serve the same statement stream, leave the parent's stdio alone
and die with a killed parent.

Each case runs in a fresh interpreter: the test process itself may have
threads alive, and which start a worker gets depends on that.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"
MODES = ("fork", "exec")

#: Runs first in every script: ``argv[1]`` picks the start, and
#: ``starts`` counts the workers each start made.
PRELUDE = """
import json, os, sys, threading
from repro.adapters import subprocess_adapter as adapter

if sys.argv[1] == "exec":
    # A live thread makes the adapter start its workers by exec.
    threading.Thread(target=threading.Event().wait, daemon=True).start()
starts = {"fork": 0, "exec": 0}
for kind in starts:
    def counted(plain=getattr(adapter, f"_{kind}_worker"), kind=kind):
        starts[kind] += 1
        return plain()
    setattr(adapter, f"_{kind}_worker", counted)
"""


def run_script(script: str, mode: str, *args: str,
               check: bool = True) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # Block-buffered stdout, as a piped command has by default.
    env.pop("PYTHONUNBUFFERED", None)
    code = PRELUDE + textwrap.dedent(script)
    # Python 3.12 warns when a threaded process forks: show the warning.
    done = subprocess.run([sys.executable, "-W", "always::DeprecationWarning",
                           "-c", code, mode, *args],
                          env=env, capture_output=True, timeout=120)
    if check:
        assert done.returncode == 0, done.stderr.decode()
    return done


def started_only_by(starts: dict, mode: str) -> bool:
    other = "exec" if mode == "fork" else "fork"
    return starts[mode] > 0 and starts[other] == 0


CLI = """
from repro import cli
code = cli.main(["sqlite", "--isolate"] + sys.argv[2:])
sys.stdout.flush()
print(json.dumps({"exit": code, "starts": starts}), file=sys.stderr)
"""


@pytest.mark.parametrize("args", [
    ("--databases", "10", "--seed", "0"),
    ("--databases", "10", "--seed", "42003"),
    ("--multiplan", "--databases", "5", "--seed", "0"),
    ("--databases", "10", "--seed", "7"),
])
def test_cli_stdout_is_identical_on_both_starts(args):
    stdouts = []
    for mode in MODES:
        done = run_script(CLI, mode, *args)
        *warnings, last = done.stderr.decode().splitlines()
        assert warnings == []
        result = json.loads(last)
        assert result["exit"] == 0
        assert started_only_by(result["starts"], mode), result
        stdouts.append(done.stdout)
    assert stdouts[0] == stdouts[1]
    assert stdouts[0].startswith(b"databases=")


FAULTY_RUN = """
from repro.adapters.faults import FaultPlan, FaultyFactory
from repro.adapters.sqlite3_adapter import SQLite3Connection
from repro.core.error_oracle import SQLITE3_DOCUMENTED_QUIRKS
from repro.core.runner import PQSRunner, RunnerConfig
from repro.telemetry import Telemetry, names

plan = FaultPlan(crash_at=(12,), hang_at=(25,), hang_seconds=60)
adapter.BACKOFF_BASE = 0.01
telemetry = Telemetry()

def factory():
    return adapter.SubprocessConnection(
        FaultyFactory(SQLite3Connection, plan), 0.4, telemetry)

runner = PQSRunner(factory,
                   RunnerConfig(dialect="sqlite", seed=3,
                                documented_quirks=SQLITE3_DOCUMENTED_QUIRKS),
                   telemetry=telemetry)
stats = runner.run(3)
counters = {k: v for k, v in vars(stats).items()
            if k not in ("seconds", "reports")}
print(json.dumps({
    "stats": counters,
    "reports": [report.to_json() for report in stats.reports],
    "restarts": telemetry.registry.value(names.WORKER_RESTARTS),
    "starts": starts}))
"""


def test_crashes_and_hangs_are_handled_alike_on_both_starts():
    results = {}
    for mode in MODES:
        result = json.loads(run_script(FAULTY_RUN, mode).stdout)
        assert started_only_by(result.pop("starts"), mode)
        results[mode] = result
    assert results["fork"] == results["exec"]
    fork = results["fork"]
    # One injected crash and one hang per round, each answered by a
    # restart; every restart is a new worker.
    assert fork["stats"]["databases"] == 3
    assert fork["stats"]["timeouts"] == 3
    assert fork["restarts"] == 6
    assert sum(report["oracle"] == "segfault"
               for report in fork["reports"]) == 3


QUIET = """
import faulthandler, signal
from repro.adapters.sqlite3_adapter import SQLite3Connection
from repro.errors import DBCrash

# A traceback dumper on a copy of stderr, as pytest installs one.
faulthandler.enable(os.fdopen(os.dup(2), "w"))
# Still in this process's stdout buffer when the workers are forked.
sys.stdout.write("written once\\n")
adapter.BACKOFF_BASE = 0.01
conn = adapter.SubprocessConnection(SQLite3Connection)
conn.execute("CREATE TABLE t(a)")
os.kill(conn.worker_pid, signal.SIGSEGV)
crashed = ""
try:
    conn.execute("INSERT INTO t VALUES (1)")
except DBCrash as crash:
    crashed = crash.message
assert "SIGSEGV" in crashed, crashed
conn.execute("INSERT INTO t VALUES (2)")  # on a restarted worker
conn.close()  # parked, closed at exit
sys.stdout.write(json.dumps(starts) + "\\n")
"""


def test_forked_worker_writes_nothing_to_the_parents_streams():
    done = run_script(QUIET, "fork")
    text, starts = done.stdout.decode().splitlines()
    assert text == "written once"
    assert started_only_by(json.loads(starts), "fork")
    assert done.stderr == b""


KILLED_PARENT = """
import signal
from repro.adapters.sqlite3_adapter import SQLite3Connection

def pipes(pid):
    # Inodes of the pipes process *pid* holds open.
    links = [os.readlink(f"/proc/{pid}/fd/{fd}")
             for fd in os.listdir(f"/proc/{pid}/fd")]
    return sorted(int(link[6:-1]) for link in links
                  if link.startswith("pipe:["))

def own(worker):
    return sorted(os.fstat(stream.fileno()).st_ino
                  for stream in (worker.stdin, worker.stdout))

parked = adapter.SubprocessConnection(SQLite3Connection)
in_use = adapter.SubprocessConnection(SQLite3Connection)
in_use.execute("CREATE TABLE t(a)")
parked.close()
third = adapter._start_worker()
# A reply shows the third worker is serving, its fds set up.
adapter.write_frame(third.stdin, {"op": "hello", "offset": 0,
                                  "factory": SQLite3Connection})
assert "dialect" in adapter.read_frame(third.stdout)
workers = adapter._idle + [in_use._proc, third]
print(json.dumps({
    "starts": starts,
    "pids": [worker.pid for worker in workers],
    "own": [own(worker) for worker in workers],
    "held": [pipes(worker.pid) for worker in workers],
    "stdio": [[os.readlink(f"/proc/{worker.pid}/fd/{fd}") for fd in (0, 1, 2)]
              for worker in workers]}), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def exited(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.fixture(scope="module", params=MODES)
def killed_parent(request):
    """Three workers (one parked, one in use, one just started) whose
    parent then SIGKILLs itself."""
    done = run_script(KILLED_PARENT, request.param, check=False)
    assert done.returncode == -signal.SIGKILL, done.stderr.decode()
    result = json.loads(done.stdout)
    result["mode"] = request.param
    return result


needs_proc = pytest.mark.skipif(not Path("/proc/self/fd").exists(),
                                reason="reads process state from /proc")


@needs_proc
def test_killed_parent_leaves_no_worker(killed_parent):
    assert started_only_by(killed_parent["starts"], killed_parent["mode"])
    pids = killed_parent["pids"]
    assert len(set(pids)) == 3
    deadline = time.monotonic() + 5
    while not all(exited(pid) for pid in pids):
        assert time.monotonic() < deadline, "a worker outlived its parent"
        time.sleep(0.05)


@needs_proc
def test_worker_holds_only_its_own_pipes(killed_parent):
    # The worker ends of a worker's pipes share the parent ends' inodes.
    assert killed_parent["held"] == killed_parent["own"]


@needs_proc
def test_worker_stdio_reaches_no_parent_stream(killed_parent):
    for stdin, stdout, stderr in killed_parent["stdio"]:
        assert stderr == "/dev/null"
        if killed_parent["mode"] == "fork":
            assert stdin == stdout == "/dev/null"
        else:  # the exec start's worker serves its stdin and stdout
            assert stdin.startswith("pipe:[") and stdout.startswith("pipe:[")


MAIN_FACTORY = """
from repro.adapters.sqlite3_adapter import SQLite3Connection
from repro.errors import HarnessError

class Factory:  # defined in __main__, which an exec-started worker lacks
    def __call__(self):
        return SQLite3Connection()

calls = []
plain = adapter._start_worker
adapter._start_worker = lambda: calls.append(1) or plain()
try:
    adapter.SubprocessConnection(Factory())
    error = None
except HarnessError as refused:
    error = str(refused)
print(json.dumps({"error": error, "start_worker": len(calls),
                  "starts": starts}))
"""


def test_main_factory_is_refused_before_a_worker_starts():
    results = [json.loads(run_script(MAIN_FACTORY, mode).stdout)
               for mode in MODES]
    assert results[0] == results[1]
    assert "must be importable by the worker" in results[0]["error"]
    assert results[0]["start_worker"] == 0
    assert results[0]["starts"] == {"fork": 0, "exec": 0}


def test_main_function_factory_is_refused(monkeypatch):
    from repro.adapters import subprocess_adapter as adapter
    from repro.adapters.sqlite3_adapter import SQLite3Connection
    from repro.errors import HarnessError

    def factory():
        return SQLite3Connection()

    factory.__module__ = "__main__"
    monkeypatch.setattr(adapter, "_start_worker", pytest.fail)
    with pytest.raises(HarnessError, match="importable by the worker"):
        adapter.SubprocessConnection(factory)
