"""Triage in a process pool: the same reports, telemetry and exits as
triage in the campaign's own process.

Each path is pinned through the CPU affinity the pool is sized by: one
usable CPU triages in-process, two start a pool of two workers.  The
pool forks, so the tests' monkeypatches reach its workers; the tests
that rely on that first check that no other thread is alive (which
would switch the pool to a forkserver).
"""

from __future__ import annotations

import errno
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.campaigns.campaign import Campaign, CampaignConfig
from repro.campaigns.pool import TriagePool
from repro.campaigns.replay import DifferentialReplayer
from repro.core import shrink
from repro.core.runner import PQSRunner, RunnerConfig
from repro.errors import DBError
from repro.multiplan import MultiPlanReplayer
from repro.telemetry import Telemetry, names

from tests.campaigns.test_triage_golden import CAMPAIGNS

ROOT = Path(__file__).resolve().parents[2]


def pin(monkeypatch, cpus: int) -> None:
    """Pin the CPU count the pool is sized by."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)


@pytest.fixture
def taken(monkeypatch) -> list:
    """Every result the pool hands back (none when triage stays in the
    campaign's process)."""
    results: list = []
    plain = TriagePool.take

    def take(self, report):
        triaged = plain(self, report)
        if triaged is not None:
            results.append(triaged)
        return triaged

    monkeypatch.setattr(TriagePool, "take", take)
    return results


def run(dialect="sqlite", seed=0, databases=8, multiplan=True, **config):
    return Campaign(CampaignConfig(
        dialect=dialect, seed=seed, databases=databases,
        runner=RunnerConfig(multiplan=multiplan), **config)).run()


def as_json(result) -> tuple:
    return ([r.to_json() for r in result.reports],
            [r.to_json() for r in result.unattributed])


def forks() -> bool:
    return threading.active_count() == 1


@pytest.mark.parametrize("name,dialect,seed,databases,multiplan",
                         CAMPAIGNS, ids=[c[0] for c in CAMPAIGNS])
def test_pool_matches_inline(monkeypatch, taken, name, dialect, seed,
                             databases, multiplan):
    pin(monkeypatch, 1)
    inline = run(dialect, seed, databases, multiplan)
    assert taken == []
    pin(monkeypatch, 2)
    pooled = run(dialect, seed, databases, multiplan)
    assert len(taken) == len(pooled.stats.reports) > 0
    assert as_json(pooled) == as_json(inline)
    assert multiprocessing.active_children() == []


def test_forkserver_pool_matches_inline(monkeypatch, taken):
    # Another live thread switches the pool to a forkserver, whose
    # workers import the task instead of inheriting it.
    pin(monkeypatch, 1)
    inline = run()
    pin(monkeypatch, 2)
    methods: list = []
    plain = multiprocessing.get_context

    def get_context(method=None):
        methods.append(method)
        return plain(method)

    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)
    waiter.start()
    try:
        pooled = run()
    finally:
        stop.set()
        waiter.join()
    assert methods == ["forkserver"]
    assert len(taken) == len(pooled.stats.reports) > 0
    assert as_json(pooled) == as_json(inline)
    assert multiprocessing.active_children() == []


def test_telemetry_comes_back_from_the_workers(monkeypatch, taken):
    assert forks()

    def unparseable(sql):
        raise DBError("unparseable here")

    # Every reduced final query is left unshrunk, in workers too.
    monkeypatch.setattr(shrink, "parse_statement", unparseable)
    counts = []
    for cpus in (1, 2):
        pin(monkeypatch, cpus)
        taken.clear()
        telemetry = Telemetry()
        result = run(telemetry=telemetry)
        assert bool(taken) == (cpus == 2)
        registry = telemetry.registry
        counts.append((
            registry.histogram(names.PHASE_SECONDS,
                               phase=names.PHASE_REDUCE).count,
            registry.counter(names.REDUCE_UNSHRUNK,
                             reason="unparseable").value,
            len(result.stats.reports)))
    inline, pooled = counts
    assert pooled == inline
    assert inline[0] == inline[2] > 0 and inline[1] > 0


@pytest.mark.parametrize("reason", ["worker_died", "start_failed"])
def test_no_finding_is_lost_when_the_pool_is(monkeypatch, taken, reason):
    assert forks()
    pin(monkeypatch, 1)
    undisturbed = run()
    if reason == "start_failed":
        def fork():
            raise BlockingIOError(errno.EAGAIN, "no fork today")

        monkeypatch.setattr(os, "fork", fork)
    else:  # every worker is killed by its first replay
        parent = os.getpid()
        for cls, attr in ((DifferentialReplayer, "manifests"),
                          (MultiPlanReplayer, "diverges")):
            plain = getattr(cls, attr)

            def dying(self, *args, plain=plain):
                if os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
                return plain(self, *args)

            monkeypatch.setattr(cls, attr, dying)
    pin(monkeypatch, 2)
    telemetry = Telemetry()
    disturbed = run(telemetry=telemetry)
    assert taken == []  # every finding was triaged in this process
    assert as_json(disturbed) == as_json(undisturbed)
    failures = telemetry.registry.counter(names.TRIAGE_WORKER_FAILURES,
                                          reason=reason)
    assert failures.value == 1
    assert multiprocessing.active_children() == []


def test_a_triage_exception_reaches_the_caller(monkeypatch):
    assert forks()

    def broken(self, test_case, *args):
        raise ZeroDivisionError("inside triage")

    monkeypatch.setattr(DifferentialReplayer, "manifests", broken)
    monkeypatch.setattr(MultiPlanReplayer, "diverges", broken)
    for cpus in (1, 2):
        pin(monkeypatch, cpus)
        with pytest.raises(ZeroDivisionError, match="inside triage"):
            run()
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("exit_with", [None, RuntimeError,
                                       KeyboardInterrupt])
def test_workers_are_joined_on_every_exit_path(monkeypatch, exit_with):
    pin(monkeypatch, 2)
    seen: list = []
    plain = PQSRunner.run_database_round

    def round_(runner):
        workers = multiprocessing.active_children()
        seen.append(len(workers))
        if workers and exit_with is not None:
            raise exit_with("stop mid-hunt")
        return plain(runner)

    monkeypatch.setattr(PQSRunner, "run_database_round", round_)
    if exit_with is None:
        run(databases=20, multiplan=False)
    else:
        with pytest.raises(exit_with, match="stop mid-hunt"):
            run(databases=20, multiplan=False)
    assert max(seen) == 2  # the pool was running before the exit
    assert multiprocessing.active_children() == []


KILLED_CAMPAIGN = """
import multiprocessing, os, time
from repro.campaigns.campaign import Campaign, CampaignConfig
from repro.core.runner import PQSRunner, RunnerConfig

os.sched_getaffinity = lambda pid: {0, 1}
plain = PQSRunner.run_database_round

def round_(runner):
    workers = multiprocessing.active_children()
    if workers:  # triage is under way: wait here to be killed
        print(*[worker.pid for worker in workers], flush=True)
        time.sleep(120)
    return plain(runner)

PQSRunner.run_database_round = round_
Campaign(CampaignConfig(dialect="sqlite", seed=0, databases=8,
                        runner=RunnerConfig(multiplan=True))).run()
"""


def exited(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads process states from /proc")
def test_workers_exit_with_a_killed_campaign():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    campaign = subprocess.Popen([sys.executable, "-c", KILLED_CAMPAIGN],
                                env=env, stdout=subprocess.PIPE, text=True)
    try:
        workers = [int(pid) for pid in campaign.stdout.readline().split()]
    finally:
        campaign.kill()
        campaign.wait(timeout=30)
    assert len(workers) == 2
    deadline = time.monotonic() + 30
    while not all(exited(pid) for pid in workers):
        assert time.monotonic() < deadline, "orphaned triage workers"
        time.sleep(0.05)


def python312():
    """A Python 3.12 interpreter that runs, or None."""
    path = shutil.which("python3.12")
    if path is None:
        return None
    probe = subprocess.run([path, "-c", "pass"], capture_output=True)
    return path if probe.returncode == 0 else None


def test_serve_forks_no_threaded_process():
    # --serve's status server thread is alive when triage starts, so
    # the pool must not fork this process.  Python 3.12 warns when it
    # would; under ``-W error`` that warning is swallowed, so it is
    # shown (``always``) and looked for.
    python = python312()
    if python is None:
        pytest.skip("no python3.12 interpreter")
    hunt = [python, "-W", "always::DeprecationWarning", "-m", "repro.cli",
            "hunt", "--dialect", "sqlite", "--multiplan",
            "--databases", "8", "--seed", "0"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    outputs = []
    for extra in ([], ["--serve", "0"]):
        done = subprocess.run(hunt + extra, capture_output=True,
                              text=True, env=env, cwd=ROOT, timeout=300)
        assert done.returncode == 0, done.stderr
        assert "DeprecationWarning" not in done.stderr, done.stderr
        # --serve turns metrics on, which adds rate and phase lines
        # before the reports: compare the stats line and the reports.
        lines = done.stdout.splitlines()
        outputs.append(lines[:1] + lines[lines.index(""):])
    assert outputs[0] == outputs[1]
    assert any(line.startswith("detected ") for line in outputs[0])

