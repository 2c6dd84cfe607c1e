"""What a cold ``pqs`` process imports.

``pqs sqlite`` tests real SQLite and runs no MiniDB, no status server,
no differential replay and no other dialect's semantics, so it must not
import them.  A hunt imports MiniDB when its ``Campaign`` is built,
before its first round, and the triage task's module brings MiniDB with
it, so a triage worker started from a forkserver preloads it once.
"""

import json

from tests.adapters.test_worker_reuse import fresh_interpreter

#: Modules ``pqs sqlite --isolate`` must not load.
FORBIDDEN = (
    "repro.minidb.engine", "repro.minidb.executor", "repro.minidb.parser",
    "repro.minidb.planner", "repro.minidb.catalog", "repro.minidb.tokens",
    "repro.minidb.statements", "repro.minidb.engine_sem",
    "repro.adapters.minidb_adapter", "repro.campaigns.replay",
    "repro.observe.server", "repro.observe.report",
    "repro.observe.dashboard",
    "repro.interp.mysql_sem", "repro.interp.postgres_sem",
    "http.server",
)


def loaded_after(script: str, modules=FORBIDDEN) -> list:
    """Which of *modules* a fresh interpreter has loaded after *script*."""
    out = fresh_interpreter(script + f"""
import json, sys
print(json.dumps([m for m in {list(modules)!r} if m in sys.modules]))
""")
    return json.loads(out.splitlines()[-1])


def test_isolated_sqlite_hunt_loads_no_minidb():
    # The benchmark's probe imports these three before the command.
    assert loaded_after("""
import contextlib, io
import repro.cli, repro.campaigns.campaign, repro.core.runner
from repro import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["sqlite", "--isolate", "--databases", "2",
                     "--seed", "0"])
assert code == 0, code
""") == []


def test_building_a_campaign_loads_minidb():
    assert loaded_after("""
from repro.campaigns.campaign import Campaign, CampaignConfig
Campaign(CampaignConfig())
""", ["repro.minidb.engine"]) == ["repro.minidb.engine"]


def test_the_triage_task_module_loads_the_replayers():
    modules = ["repro.campaigns.replay", "repro.minidb.engine"]
    assert loaded_after("import repro.campaigns.triage", modules) == modules
