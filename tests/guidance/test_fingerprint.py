"""Plan fingerprinting: schema-shape canonicalization, stability."""

from __future__ import annotations

import os
import subprocess
import sys

from repro.adapters.minidb_adapter import MiniDBConnection
from repro.guidance import (
    PlanStep,
    canonicalize,
    fingerprint,
    parse_sqlite_eqp_detail,
    steps_from_sqlite_eqp,
)
from repro.minidb.bugs import BugRegistry
from repro.multiplan.hints import BASELINE


def plan(conn, sql):
    return conn.forced_plan(sql, BASELINE)


def connection(*bugs):
    return MiniDBConnection("sqlite", bugs=BugRegistry(set(bugs)))


def build_state(conn, analyze=False):
    conn.execute("CREATE TABLE t0 (c0 INT, c1 TEXT)")
    conn.execute("CREATE INDEX i0 ON t0(c0)")
    conn.execute("INSERT INTO t0 VALUES (1, 'a'), (2, 'b')")
    if analyze:
        conn.execute("ANALYZE")


def test_distinct_states_distinct_fingerprints():
    """The four interesting optimizer states the guidance loop is meant
    to distinguish all hash differently."""
    fps = {}

    conn = connection()
    build_state(conn)
    fps["index"] = fingerprint(plan(conn,
                                    "SELECT * FROM t0 WHERE c0 = 1"))

    conn = connection("sqlite-skip-scan-distinct")
    build_state(conn, analyze=True)
    fps["skip-scan"] = fingerprint(plan(conn, "SELECT DISTINCT c0 FROM t0"))

    conn = connection()
    build_state(conn)
    conn.execute("CREATE INDEX ip ON t0(c1) WHERE c1 NOT NULL")
    fps["partial"] = fingerprint(plan(conn,
                                      "SELECT * FROM t0 WHERE c1 NOT NULL"))

    conn = connection()
    build_state(conn)
    conn.execute("CREATE INDEX ie ON t0((c1 || 'x'))")
    fps["expression"] = fingerprint(
        plan(conn, "SELECT * FROM t0 WHERE (c1 || 'x') = 'ax'"))

    conn = connection("sqlite-like-affinity-opt")
    build_state(conn)
    fps["like-opt"] = fingerprint(plan(conn,
                                       "SELECT * FROM t0 WHERE c0 LIKE '1'"))

    assert len(set(fps.values())) == len(fps), fps


def test_fingerprint_ignores_literals_and_names():
    """Same shape, different identifiers/literals => same fingerprint."""
    a = connection()
    a.execute("CREATE TABLE alpha (x INT)")
    a.execute("CREATE INDEX idx_alpha ON alpha(x)")
    b = connection()
    b.execute("CREATE TABLE beta (y INT)")
    b.execute("CREATE INDEX any_name ON beta(y)")
    fp_a = fingerprint(plan(a, "SELECT * FROM alpha WHERE x = 1"))
    fp_b = fingerprint(plan(b, "SELECT * FROM beta WHERE y = 99"))
    assert fp_a == fp_b


def test_fingerprint_deterministic_across_processes():
    """Never Python hash(): fingerprints survive PYTHONHASHSEED."""
    code = (
        "from repro.guidance import PlanStep, fingerprint;"
        "print(fingerprint([PlanStep('index-scan', 't0', 'i0', '(=?)'),"
        "                   PlanStep('full-scan', 't1')]))"
    )
    outs = set()
    for hashseed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), "src") if p)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=os.path.dirname(
                os.path.dirname(os.path.dirname(__file__))),
            capture_output=True, text=True, check=True)
        outs.add(out.stdout.strip())
    assert len(outs) == 1
    here = fingerprint([PlanStep("index-scan", "t0", "i0", "(=?)"),
                        PlanStep("full-scan", "t1")])
    assert outs == {here}


def test_canonicalize_autoindex_collapse():
    steps = [PlanStep("index-scan", "t0", "sqlite_autoindex_t0_1"),
             PlanStep("index-scan", "t1", "t1_autoindex_2")]
    canon = canonicalize(steps)
    assert "auto" in canon
    assert "sqlite_autoindex" not in canon


def test_canonicalize_first_appearance_numbering():
    steps = [PlanStep("full-scan", "zeta"),
             PlanStep("index-scan", "alpha", "some_index")]
    canon = canonicalize(steps)
    # Numbering is by first appearance, not name order: zeta -> T0.
    assert canon.startswith("full-scan[T0")
    assert "index-scan[T1,I0" in canon
    assert "zeta" not in canon and "alpha" not in canon
    assert "some_index" not in canon


# -- SQLite EXPLAIN QUERY PLAN text, across format generations ------------

def test_eqp_modern_and_legacy_scan_agree():
    new = parse_sqlite_eqp_detail("SCAN t0")
    old = parse_sqlite_eqp_detail("SCAN TABLE t0")
    assert new == old
    assert new.kind == "full-scan" and new.table == "t0"


def test_eqp_search_with_index_and_constraint():
    step = parse_sqlite_eqp_detail(
        "SEARCH t0 USING INDEX i0 (c0=? AND c1>?)")
    assert step.kind == "index-scan"
    assert step.index == "i0"
    assert step.detail == "(=? AND >?)"


def test_eqp_constraint_strips_identifiers():
    a = parse_sqlite_eqp_detail("SEARCH t0 USING INDEX i0 (c0=?)")
    b = parse_sqlite_eqp_detail("SEARCH other USING INDEX x (zz=?)")
    assert a.detail == b.detail == "(=?)"


def test_eqp_integer_primary_key():
    step = parse_sqlite_eqp_detail(
        "SEARCH t0 USING INTEGER PRIMARY KEY (rowid=?)")
    assert step.index == "<ipk>"


def test_eqp_covering_automatic_partial_flags():
    covering = parse_sqlite_eqp_detail(
        "SEARCH t0 USING COVERING INDEX i0 (c0=?)")
    automatic = parse_sqlite_eqp_detail(
        "SEARCH t0 USING AUTOMATIC COVERING INDEX (c0=?)")
    assert "covering" in covering.detail
    assert "auto" in (automatic.index or "") or "covering" in \
        automatic.detail


def test_eqp_temp_btree_and_fallback():
    btree = parse_sqlite_eqp_detail("USE TEMP B-TREE FOR ORDER BY")
    assert btree.kind == "temp-btree"
    odd = parse_sqlite_eqp_detail("MATERIALIZE t0")
    assert "t0" not in (odd.detail or "")


def test_steps_from_sqlite_eqp_is_stable_across_versions():
    legacy = steps_from_sqlite_eqp(["SCAN TABLE t0",
                                    "SEARCH TABLE t1 USING INDEX i1 "
                                    "(c0=?)"])
    modern = steps_from_sqlite_eqp(["SCAN t0",
                                    "SEARCH t1 USING INDEX i1 (c0=?)"])
    assert fingerprint(legacy) == fingerprint(modern)
