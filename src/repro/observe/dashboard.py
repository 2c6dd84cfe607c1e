"""The single-file HTML dashboard served at ``/``.

One self-contained page — inline CSS, inline JS, no external assets, no
build step — that polls ``/status`` and ``/bugs`` every two seconds and
renders a progress bar with round counts, a bug list and a planner line
(multi-plan oracle activity).  Kept
deliberately boring: the dashboard must work from
``curl -o - | browser`` on an air-gapped hunt box.
"""

DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>pqs hunt</title>
<style>
  body { font-family: ui-monospace, Menlo, Consolas, monospace;
         background: #111418; color: #d6dbe1; margin: 2rem; }
  h1 { font-size: 1.1rem; color: #7fd1b9; }
  h2 { font-size: 0.95rem; color: #8ab4f8; margin-top: 1.5rem; }
  .bar { background: #22262c; border-radius: 4px; height: 14px;
         overflow: hidden; max-width: 40rem; }
  .bar > div { background: #7fd1b9; height: 100%; width: 0; }
  table { border-collapse: collapse; margin-top: 0.5rem; }
  td, th { border: 1px solid #2c313a; padding: 2px 10px;
           font-size: 0.85rem; text-align: left; }
  .muted { color: #707a86; }
</style>
</head>
<body>
<h1 id="title">pqs hunt</h1>
<div class="bar"><div id="done"></div></div>
<p id="summary" class="muted">connecting&hellip;</p>
<h2>bugs</h2>
<table id="bugs"><tbody></tbody></table>
<h2>planner</h2>
<p id="planner" class="muted">inactive</p>
<script>
"use strict";
function cell(text) {
  const td = document.createElement("td");
  td.textContent = text;
  return td;
}
function fill(tableId, header, rows) {
  const body = document.querySelector("#" + tableId + " tbody");
  body.replaceChildren();
  const head = document.createElement("tr");
  header.forEach(h => {
    const th = document.createElement("th");
    th.textContent = h;
    head.appendChild(th);
  });
  body.appendChild(head);
  rows.forEach(cols => {
    const tr = document.createElement("tr");
    cols.forEach(c => tr.appendChild(cell(String(c))));
    body.appendChild(tr);
  });
}
async function tick() {
  try {
    const status = await (await fetch("/status")).json();
    const rounds = status.rounds || {};
    const total = rounds.total || 0;
    const done = rounds.completed || 0;
    document.getElementById("title").textContent =
      "pqs hunt \\u2014 " + (status.campaign || "?");
    const pct = total ? Math.min(100 * done / total, 100) : 0;
    document.getElementById("done").style.width = pct.toFixed(1) + "%";
    const tp = status.throughput || {};
    const bits = [
      done + "/" + total + " rounds (" + pct.toFixed(0) + "%)",
      "pending " + (rounds.pending || 0),
      (tp.queries || 0) + " queries",
    ];
    if (tp.queries_per_second !== undefined)
      bits.push(tp.queries_per_second + " q/s");
    if (status.eta_seconds !== undefined)
      bits.push("ETA " + Math.round(status.eta_seconds) + "s");
    if (status.finished) bits.push("FINISHED");
    document.getElementById("summary").textContent = bits.join(" | ");
    const bugs = (await (await fetch("/bugs")).json()).bugs || [];
    fill("bugs", ["round", "oracle", "fingerprint", "statements"],
         bugs.map(b => [b.round, b.oracle, b.fingerprint,
                        (b.test_case.statements || []).length]));
    const mp = status.multiplan || {};
    document.getElementById("planner").textContent = mp.active
      ? "multiplan: " + (mp.queries || 0) + " queries, " +
        (mp.divergences || 0) + " divergences, " +
        (mp.forced_failures || 0) + " forced failures"
      : "inactive";
  } catch (err) {
    document.getElementById("summary").textContent =
      "poll failed: " + err;
  }
}
tick();
setInterval(tick, 2000);
</script>
</body>
</html>
"""
