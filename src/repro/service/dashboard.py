"""The zero-dependency operator dashboard, served at ``/``.

One self-contained HTML document: inline CSS, inline JS, no external
assets, no build step, no framework -- it must render from a headless
box over an SSH tunnel with nothing but the service itself. The page
polls the JSON API on a fixed cadence for state (charts, masks, the
safety ladder) and rides the SSE ``/events`` stream for the live
control-plane log.

Charts are hand-rolled ``<canvas>`` line plots: a power trace per group
with its budget as a dashed horizontal, exactly the paper's
Figure-7-style view of Ampere holding power under the provisioned line.
"""

from __future__ import annotations

DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>ampere-repro live</title>
<style>
  :root {
    --bg: #11151c; --panel: #1a2029; --border: #2a3341;
    --text: #cfd8e3; --dim: #7a8699; --accent: #5ab0f0;
    --ok: #46c28e; --warn: #e0b44c; --crit: #e0784c; --shed: #e04c5a;
  }
  * { box-sizing: border-box; }
  body { margin: 0; background: var(--bg); color: var(--text);
         font: 13px/1.45 ui-monospace, SFMono-Regular, Menlo, monospace; }
  header { display: flex; align-items: baseline; gap: 1.2em;
           padding: 10px 16px; border-bottom: 1px solid var(--border);
           flex-wrap: wrap; }
  header h1 { font-size: 15px; margin: 0; color: var(--accent); }
  header .stat b { color: var(--text); }
  header .stat { color: var(--dim); }
  #grid { display: grid; gap: 12px; padding: 12px 16px;
          grid-template-columns: 2fr 1fr; align-items: start; }
  .panel { background: var(--panel); border: 1px solid var(--border);
           border-radius: 6px; padding: 10px 12px; }
  .panel h2 { margin: 0 0 8px; font-size: 12px; text-transform: uppercase;
              letter-spacing: .08em; color: var(--dim); }
  canvas.chart { width: 100%; height: 180px; display: block; }
  .legend { display: flex; gap: 1em; margin-top: 4px; color: var(--dim);
            flex-wrap: wrap; }
  .legend .budget { color: var(--warn); }
  table { border-collapse: collapse; width: 100%; }
  th, td { text-align: right; padding: 2px 8px; border-bottom:
           1px solid var(--border); }
  th:first-child, td:first-child { text-align: left; }
  th { color: var(--dim); font-weight: normal; }
  .ladder { display: inline-block; padding: 1px 8px; border-radius: 3px;
            color: #11151c; font-weight: bold; }
  .ladder.NORMAL { background: var(--ok); }
  .ladder.WARNING { background: var(--warn); }
  .ladder.CRITICAL { background: var(--crit); }
  .ladder.SHED { background: var(--shed); }
  .sup { display: inline-block; padding: 1px 8px; border-radius: 3px;
         color: #11151c; font-weight: bold; }
  .sup.running { background: var(--ok); }
  .sup.recovering, .sup.degraded { background: var(--warn); }
  .sup.failed, .sup.stopped { background: var(--shed); }
  .masks { display: flex; flex-direction: column; gap: 8px; }
  .maskrow .label { color: var(--dim); margin-bottom: 2px; }
  .cells { display: flex; flex-wrap: wrap; gap: 2px; }
  .cell { width: 9px; height: 9px; border-radius: 2px; }
  .cell.idle { background: #31455c; }
  .cell.frozen { background: var(--accent); }
  .cell.capped { background: var(--warn); }
  .cell.failed { background: var(--shed); }
  .cell.off { background: #000; border: 1px solid var(--border); }
  #log { max-height: 260px; overflow-y: auto; }
  #log div { white-space: nowrap; }
  #log .t { color: var(--dim); }
  #log .kind { color: var(--accent); }
  .controls { display: flex; gap: 8px; flex-wrap: wrap; margin-top: 6px; }
  button, select, input { background: #222b38; color: var(--text);
      border: 1px solid var(--border); border-radius: 4px;
      padding: 3px 10px; font: inherit; cursor: pointer; }
  button:hover { border-color: var(--accent); }
  #flash { color: var(--warn); min-height: 1.2em; margin-top: 4px; }
  @media (max-width: 900px) { #grid { grid-template-columns: 1fr; } }
</style>
</head>
<body>
<header>
  <h1>ampere-repro</h1>
  <span class="stat">mode <b id="h-mode">&ndash;</b></span>
  <span class="stat">t = <b id="h-sim">&ndash;</b></span>
  <span class="stat">progress <b id="h-prog">&ndash;</b></span>
  <span class="stat">facility <b id="h-fac">&ndash;</b></span>
  <span class="stat" id="h-state"></span>
  <span class="stat">supervisor <span class="sup" id="h-sup">&ndash;</span></span>
  <span class="stat" id="h-recov"></span>
</header>
<div id="grid">
  <div class="panel" style="grid-row: span 2">
    <h2>power vs budget (trailing hour)</h2>
    <div id="charts"></div>
  </div>
  <div class="panel">
    <h2>groups</h2>
    <table id="groups"><thead><tr>
      <th>group</th><th>power</th><th>budget</th><th>frozen</th>
      <th>ladder</th><th>breaker</th>
    </tr></thead><tbody></tbody></table>
    <div class="controls">
      <button onclick="act('pause')">pause</button>
      <button onclick="act('resume')">resume</button>
      <button onclick="act('step', {seconds: 600})">step 10&thinsp;min</button>
      <select id="scenario"></select>
      <button onclick="armFaults()">arm faults</button>
      <button onclick="takeSnapshot()">snapshot</button>
    </div>
    <div id="flash"></div>
  </div>
  <div class="panel">
    <h2>server masks <span style="color:var(--dim)">
      (blue frozen &middot; yellow capped &middot; red failed)</span></h2>
    <div class="masks" id="masks"></div>
  </div>
  <div class="panel" id="tenants-panel" style="display:none">
    <h2>tenants <span id="h-jain" style="color:var(--dim)"></span></h2>
    <table id="tenants"><thead><tr>
      <th>tenant</th><th>sla</th><th>share</th><th>frozen (min)</th>
      <th>normalized</th><th>freezes</th><th>shed</th>
    </tr></thead><tbody></tbody></table>
  </div>
  <div class="panel" style="grid-column: 1 / -1">
    <h2>control-plane events (live)
      <span id="h-drops" style="color:var(--dim)"></span></h2>
    <div id="log"></div>
  </div>
</div>
<script>
"use strict";
const $ = (id) => document.getElementById(id);
const fmtW = (w) => w == null ? "\\u2013"
  : (w >= 10000 ? (w / 1000).toFixed(1) + " kW" : Math.round(w) + " W");
const fmtT = (s) => {
  if (s == null) return "\\u2013";
  const h = Math.floor(s / 3600), m = Math.floor((s % 3600) / 60);
  return h + "h" + String(m).padStart(2, "0") + "m";
};

async function getJSON(path) {
  const r = await fetch(path);
  if (!r.ok) throw new Error(path + " -> " + r.status);
  return r.json();
}
async function postJSON(path, body) {
  const r = await fetch(path, {method: "POST",
    headers: {"Content-Type": "application/json"},
    body: JSON.stringify(body || {})});
  const doc = await r.json().catch(() => ({}));
  if (!r.ok) throw new Error(doc.error || (path + " -> " + r.status));
  return doc;
}
function flash(msg) {
  $("flash").textContent = msg;
  setTimeout(() => { if ($("flash").textContent === msg)
    $("flash").textContent = ""; }, 6000);
}
async function act(name, body) {
  try { await postJSON("/api/" + name, body); refresh(); }
  catch (e) { flash(String(e.message || e)); }
}
async function armFaults() {
  await act("faults", {scenario: $("scenario").value});
}
async function takeSnapshot() {
  const path = prompt("snapshot path on the server host:",
                      "service-snapshot.bin");
  if (path) await act("snapshot", {path});
}

// ---- charts -----------------------------------------------------------
function drawChart(canvas, series) {
  const dpr = window.devicePixelRatio || 1;
  const w = canvas.clientWidth, h = canvas.clientHeight;
  canvas.width = w * dpr; canvas.height = h * dpr;
  const ctx = canvas.getContext("2d");
  ctx.scale(dpr, dpr);
  ctx.clearRect(0, 0, w, h);
  const times = series.times || [], watts = series.watts || [];
  if (times.length < 2) {
    ctx.fillStyle = "#7a8699";
    ctx.fillText("waiting for samples\\u2026", 8, 16);
    return;
  }
  const t0 = times[0], t1 = times[times.length - 1];
  const finite = watts.filter((v) => v != null);
  const top = Math.max(series.budget_watts * 1.15, ...finite) || 1;
  const X = (t) => 4 + (w - 8) * (t - t0) / Math.max(1, t1 - t0);
  const Y = (p) => h - 4 - (h - 20) * (p / top);
  // budget line
  ctx.strokeStyle = "#e0b44c"; ctx.setLineDash([5, 4]); ctx.beginPath();
  ctx.moveTo(4, Y(series.budget_watts));
  ctx.lineTo(w - 4, Y(series.budget_watts)); ctx.stroke();
  ctx.setLineDash([]);
  // power trace
  ctx.strokeStyle = "#5ab0f0"; ctx.lineWidth = 1.3; ctx.beginPath();
  let pen = false;
  for (let i = 0; i < times.length; i++) {
    if (watts[i] == null) { pen = false; continue; }
    const x = X(times[i]), y = Y(watts[i]);
    if (pen) ctx.lineTo(x, y); else ctx.moveTo(x, y);
    pen = true;
  }
  ctx.stroke();
  ctx.fillStyle = "#7a8699";
  ctx.fillText(fmtW(top), 6, 12);
}

function renderCharts(doc) {
  const host = $("charts");
  const names = Object.keys(doc.groups);
  if (doc.facility) names.unshift("facility");
  for (const name of names) {
    let block = document.getElementById("chart-" + name);
    if (!block) {
      block = document.createElement("div");
      block.id = "chart-" + name;
      block.innerHTML = '<div class="legend"><span>' + name +
        '</span><span style="color:#5ab0f0">power</span>' +
        '<span class="budget">budget</span></div>' +
        '<canvas class="chart"></canvas>';
      host.appendChild(block);
    }
    const series = name === "facility" ? doc.facility : doc.groups[name];
    drawChart(block.querySelector("canvas"), series);
  }
}

// ---- tables and masks -------------------------------------------------
function renderGroups(doc) {
  const body = $("groups").querySelector("tbody");
  body.innerHTML = "";
  for (const g of doc.groups) {
    const tr = document.createElement("tr");
    const ladder = g.safety_state
      ? '<span class="ladder ' + g.safety_state + '">' + g.safety_state +
        "</span>" : "\\u2013";
    const breaker = g.breaker
      ? (g.breaker.tripped ? "OPEN"
         : (100 * g.breaker.thermal_fraction).toFixed(0) + "%")
      : "\\u2013";
    tr.innerHTML = "<td>" + g.name + "</td><td>" + fmtW(g.power_watts) +
      "</td><td>" + fmtW(g.budget_watts) + "</td><td>" + g.frozen + "/" +
      g.n_servers + "</td><td>" + ladder + "</td><td>" + breaker + "</td>";
    body.appendChild(tr);
  }
  $("h-fac").textContent = fmtW(doc.facility_power_watts) + " / " +
    fmtW(doc.facility_budget_watts);
}

async function renderMasks(doc) {
  const host = $("masks");
  host.innerHTML = "";
  for (const g of doc.groups) {
    const detail = await getJSON("/api/groups/" +
                                 encodeURIComponent(g.name));
    const row = document.createElement("div");
    row.className = "maskrow";
    const cols = detail.servers;
    const bit = {};
    detail.server_flags.forEach((flag, i) => { bit[flag] = 1 << i; });
    const cells = cols.id.map((id, i) => {
      const flags = cols.flags[i];
      let cls = "idle";
      if (flags & bit.powered_off) cls = "off";
      else if (flags & bit.failed) cls = "failed";
      else if (flags & bit.capped) cls = "capped";
      else if (flags & bit.frozen) cls = "frozen";
      return '<span class="cell ' + cls + '" title="#' + id + " " +
        fmtW(cols.power_watts[i]) + '"></span>';
    }).join("");
    row.innerHTML = '<div class="label">' + g.name + '</div>' +
      '<div class="cells">' + cells + "</div>";
    host.appendChild(row);
  }
}

let tenanted = true;  // optimistic; a 404 marks the run untenanted
async function renderTenants() {
  if (!tenanted) return;
  let doc;
  try { doc = await getJSON("/api/tenants"); }
  catch (e) {
    if (String(e).includes("404")) tenanted = false;
    return;
  }
  $("tenants-panel").style.display = "";
  $("h-jain").textContent = "(" + doc.policy + ", Jain " +
    doc.jain_index.toFixed(3) + ")";
  const body = $("tenants").querySelector("tbody");
  body.innerHTML = "";
  for (const t of doc.tenants) {
    const tr = document.createElement("tr");
    tr.innerHTML = "<td>" + t.name + "</td><td>" + t.sla + "</td><td>" +
      t.share.toFixed(2) + "</td><td>" +
      t.frozen_server_minutes.toFixed(0) + "</td><td>" +
      t.normalized_frozen.toFixed(0) + "</td><td>" + t.freeze_events +
      "</td><td>" + t.shed_events + "</td>";
    body.appendChild(tr);
  }
}

// ---- polling ----------------------------------------------------------
async function refresh() {
  try {
    const [status, state, series] = await Promise.all([
      getJSON("/api/status"), getJSON("/api/state"),
      getJSON("/api/series?window=3600"),
    ]);
    $("h-mode").textContent = status.mode +
      (status.mode === "accelerated" ? " \\u00d7" + status.speedup : "");
    $("h-sim").textContent = fmtT(status.sim_now);
    $("h-prog").textContent = (100 * status.progress).toFixed(1) + "%";
    $("h-state").textContent = status.fatal ? "FATAL: " + status.fatal
      : status.finished ? "finished"
      : status.paused ? "paused" : "running";
    const sup = status.supervisor || {};
    const supEl = $("h-sup");
    supEl.textContent = sup.state || "\\u2013";
    supEl.className = "sup " + (sup.state || "");
    $("h-recov").textContent = sup.recoveries
      ? "recoveries " + sup.recoveries + "/" + sup.max_recoveries : "";
    const perSub = status.events_dropped_by_subscriber || {};
    const dropped = Object.values(perSub).reduce((a, b) => a + b,
                                                 status.events_dropped || 0);
    $("h-drops").textContent = dropped ? "(" + dropped + " dropped)" : "";
    renderGroups(state);
    renderCharts(series);
    await renderMasks(state);
    await renderTenants();
  } catch (e) { flash(String(e.message || e)); }
}

async function loadScenarios() {
  try {
    const doc = await getJSON("/api/scenarios");
    const sel = $("scenario");
    for (const name of Object.keys(doc.scenarios)) {
      const opt = document.createElement("option");
      opt.value = name;
      opt.textContent = name;
      opt.title = doc.scenarios[name];
      sel.appendChild(opt);
    }
  } catch (e) { flash(String(e.message || e)); }
}

// ---- SSE event stream -------------------------------------------------
function startEvents() {
  const log = $("log");
  const src = new EventSource("/events");
  src.onmessage = (msg) => {
    let doc;
    try { doc = JSON.parse(msg.data); } catch { return; }
    const line = document.createElement("div");
    if (doc.type === "control") {
      line.innerHTML = '<span class="t">t=' + fmtT(doc.time) +
        '</span> <span class="kind">' + doc.kind + "</span> #" +
        doc.server_id + " " + (doc.detail || "");
    } else if (doc.type === "supervisor") {
      line.innerHTML = '<span class="t">t=' + fmtT(doc.sim_now) +
        '</span> <span class="kind" style="color:var(--warn)">supervisor' +
        "</span> " + doc.action + (doc.reason ? ": " + doc.reason : "");
    } else if (doc.type === "stream") {
      line.innerHTML = '<span class="kind" style="color:var(--warn)">' +
        "stream</span> reset (" + doc.missed_events + " events missed)";
    } else {
      line.innerHTML = '<span class="t">t=' + fmtT(doc.sim_now) +
        '</span> <span class="kind">driver</span> ' + doc.action;
    }
    log.appendChild(line);
    while (log.childNodes.length > 400) log.removeChild(log.firstChild);
    log.scrollTop = log.scrollHeight;
  };
  src.onerror = () => { /* EventSource auto-reconnects */ };
}

loadScenarios();
startEvents();
refresh();
setInterval(refresh, 2000);
</script>
</body>
</html>
"""

__all__ = ["DASHBOARD_HTML"]
