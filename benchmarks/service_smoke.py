"""CI service smoke: headless `ampere-repro serve`, every endpoint, SIGTERM.

Launches the control-plane service as a *subprocess* (the way an
operator runs it), discovers the bound port from the startup banner,
exercises every observe and act endpoint over real HTTP with ``urllib``
only, then sends SIGTERM and demands a zero exit plus a clean,
verifiable final snapshot. This is the end-to-end proof that the
service works outside the test harness: real process, real signals,
real sockets, no test fixtures.

Usage::

    PYTHONPATH=src python benchmarks/service_smoke.py

Exit status: 0 on success, 1 on any endpoint/shutdown failure.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

CHECKS = []


def check(name):
    """Collect endpoint checks so the report lists every one that ran."""

    def wrap(fn):
        CHECKS.append((name, fn))
        return fn

    return wrap


def get(base, path):
    with urllib.request.urlopen(base + path, timeout=60) as resp:
        return resp.status, dict(resp.headers), resp.read()


def get_json(base, path):
    status, headers, body = get(base, path)
    assert status == 200, f"GET {path} -> {status}"
    return json.loads(body)


def post_json(base, path, body=None, timeout=600):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(body or {}).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as resp:
        assert resp.status == 200, f"POST {path} -> {resp.status}"
        return json.loads(resp.read())


@check("status")
def check_status(base, ctx):
    doc = get_json(base, "/api/status")
    assert doc["mode"] == "manual" and doc["started"] is True


@check("dashboard")
def check_dashboard(base, ctx):
    status, headers, body = get(base, "/")
    assert status == 200 and "text/html" in headers["Content-Type"]
    assert b"<canvas" in body


@check("config+state")
def check_config_state(base, ctx):
    config = get_json(base, "/api/config")
    assert config["kind"] == "experiment"
    state = get_json(base, "/api/state")
    assert {g["name"] for g in state["groups"]} == {"experiment", "control"}


@check("step")
def check_step(base, ctx):
    before = get_json(base, "/api/status")["sim_now"]
    doc = post_json(base, "/api/step", {"seconds": 900.0})
    assert doc["sim_now"] == before + 900.0


@check("group+controllers")
def check_group(base, ctx):
    doc = get_json(base, "/api/groups/experiment")
    lengths = {name: len(column) for name, column in doc["servers"].items()}
    assert lengths == dict.fromkeys(("id", "power_watts", "flags"), doc["n_servers"])
    assert doc["n_servers"] > 0 and doc["controller"]["ticks"] >= 0
    controllers = get_json(base, "/api/controllers")
    assert "experiment" in controllers["controllers"]


@check("events+series+safety+scenarios")
def check_observe(base, ctx):
    assert get_json(base, "/api/events?limit=10")["returned"] >= 0
    assert "groups" in get_json(base, "/api/series?window=1200")
    assert "supervisors" in get_json(base, "/api/safety")
    assert "blackout" in get_json(base, "/api/scenarios")["scenarios"]


@check("freeze+unfreeze")
def check_freeze(base, ctx):
    frozen = post_json(base, "/api/freeze", {"group": "control"})
    assert frozen["servers_changed"] > 0
    thawed = post_json(base, "/api/unfreeze", {"group": "control"})
    assert thawed["servers_changed"] == frozen["servers_changed"]


@check("arm-faults")
def check_faults(base, ctx):
    armed = post_json(base, "/api/faults", {"scenario": "blackout"})
    assert armed["scenario"] == "blackout"
    assert len(get_json(base, "/api/faults")["runtime"]) == 1


@check("metrics")
def check_metrics(base, ctx):
    status, headers, body = get(base, "/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
    assert b"# TYPE" in body


@check("sse")
def check_sse(base, ctx):
    stream = urllib.request.urlopen(base + "/events", timeout=30)
    try:
        assert stream.headers["Content-Type"] == "text/event-stream"
        post_json(base, "/api/step", {"seconds": 60.0})
        for _ in range(5000):
            line = stream.readline().decode().strip()
            if line.startswith("data: "):
                json.loads(line[len("data: "):])
                return
        raise AssertionError("no SSE data frame after a step")
    finally:
        stream.close()


@check("snapshot+verify")
def check_snapshot(base, ctx):
    path = os.path.join(ctx["dir"], "mid.snap")
    written = post_json(base, "/api/snapshot", {"path": path})
    assert written["bytes"] == os.path.getsize(path)
    report = post_json(base, "/api/verify-snapshot", {"path": path})
    assert report["ok"] is True and report["exit_code"] == 0


@check("audit")
def check_audit(base, ctx):
    assert get_json(base, "/api/audit")["clean"] is True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--servers", type=int, default=40)
    parser.add_argument("--hours", type=float, default=1.0)
    args = parser.parse_args(argv)

    workdir = tempfile.mkdtemp(prefix="service-smoke-")
    final_snap = os.path.join(workdir, "final.snap")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--servers", str(args.servers), "--hours", str(args.hours),
            "--warmup-hours", "0.25", "--seed", "7",
            "--safety", "--audit", "--step-mode", "--port", "0",
            "--final-snapshot", final_snap,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        # The banner is the port-discovery contract: "serving on http://..."
        base = None
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line:
                raise AssertionError("serve exited before printing its banner")
            sys.stdout.write(line)
            if "serving on " in line:
                base = line.split("serving on ", 1)[1].split()[0]
                break
        assert base, "no startup banner within 120 s"

        ctx = {"dir": workdir}
        for name, fn in CHECKS:
            fn(base, ctx)
            print(f"  endpoint check OK: {name}")

        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=120)
        assert code == 0, f"serve exited {code} on SIGTERM"
        assert os.path.getsize(final_snap) > 0, "no final snapshot written"

        verify = subprocess.run(
            [sys.executable, "-m", "repro.cli", "verify-snapshot", final_snap],
            capture_output=True,
            text=True,
        )
        sys.stdout.write(verify.stdout)
        assert verify.returncode == 0, (
            f"final snapshot failed verification: {verify.stdout}"
        )
    except Exception as exc:
        if proc.poll() is None:
            proc.kill()
        remainder = proc.stdout.read()
        if remainder:
            sys.stdout.write(remainder)
        print(f"service smoke FAILED: {exc}")
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)

    print(
        f"service smoke OK: {len(CHECKS)} endpoint checks, "
        "graceful SIGTERM, final snapshot verified"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
