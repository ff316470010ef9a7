"""CI resilience smoke: SIGKILL the live service, resume, prove identity.

The strongest claim the self-healing runtime makes is that an unclean
process death loses *nothing acknowledged*: restart with
``serve --resume --state-dir`` and the run continues from the last
verified auto-snapshot plus write-ahead-log replay, landing on exactly
the bytes an uninterrupted run produces.

This script proves it the hard way, with real processes:

1. **Run A (reference)** -- ``ampere-repro serve --step-mode`` driven
   over HTTP through a fixed plan of absolute step targets and operator
   acts (freeze at t=900s, unfreeze at t=1800s), snapshotted at the
   horizon, shut down gracefully.
2. **Run B (victim)** -- the same plan, but the serve process is
   **SIGKILL'd** (no cleanup, no final snapshot) partway through. A new
   process resumes from the same ``--state-dir``, skips the step targets
   already behind the recovered clock, finishes the plan and snapshots.
3. The two horizon snapshots must be **byte-identical**, and the
   resumed one must pass a full restore-and-audit verification.

Acts are *not* re-issued after the resume: they were acknowledged
(hence WAL'd) before the kill, so replay must restore them -- that is
the ack-after-durable contract under test.

Both runs use ``--no-telemetry``: wall-clock tracer spans are real state
and would (correctly) differ between runs.

Usage::

    PYTHONPATH=src python benchmarks/service_resilience_smoke.py

Exit status: 0 on success, 1 on any failure.
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
import urllib.request

HORIZON = 3600.0  # --hours 1.0
STEP_TARGETS = (600.0, 900.0, 1800.0, 2700.0, HORIZON)
ACTS = {  # applied right after the step that lands on their sim-time
    900.0: ("/api/freeze", {"group": "experiment"}),
    1800.0: ("/api/unfreeze", {"group": "experiment"}),
}
KILL_AFTER = 2700.0  # SIGKILL once the run has been driven this far


def get_json(base, path):
    with urllib.request.urlopen(base + path, timeout=60) as resp:
        assert resp.status == 200, f"GET {path} -> {resp.status}"
        return json.loads(resp.read())


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


def launch(state_dir, resume=False):
    """Start one serve subprocess; return (process, base_url)."""
    cmd = [
        sys.executable, "-m", "repro.cli", "serve",
        "--servers", "40", "--hours", "1.0", "--warmup-hours", "0.25",
        "--seed", "7", "--no-telemetry", "--step-mode", "--port", "0",
        "--state-dir", state_dir, "--auto-snapshot-every", "5",
        "--auto-snapshot-min-wall", "0",  # step blast: checkpoint eagerly
    ]
    if resume:
        cmd.append("--resume")
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )
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
    return proc, base


def drive(base, targets, issue_acts=True):
    """Step through absolute sim-time targets, applying the act plan.

    Targets at or behind the live clock are skipped -- that is exactly
    what a client resuming a half-finished plan does. Acts are only
    issued for targets actually stepped to (after a resume they are
    already in the WAL and must NOT be repeated).
    """
    sim_now = get_json(base, "/api/status")["sim_now"]
    for target in targets:
        if target <= sim_now:
            print(f"  skip step to t={target:.0f}s (already at {sim_now:.0f}s)")
            continue
        doc = post_json(base, "/api/step", {"until": target})
        sim_now = doc["sim_now"]
        assert sim_now == target, f"stepped to {sim_now}, wanted {target}"
        act = ACTS.get(target)
        if act is not None and issue_acts:
            path, body = act
            post_json(base, path, body)
            print(f"  act {path} acknowledged at t={target:.0f}s")


def graceful_stop(proc):
    proc.send_signal(signal.SIGTERM)
    code = proc.wait(timeout=120)
    assert code == 0, f"serve exited {code} on SIGTERM"


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)

    workdir = tempfile.mkdtemp(prefix="service-resilience-")
    snap_a = os.path.join(workdir, "final-a.snap")
    snap_b = os.path.join(workdir, "final-b.snap")
    proc = None
    try:
        # ---- run A: uninterrupted reference -------------------------------
        print("run A (uninterrupted reference):")
        proc, base = launch(os.path.join(workdir, "state-a"))
        drive(base, STEP_TARGETS)
        post_json(base, "/api/snapshot", {"path": snap_a})
        graceful_stop(proc)
        proc = None

        # ---- run B: SIGKILL mid-run, then resume --------------------------
        print("run B (victim, SIGKILL at t=%.0fs):" % KILL_AFTER)
        state_b = os.path.join(workdir, "state-b")
        proc, base = launch(state_b)
        drive(base, [t for t in STEP_TARGETS if t <= KILL_AFTER])
        # Give the watchdog a beat to adopt the newest offered checkpoint
        # (adoption is asynchronous; resume works from any adopted one).
        time.sleep(1.0)
        proc.kill()  # SIGKILL: no handlers, no final snapshot, no fsync
        proc.wait(timeout=60)
        proc = None
        print("  killed; resuming from", state_b)

        proc, base = launch(state_b, resume=True)
        status = get_json(base, "/api/status")
        print(
            "  resumed at t=%.0fs (wal last_seq=%d)"
            % (status["sim_now"], status["supervisor"]["wal"]["last_seq"])
        )
        assert status["supervisor"]["wal"]["last_seq"] == len(ACTS), (
            "acknowledged acts missing from the recovered WAL"
        )
        drive(base, STEP_TARGETS, issue_acts=False)
        post_json(base, "/api/snapshot", {"path": snap_b})
        graceful_stop(proc)
        proc = None

        # ---- identity and verification ------------------------------------
        bytes_a = open(snap_a, "rb").read()
        bytes_b = open(snap_b, "rb").read()
        assert bytes_a == bytes_b, (
            f"divergence: uninterrupted snapshot is {len(bytes_a)} bytes, "
            f"recovered snapshot is {len(bytes_b)} bytes "
            f"(equal={len(bytes_a) == len(bytes_b)})"
        )
        print(f"  horizon snapshots byte-identical ({len(bytes_a)} bytes)")

        verify = subprocess.run(
            [sys.executable, "-m", "repro.cli", "verify-snapshot", snap_b],
            capture_output=True, text=True,
        )
        sys.stdout.write(verify.stdout)
        assert verify.returncode == 0, (
            f"recovered snapshot failed verification: {verify.stdout}"
        )
    except Exception as exc:
        if proc is not None and proc.poll() is None:
            proc.kill()
            remainder = proc.stdout.read()
            if remainder:
                sys.stdout.write(remainder)
        print(f"service resilience smoke FAILED: {exc}")
        return 1
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)

    print(
        "service resilience smoke OK: SIGKILL + resume reproduced the "
        "uninterrupted run byte for byte"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
