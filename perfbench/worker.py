"""One benchmark repetition in a fresh process.

Usage: ``python3 perfbench/worker.py <mode> <workload> <seed> [<trace file>]``

Modes:

- ``run``: build, arm, run to the horizon untraced, check the outputs;
  then build and arm the workload several more times and report each
  set-up time (the run's own build came first, so imports and lazy
  first-use costs stay out of the figures).
- ``trace``: build, arm and run with every layer's entry points wrapped,
  check the outputs; writes the per-layer totals to ``<trace file>``.

Every timed piece is reported scaled to the reference host
(``hostspeed.HostClock``); the raw wall time is reported beside it.

Prints exactly one JSON line on stdout. Exit status 0 means the
repetition ran and every output check held.
"""

from __future__ import annotations

import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
from hostspeed import HostClock  # noqa: E402
#: scratch space for service state dirs, inside the checkout
WORK = HERE / "out"
#: equal simulated slices a batch run is timed in
SLICES = 200


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and import it."""
    sys.path.insert(0, str(SRC))
    import repro

    location = Path(repro.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise ImportError(f"repro imported from {location}, not from {SRC}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
def batch_setup(workload, seed: int) -> list:
    clock = HostClock()
    times = []
    for _ in range(workload.setup_repeats):
        gc.collect()
        clock.restart()
        start = perf_counter()
        workload.build(seed).start()
        times.append(clock.scale(perf_counter() - start))
    return times


def batch_run(workload, seed: int, tracer=None) -> dict:
    """Run the workload to its horizon in timed slices and check it.

    The operator probe observes between slices, once every
    ``SLICES // PROBE_ROUNDS``: its reads are timed at a hundred moments
    spread over the run, not bunched at its end, and are left out of the
    slice timings and of the traced spans. Its acts come after the horizon and the checks: each
    one logs a control event per server of the group, and half a
    million of them mid-run more than doubled facility-10k's peak memory.
    """
    from checks import check_run, digest, jobs_placed, n_servers, simulated_counts
    from repro.service import harness_for
    from workloads import ACT_PAIRS, PROBE_ROUNDS

    gc.collect()
    start = perf_counter()
    experiment = workload.build(seed)
    experiment.start()
    armed = perf_counter()
    harness = harness_for(experiment)
    clock = HostClock()
    probe = OperatorProbe(harness, clock)
    end = experiment.config.end_seconds
    raw_s = 0.0
    slice_s = []
    for k in range(1, SLICES + 1):
        # Consecutive advances compose exactly, so slicing leaves the run
        # unchanged, and slice k of two repetitions of one seed is the
        # same work.
        begin = perf_counter()
        experiment.advance(end * k / SLICES)
        elapsed = perf_counter() - begin
        raw_s += elapsed
        slice_s.append(clock.scale(elapsed))
        if k % (SLICES // PROBE_ROUNDS) == 0:
            if tracer:  # spans outside the timed slices are not traced
                tracer.recording = False
            probe.observe()
            if tracer:
                tracer.recording = True
    if tracer:
        tracer.recording = False
    rss = peak_rss_mb()  # at the horizon, before collection and checks
    experiment.finish()
    counts = simulated_counts(harness)
    failures = check_run(harness)
    clock.restart()
    for _ in range(ACT_PAIRS):
        probe.act()
    return {
        "wall_s": sum(slice_s),
        "slice_s": slice_s,
        "raw_wall_s": raw_s,
        "kernel_ms": statistics.median(clock.kernel_s) * 1e3,
        "traced_wall_s": armed - start + raw_s,
        "sim_hours": harness.end_seconds / 3600.0,
        "jobs_placed": jobs_placed(harness),
        "n_servers": n_servers(harness),
        "peak_rss_mb": rss,
        "read_ms": probe.read_ms,
        "act_ms": probe.act_ms,
        "counts": counts,
        "digest": digest(counts),
        "failures": failures,
    }


class OperatorProbe:
    """Observe and act on a batch run in-process, timed per call.

    A batch run has no HTTP front, so this times the work behind the
    service's observe GETs (every document built and JSON-encoded once
    is one observe) and acts (one group freeze or unfreeze), on this
    workload's state. ``/metrics`` is left out: batch runs keep
    telemetry off.
    """

    def __init__(self, harness, clock: HostClock) -> None:
        from repro.service import views

        groups = sorted(harness.groups())
        observed = "experiment" if "experiment" in groups else groups[0]
        self._harness = harness
        self._clock = clock
        self._acted = "control" if "control" in groups else groups[-1]
        self._reads = (
            lambda: views.state_doc(harness),
            lambda: views.controllers_doc(harness),
            lambda: views.group_doc(harness, observed),
        )
        self.read_ms: list = []
        self.act_ms: list = []

    def observe(self) -> None:
        """One build and JSON encoding of each observe document."""
        start = perf_counter()
        for read in self._reads:
            json.dumps(read(), sort_keys=True)
        self.read_ms.append(self._clock.scale(perf_counter() - start) * 1e3)

    def act(self) -> None:
        """One freeze+unfreeze pair on the acted group."""
        from repro.service.views import jsonsafe
        from repro.service.wal import apply_act

        for op in ("freeze", "unfreeze"):
            start = perf_counter()
            json.dumps(jsonsafe(apply_act(self._harness, op, {"group": self._acted})))
            self.act_ms.append(self._clock.scale(perf_counter() - start) * 1e3)


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------
def start_service(workload, seed: int, state_dir: Path):
    from repro.service import SupervisorConfig, build_service

    from client import ServiceClient
    from workloads import CHECKPOINT_EVERY

    handle = build_service(
        workload.build(seed),
        mode="manual",
        supervisor_config=SupervisorConfig(
            state_dir=str(state_dir),
            auto_snapshot_every=CHECKPOINT_EVERY,
            # Snapshot count must not depend on host speed.
            auto_snapshot_min_wall_seconds=0.0,
        ),
    )
    handle.start()
    host, port = handle.address
    client = ServiceClient(host, port)
    if client.get_json("/api/status") is None:  # set-up ends when it answers
        raise RuntimeError("/api/status did not answer: " + "; ".join(client.failures))
    return handle, client


def service_setup(workload, seed: int) -> list:
    clock = HostClock()
    times = []
    for _ in range(workload.setup_repeats):
        state_dir = Path(tempfile.mkdtemp(prefix="setup-", dir=WORK))
        try:
            gc.collect()
            clock.restart()
            start = perf_counter()
            handle, client = start_service(workload, seed, state_dir)
            elapsed = clock.scale(perf_counter() - start)
            handle.stop()
        finally:
            shutil.rmtree(state_dir, ignore_errors=True)
        times.append(elapsed)
    return times


def service_run(workload, seed: int, tracer=None) -> dict:
    from checks import check_run, digest, jobs_placed, n_servers, simulated_counts
    from client import prometheus_value
    from repro.service.supervisor import WAL_NAME
    from workloads import (
        ACT_GROUP,
        CHECKPOINT_EVERY,
        ACT_PAIRS_PER_STEP,
        READ_PATHS,
        STEP_SECONDS,
    )

    state_dir = Path(tempfile.mkdtemp(prefix="state-", dir=WORK))
    try:
        gc.collect()
        start = perf_counter()
        handle, client = start_service(workload, seed, state_dir)
        armed = perf_counter()
        horizon = handle.harness.end_seconds
        try:
            acked = client.drive(
                horizon,
                STEP_SECONDS,
                READ_PATHS,
                ACT_PAIRS_PER_STEP,
                ACT_GROUP,
                CHECKPOINT_EVERY,
            )
            wall = sum(client.slice_s)
            traced_wall = armed - start + client.raw_s
            if tracer:
                tracer.recording = False
            rss = peak_rss_mb()
            _, metrics = client.request("GET", "/metrics")
            status = client.get_json("/api/status")
        finally:
            handle.stop()
        failures = [f"request failed: {f}" for f in client.failures]
        checkpoints = wal_lines = None
        if metrics is not None and status is not None:
            checkpoints = int(prometheus_value(metrics.decode("utf-8"), "repro_service_checkpoints_total"))
            expected = 1 + round(horizon / CHECKPOINT_EVERY)  # genesis + one per cadence
            if checkpoints != expected:
                failures.append(f"checkpoints {checkpoints} != genesis + horizon/cadence = {expected}")
            wal_records = status["supervisor"]["wal"]["records"]
            wal_lines = len((state_dir / WAL_NAME).read_text().splitlines())
            if not wal_records == wal_lines == acked:
                failures.append(
                    f"WAL records {wal_records} (on disk {wal_lines}) != acknowledged acts {acked}"
                )
        harness = handle.harness
        counts = simulated_counts(harness)
        counts["checkpoints"] = checkpoints
        counts["wal_records"] = wal_lines
        failures.extend(check_run(harness))
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    return {
        "wall_s": wall,
        "slice_s": client.slice_s,
        "raw_wall_s": client.raw_s,
        "kernel_ms": statistics.median(client.clock.kernel_s) * 1e3,
        "traced_wall_s": traced_wall,
        "sim_hours": horizon / 3600.0,
        "jobs_placed": jobs_placed(harness),
        "n_servers": n_servers(harness),
        "peak_rss_mb": rss,
        "read_ms": client.read_ms,
        "act_ms": client.act_ms,
        "requests_attempted": client.attempted,
        "requests_failed": client.failed,
        "counts": counts,
        "digest": digest(counts),
        "failures": failures,
    }


# ----------------------------------------------------------------------
def trace_document(tracer, doc: dict) -> dict:
    """Per-layer totals of one traced repetition."""
    wall = doc["traced_wall_s"]
    timeline = tracer.timeline_self_s()
    return {
        "traced_wall_s": wall,
        "traced_run_wall_s": doc["wall_s"],
        "untraced.self_s": wall - timeline,
        "layers": {
            layer: {
                "self_s": tracer.self_s.get(layer, 0.0),
                "off_timeline_self_s": tracer.offline_self_s.get(layer, 0.0),
                "calls": tracer.calls[layer],
            }
            for layer in tracer.layers()
        },
        "target_calls": dict(sorted(tracer.target_calls.items())),
        "values": dict(tracer.values),
    }


def main(argv) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    try:
        import_program()
        from workloads import WORKLOADS

        workload = WORKLOADS[name]
        WORK.mkdir(exist_ok=True)
        if mode not in ("run", "trace"):
            raise ValueError(f"unknown mode {mode!r}")
        service = workload.kind == "service"
        tracer = None
        if mode == "trace":
            from tracer import LayerTracer

            tracer = LayerTracer()
            tracer.install()
        doc = (service_run if service else batch_run)(workload, seed, tracer)
        if tracer is not None:
            trace = trace_document(tracer, doc)
            Path(argv[3]).write_text(json.dumps(trace, indent=1, sort_keys=True))
        else:
            doc["setup_s"] = (service_setup if service else batch_setup)(workload, seed)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        print(json.dumps({"failures": ["repetition raised: " + traceback.format_exc(limit=3)]}))
        return 1
    print(json.dumps(doc))
    return 0 if not doc["failures"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
