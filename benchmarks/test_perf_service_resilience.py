"""Perf gate for the self-healing service runtime (``repro.service``).

Resilience machinery nobody can afford to leave on is machinery that is
off when the process dies. The contract pinned here: the sim-thread
cost of supervision -- per-act WAL appends (write+fsync), periodic
checkpoint offers and frame encoding, queue bookkeeping, and per-slice
heartbeat stamping -- adds **less than 5%** on top of pure simulation
time in a representative manual-step service run. Measurements go to
``BENCH_service_resilience.json`` for CI to publish.

Both measurements drive the same seeded experiment to the horizon
through a :class:`~repro.service.driver.RealTimeDriver` in manual mode,
with the same operator acts:

- *baseline*: a bare driver -- no supervisor, no WAL, no auto-snapshot.
- *supervised*: the full stack -- durable state dir, fsync'd WAL, an
  auto-snapshot every ten sim-minutes, watchdog running.

How the overhead is isolated: both configurations execute the *bit-for-
bit identical* physics path (same engine calls, same slice count), so a
raw wall-clock diff between two sub-second runs on a shared CI box
measures scheduler luck, not supervision. Instead every run times its
own ``advance`` calls through an identical proxy and charges the
configuration with everything *outside* them -- command dispatch, WAL
appends, snapshot offers, heartbeat stamping, event publishes. The
resilience cost is the supervised machinery share minus the baseline
machinery share (the bare driver's own slicing/locking is not
supervision and is subtracted out), and that delta is gated against the
run's simulation time.

Two deliberate measurement choices:

- The supervised run keeps the *default* wall-clock checkpoint throttle
  (``auto_snapshot_min_wall_seconds``). Checkpoints exist to bound the
  wall time a recovery loses, so a step-mode run that races through
  simulated time is intentionally not charged one frame encode per
  sim-cadence tick -- that throttle is precisely what makes supervision
  affordable at its defaults, and it is part of the configuration under
  gate.
- Checkpoint *verification* (restore + full audit) is disabled: it runs
  asynchronously on the watchdog thread and is configurable
  (``verify_snapshots``), so including it would gate the GIL-scheduling
  of a background sweep rather than the sim-thread costs this benchmark
  isolates. The trajectory is identical either way, so the delta is
  pure resilience cost.
"""

import json
import statistics
import time
from pathlib import Path

from repro.durability.atomic import atomic_write_text
from repro.service import harness_for
from repro.service.driver import RealTimeDriver
from repro.service.supervisor import DriverSupervisor, SupervisorConfig
from repro.service.wal import apply_act
from repro.sim.experiment import ControlledExperiment, ExperimentConfig
from repro.sim.testbed import WorkloadSpec

N_SERVERS = 200
HOURS = 2.0
AUTO_SNAPSHOT_EVERY = 600.0
REPEATS = 5
MAX_OVERHEAD = 0.05
ARTIFACT = (
    Path(__file__).resolve().parent.parent / "BENCH_service_resilience.json"
)

ACT_TIMES = (1800.0, 3600.0, 5400.0)  # freeze / unfreeze / freeze


def _experiment() -> ControlledExperiment:
    return ControlledExperiment(
        ExperimentConfig(
            n_servers=N_SERVERS,
            duration_hours=HOURS,
            warmup_hours=0.25,
            workload=WorkloadSpec.typical(),
            seed=11,
            telemetry_enabled=False,
        )
    )


class _TimedRun:
    """Forwards to a staged run and times its ``advance`` calls.

    Both configurations drive the run through the same proxy, so its
    (tiny) per-call cost cancels out of the machinery delta. A proxy
    rather than a patched bound method: the run is pickled into every
    checkpoint, and a closure stored on it would not pickle.
    """

    def __init__(self, run) -> None:
        self._run = run
        self.seconds = 0.0
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._run, name)

    def advance(self, until=None):
        started = time.perf_counter()
        result = self._run.advance(until)
        self.seconds += time.perf_counter() - started
        self.calls += 1
        return result


def _drive(driver: RealTimeDriver, log_act=None) -> None:
    """Step to the horizon with a few operator acts along the way."""
    horizon = driver.run.end_seconds
    ops = ("freeze", "unfreeze", "freeze")
    for sim_time, op in zip(ACT_TIMES, ops):
        driver.step(until=sim_time)

        def act(op=op):
            doc = apply_act(driver.run, op, {"group": "experiment"})
            if log_act is not None:
                log_act(op, {"group": "experiment"})
            return doc

        driver.act(act, label=op)
    driver.step(until=horizon)


def _baseline_once() -> dict:
    advances = _TimedRun(harness_for(_experiment()))
    driver = RealTimeDriver(advances, mode="manual")
    driver.start()
    started = time.perf_counter()
    _drive(driver)
    total = time.perf_counter() - started
    driver.shutdown()
    return {"total": total, "advance": advances.seconds,
            "calls": advances.calls}


def _supervised_once(state_dir: Path) -> dict:
    advances = _TimedRun(harness_for(_experiment()))
    supervisor = DriverSupervisor(
        advances,
        mode="manual",
        config=SupervisorConfig(
            state_dir=str(state_dir),
            auto_snapshot_every=AUTO_SNAPSHOT_EVERY,
            verify_snapshots=False,
        ),
    )
    supervisor.start()
    started = time.perf_counter()
    _drive(supervisor.driver, log_act=supervisor.log_act)
    total = time.perf_counter() - started
    assert supervisor.wal.last_seq == len(ACT_TIMES)
    assert supervisor.recoveries == 0  # healthy run, no watchdog trips
    supervisor.stop()
    return {"total": total, "advance": advances.seconds,
            "calls": advances.calls}


def test_perf_service_resilience_overhead_under_5_percent(tmp_path):
    """WAL + auto-snapshot + heartbeat cost < 5% of simulation time.

    Runs interleave with alternating order so neither configuration
    systematically lands in the busy windows of a shared CI box; the
    per-run machinery seconds (total minus in-run advance time) are
    medianed across repeats before the delta is taken.
    """
    baseline_samples = []
    supervised_samples = []
    for index in range(REPEATS):
        pair = [
            lambda: baseline_samples.append(_baseline_once()),
            lambda i=index: supervised_samples.append(
                _supervised_once(tmp_path / f"state-{i}")
            ),
        ]
        if index % 2:
            pair.reverse()
        for run in pair:
            run()

    calls = {s["calls"] for s in baseline_samples + supervised_samples}
    assert len(calls) == 1, (
        f"configurations diverged in advance calls: {calls} -- the "
        "physics path is no longer identical and the delta is meaningless"
    )
    base_machinery = statistics.median(
        s["total"] - s["advance"] for s in baseline_samples
    )
    sup_machinery = statistics.median(
        s["total"] - s["advance"] for s in supervised_samples
    )
    sim_seconds = statistics.median(
        s["advance"] for s in baseline_samples + supervised_samples
    )
    overhead = (sup_machinery - base_machinery) / sim_seconds
    results = {
        "n_servers": N_SERVERS,
        "hours": HOURS,
        "repeats": REPEATS,
        "acts": len(ACT_TIMES),
        "auto_snapshot_every_s": AUTO_SNAPSHOT_EVERY,
        "advance_calls": calls.pop(),
        "simulation_s": round(sim_seconds, 3),
        "baseline_machinery_s": round(base_machinery, 4),
        "supervised_machinery_s": round(sup_machinery, 4),
        "baseline_total_s": round(
            statistics.median(s["total"] for s in baseline_samples), 3
        ),
        "supervised_total_s": round(
            statistics.median(s["total"] for s in supervised_samples), 3
        ),
        "overhead_fraction": round(overhead, 4),
        "gate": MAX_OVERHEAD,
    }
    atomic_write_text(ARTIFACT, json.dumps(results, indent=2) + "\n")
    print(
        f"\nservice resilience overhead: machinery "
        f"{base_machinery * 1000:.1f}ms bare -> "
        f"{sup_machinery * 1000:.1f}ms supervised over "
        f"{sim_seconds:.2f}s of simulation -> {overhead:+.1%} "
        f"(gate {MAX_OVERHEAD:.0%}); wrote {ARTIFACT}"
    )
    assert overhead < MAX_OVERHEAD, (
        f"supervision machinery costs {overhead:.1%} of simulation time "
        f"(gate {MAX_OVERHEAD:.0%}): {base_machinery * 1000:.1f}ms bare vs "
        f"{sup_machinery * 1000:.1f}ms supervised over "
        f"{sim_seconds:.2f}s simulated"
    )
