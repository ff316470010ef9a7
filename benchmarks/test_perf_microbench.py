"""Micro-benchmarks of the simulator's hot paths.

Unlike the reproduction benchmarks (which run once and print paper
tables), these are conventional pytest-benchmark timings: the event
engine's scheduling throughput, the resource tracker's candidate query,
the monitor's sampling loop, the Lindley recursion, and a full simulated
hour end-to-end. They exist so performance regressions in the substrate
are visible in CI, since every experiment's wall-clock depends on them.
"""

import time

import numpy as np

from repro.scheduler.resources import ResourceTracker
from repro.sim.engine import Engine
from repro.sim.events import EventPriority
from repro.sim.experiment import ControlledExperiment, ExperimentConfig
from repro.sim.testbed import Testbed, WorkloadSpec
from repro.telemetry import NULL_COUNTER, NULL_GAUGE, NULL_HISTOGRAM, Telemetry
from repro.workload.interactive import lindley_waits
from repro.workload.job import Job
from tests.conftest import make_server, make_servers


def test_perf_engine_schedule_run(benchmark):
    """Throughput of scheduling + draining 10k no-op events."""

    def run():
        engine = Engine()
        for i in range(10_000):
            engine.schedule(float(i % 100), EventPriority.GENERIC, lambda: None)
        engine.run()
        return engine.events_processed

    assert benchmark(run) == 10_000


def test_perf_tracker_candidates(benchmark):
    """One vectorized placement query over a 400-server fleet."""
    tracker = ResourceTracker(make_servers(400))
    for i in range(0, 400, 3):
        tracker.server_at(i).add_task(Job(i, 100.0, cores=14.0, memory_gb=30.0))

    result = benchmark(tracker.candidates, 4.0, 8.0)
    assert len(result) > 0


def test_perf_monitor_sample(benchmark):
    """One per-minute sample of a 400-server group."""
    from repro.cluster.group import ServerGroup
    from repro.monitor.power_monitor import PowerMonitor

    engine = Engine()
    servers = [make_server(i) for i in range(400)]
    monitor = PowerMonitor(engine, noise_sigma=0.01)
    monitor.register_group(ServerGroup("g", servers))

    benchmark(monitor.sample_once)
    assert monitor.samples_taken > 0


def test_perf_lindley(benchmark):
    """Vectorized Lindley recursion over one million requests."""
    rng = np.random.default_rng(0)
    inter = rng.exponential(1.0, size=1_000_000)
    inter[0] = 0.0
    services = rng.gamma(2.0, 0.3, size=1_000_000)

    waits = benchmark(lindley_waits, inter, services)
    assert (waits >= 0).all()


def test_perf_simulated_hour(benchmark):
    """End-to-end: one simulated hour of a loaded 400-server row."""

    def run():
        testbed = Testbed(n_servers=400, seed=0)
        generator = testbed.add_batch_workload(WorkloadSpec.typical(), 3600.0)
        generator.start(3600.0)
        testbed.monitor.register_group(testbed.row)
        testbed.monitor.start(3600.0)
        testbed.run(until=3600.0)
        return testbed.scheduler.stats.placed

    placed = benchmark.pedantic(run, rounds=3, iterations=1)
    assert placed > 1000


# ---------------------------------------------------------------------------
# Telemetry overhead: the "cheap enough to be always-on" contract
# ---------------------------------------------------------------------------


def _timed_run(telemetry_enabled: bool) -> float:
    """Wall-clock of one fixed small experiment (build excluded)."""
    config = ExperimentConfig(
        n_servers=80,
        duration_hours=1.0,
        warmup_hours=0.1,
        workload=WorkloadSpec(target_utilization=0.3),
        seed=5,
        telemetry_enabled=telemetry_enabled,
    )
    experiment = ControlledExperiment(config)
    started = time.perf_counter()
    experiment.run()
    return time.perf_counter() - started


def test_perf_telemetry_overhead_under_five_percent():
    """Enabled telemetry must cost < 5% end-to-end.

    Rounds are interleaved (off/on pairs) so clock drift and cache state
    hit both variants alike, and min-of-rounds discards scheduler noise
    -- noise only ever adds time. Measured overhead is ~1%; the 5% bound
    is the subsystem's documented budget.
    """
    _timed_run(False)  # warm imports and allocator
    best_off = min(_timed_run(False) for _ in range(4))
    best_on = min(_timed_run(True) for _ in range(4))
    assert best_on < best_off * 1.05, (
        f"telemetry overhead {best_on / best_off - 1.0:+.1%} "
        f"(enabled {best_on:.4f}s vs disabled {best_off:.4f}s)"
    )


def test_perf_null_instruments_are_nanosecond_noops(benchmark):
    """Disabled-path record calls must be ~free (< 1 us/op even on a
    loaded CI box; typically tens of ns)."""

    def spin():
        for _ in range(10_000):
            NULL_COUNTER.inc()
            NULL_GAUGE.set(1.0)
            NULL_HISTOGRAM.observe(0.5)
        return True

    assert benchmark(spin)
    per_op = benchmark.stats.stats.min / 30_000
    assert per_op < 1e-6, f"null instrument op costs {per_op * 1e9:.0f} ns"


def test_perf_live_instrument_throughput(benchmark):
    """Hot-path cost of live instruments: resolve once, record many."""
    telemetry = Telemetry.create()
    counter = telemetry.counter("repro_bench_total")
    gauge = telemetry.gauge("repro_bench_depth")
    histogram = telemetry.histogram("repro_bench_seconds")

    def spin():
        for i in range(10_000):
            counter.inc()
            gauge.set(i)
            histogram.observe(0.01)
        return counter.value

    assert benchmark(spin) >= 10_000
    per_op = benchmark.stats.stats.min / 30_000
    assert per_op < 5e-6, f"live instrument op costs {per_op * 1e9:.0f} ns"
