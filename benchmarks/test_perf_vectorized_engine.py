"""Perf gate for the columnar engine core (``repro.cluster.state``).

Two contracts, measured at facility scale and written to
``BENCH_vectorized.json`` for CI to publish:

* **Throughput** -- the production monitor sweep (IPMI poll of every
  BMC, noise, quantization, staleness bookkeeping, power aggregation)
  over a 10k-server row must run at least **10x faster** than the same
  sweep on the per-server scalar oracles of ``tests/oracles.py`` (the
  dict-based poll and the sequential power sum). The sweep is the
  per-minute hot loop; at 100k servers the scalar loops alone would eat
  the entire control interval. The artifact keeps its historical keys:
  ``object_ms_per_sweep`` is the oracle, ``vectorized_ms_per_sweep``
  production.
* **Memory** -- the columnar store must stay a small flat cost per
  slot all the way to 100k servers (no per-object dicts in the hot
  state), an order of magnitude below what a ``Server`` object costs.

Production and oracles agree bit for bit (see
``tests/test_backend_equivalence.py``); this file only pins the price.
"""

import json
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.cluster.datacenter import build_row
from repro.durability.atomic import atomic_write_text
from repro.cluster.power import PowerModelParams
from repro.cluster.server import Server
from repro.cluster.state import ClusterState
from repro.monitor.power_monitor import PowerMonitor
from repro.sim.engine import Engine
from tests import oracles

N_SERVERS = 10_000
RACKS = 250
SERVERS_PER_RACK = 40
SWEEPS = 5
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_vectorized.json"

RESULTS: dict = {}


class _OracleSweepFleet(oracles.IpmiFleetOracle):
    """The dict-based oracle poll, handed to the monitor in fleet order."""

    @property
    def stale_count(self) -> int:
        return len(self.stale_ids)

    def poll_all(self) -> np.ndarray:
        polled = super().poll_all()
        return np.array([polled[s.server_id] for s in self.servers], dtype=float)


def _sweep_seconds_per_tick(oracle: bool) -> float:
    """Median per-sweep wall-clock of the 10k-server monitor loop."""
    row = build_row(0, racks=RACKS, servers_per_rack=SERVERS_PER_RACK)
    monitor = PowerMonitor(
        Engine(),
        noise_sigma=0.01,
        rng=np.random.default_rng(7),
        ipmi_failure_rate=0.02,
    )
    monitor.register_group(row)
    aggregate = row.power_watts
    if oracle:
        monitor._fleets[row.name] = _OracleSweepFleet(
            row.servers, monitor.rng, noise_sigma=0.01, failure_rate=0.02
        )

        def aggregate():
            return oracles.group_power_watts(row)
    state, indices = row.state, row.state_indices
    monitor.sample_once()  # warm caches / allocators out of the timing

    samples = []
    for _ in range(SWEEPS):
        # Workload churn invalidates power between ticks in a real run;
        # charge both paths for the recompute, not a cache hit.
        state.invalidate_power(indices)
        started = time.perf_counter()
        monitor.sample_once()
        aggregate()
        samples.append(time.perf_counter() - started)
    return sorted(samples)[len(samples) // 2]


def test_perf_sweep_throughput_10x_at_10k():
    """>= 10x monitor-sweep throughput at 10k servers."""
    object_s = _sweep_seconds_per_tick(oracle=True)
    vectorized_s = _sweep_seconds_per_tick(oracle=False)
    speedup = object_s / vectorized_s
    RESULTS["sweep"] = {
        "n_servers": N_SERVERS,
        "sweeps_timed": SWEEPS,
        "object_ms_per_sweep": round(object_s * 1e3, 3),
        "vectorized_ms_per_sweep": round(vectorized_s * 1e3, 3),
        "speedup": round(speedup, 1),
    }
    print(
        f"\n10k-server sweep: scalar oracle {object_s * 1e3:.1f} ms, "
        f"production {vectorized_s * 1e3:.1f} ms -> {speedup:.1f}x"
    )
    assert speedup >= 10.0, (
        f"production sweep only {speedup:.1f}x faster than the scalar oracle "
        f"at {N_SERVERS} servers ({object_s * 1e3:.1f} ms vs "
        f"{vectorized_s * 1e3:.1f} ms)"
    )


def test_perf_memory_flat_to_100k():
    """Columnar state stays a small flat per-slot cost up to 100k."""
    params = PowerModelParams()

    def filled(n: int) -> ClusterState:
        state = ClusterState(capacity=n)
        for i in range(n):
            state.add_server(i, 16, 64.0, params, 0.05)
        return state

    at_10k = filled(10_000)
    at_100k = filled(100_000)
    per_slot_10k = at_10k.bytes_per_server()
    per_slot_100k = at_100k.bytes_per_server()

    # The marginal cost of a Server object (tasks dict, listener list,
    # attribute storage, private single-slot store), for scale.
    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    servers = [Server(i, power_params=params) for i in range(1_000)]
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    object_bytes = sum(
        s.size_diff for s in after.compare_to(before, "lineno") if s.size_diff > 0
    )
    per_object = object_bytes / len(servers)

    RESULTS["memory"] = {
        "columnar_bytes_per_server_10k": round(per_slot_10k, 1),
        "columnar_bytes_per_server_100k": round(per_slot_100k, 1),
        "columnar_mb_total_100k": round(at_100k.nbytes / 2**20, 2),
        "object_bytes_per_server": round(per_object, 1),
    }
    print(
        f"\ncolumnar: {per_slot_100k:.0f} B/server "
        f"({at_100k.nbytes / 2**20:.1f} MB at 100k); "
        f"Server object: {per_object:.0f} B/server"
    )
    # Flat per-slot cost: 100k costs the same per server as 10k.
    assert per_slot_100k == per_slot_10k
    # Small in absolute terms -- a 100k facility fits in tens of MB.
    assert at_100k.nbytes < 64 * 2**20
    # And far below a Server object's footprint.
    assert per_slot_100k * 10 < per_object


def test_perf_write_artifact():
    """Persist the measurements for the CI artifact (runs last)."""
    assert "sweep" in RESULTS and "memory" in RESULTS, (
        "artifact test must run after the measurement tests (pytest "
        "runs this file top to bottom)"
    )
    atomic_write_text(ARTIFACT, json.dumps(RESULTS, indent=2) + "\n")
    print(f"\nwrote {ARTIFACT}")
