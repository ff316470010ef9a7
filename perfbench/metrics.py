"""Metric definitions and the reduction of repetitions to one run's values.

Every timing a repetition reports is already scaled to the reference
host (``hostspeed.HostClock``): the shared host's vCPU switches between
a fast and a ~1.8x slower state, often for longer than a run, and the
scaling takes that out piece by piece. Every repetition of a run does
the same work (same seed, deterministic simulator), so when a run makes
more than one, it keeps for each timed piece of that work -- a simulated
slice of a batch run, one service step with its requests, one observe
or act -- its fastest timing over the repetitions, and reports rates
and percentiles from those. The number of repetitions is fixed (one at
the declared ``run_seconds``), so both sides of a comparison reduce the
same count. Set-up time, a millisecond-scale figure, is the median of
many set-ups, timed in every repetition after its run.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str


#: the benchmark's declaration: run length, metric names and units
CONFIG = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = tuple(Metric(m["name"], m["unit"]) for m in CONFIG["end_to_end"])
PER_LAYER = tuple(Metric(m["name"], m["unit"]) for m in CONFIG["per_layer"])


def percentile(samples: List[float], q: int) -> float:
    """The q-th percentile (statistics' exclusive method)."""
    return statistics.quantiles(samples, n=100)[q - 1]


def end_to_end_values(reps: List[dict]) -> Dict[str, dict]:
    """One run's end-to-end metrics from its repetitions.

    Rates use the summed fastest slice timings, latency percentiles the
    fastest timing of each observe or act; set-up time is the median of
    every repetition's set-up samples, peak RSS the median over
    repetitions. ``n`` is the number of samples behind each value.
    """
    first = reps[0]
    wall = sum(fastest(r["slice_s"] for r in reps))
    setups = [t for r in reps for t in r["setup_s"]]
    values = {
        "sim_h_per_wall_s": (first["sim_hours"] / wall, len(reps)),
        "jobs_per_wall_s": (first["jobs_placed"] / wall, len(reps)),
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), len(reps)),
    }
    for kind in ("read", "act"):
        kept = fastest(r[f"{kind}_ms"] for r in reps)
        for q in (50, 90):
            values[f"{kind}_p{q}_ms"] = (percentile(kept, q), len(kept))
    return {
        metric.name: {"value": values[metric.name][0], "unit": metric.unit, "n": values[metric.name][1]}
        for metric in END_TO_END
    }


def fastest(timings) -> List[float]:
    """Element-wise minimum over repetitions of the same timed work."""
    return [min(column) for column in zip(*timings)]


def per_layer_values(layer_doc: dict, traced: dict, reps: List[dict]) -> dict:
    """Derive the per-layer metrics of one traced repetition.

    ``layer_doc`` is the tracer's raw document; the untraced repetitions
    ``reps`` give the tracing overhead and the untraced cost per event.
    Returns ``layer_doc`` extended with ``metrics`` (every PER_LAYER name
    plus the self time and calls of every layer the workload exercised).
    """
    layers = layer_doc["layers"]
    calls = layer_doc["target_calls"]
    counts = traced["counts"]
    untraced_wall = min(r["wall_s"] for r in reps)

    def layer(name: str, field: str) -> float:
        return layers.get(name, {}).get(field, 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    sweeps = layer("monitor.sweep", "calls")
    derived = {
        "engine.events": counts["events"],
        "engine.schedules": counts["events_scheduled"],
        "engine.live_ratio": ratio(counts["events"], counts["events_scheduled"]),
        "engine.us_per_event": ratio(untraced_wall, counts["events"]) * 1e6,
        "workload.accept_ratio": ratio(
            calls.get("JobDurationDistribution.sample_one", 0),
            calls.get("BatchWorkloadGenerator._candidate_arrival", 0),
        ),
        "scheduler.place_ratio": ratio(
            counts["jobs_placed"], calls.get("ResourceTracker.candidates", 0)
        ),
        "cluster.freq_changes": layer("cluster.freq", "calls"),
        "monitor.us_per_server": ratio(
            layer("monitor.sweep", "self_s"), sweeps * traced["n_servers"]
        ) * 1e6,
        "snapshot.bytes": layer_doc["values"].get("snapshot.bytes", 0.0),
        "untraced.self_s": layer_doc["untraced.self_s"],
        "trace.wall_s": layer_doc["traced_wall_s"],
        "trace.overhead_frac": ratio(layer_doc["traced_run_wall_s"], untraced_wall) - 1.0,
    }
    metrics: Dict[str, dict] = {}
    for metric in PER_LAYER:
        if metric.name in derived:
            value = derived[metric.name]
        else:
            name, field = metric.name.rsplit(".", 1)
            value = layer(name, field)
        metrics[metric.name] = {"value": value, "unit": metric.unit, "n": 1}
    exercised = {}
    for name, totals in sorted(layers.items()):
        exercised[f"{name}.self_s"] = totals["self_s"] + totals["off_timeline_self_s"]
        exercised[f"{name}.calls"] = totals["calls"]
    layer_doc["metrics"] = metrics
    layer_doc["exercised"] = exercised
    layer_doc["untraced_run_wall_s"] = untraced_wall
    layer_doc["sum_check_s"] = sum(t["self_s"] for t in layers.values()) + layer_doc["untraced.self_s"]
    return layer_doc
