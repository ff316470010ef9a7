"""The repository's end-to-end benchmark: one command, every workload.

Single-run form (one workload, one run)::

    python3 perfbench/run.py --workload paper-row --seed 1 --seconds 30 --trace 0

runs a fixed number of fresh-process repetitions of the workload (one,
scaled by ``--seconds`` over BENCHMARK.json's ``run_seconds``), checks
every repetition's outputs, prints one line per metric (name, value,
unit, sample count) and the host's state (the reference kernel's median
time and the raw wall time, beside the scaled figures the metrics use)
and, last, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs one traced repetition (after
an untraced one, for the overhead) and reports the per-layer metrics,
writing every layer's totals to ``perfbench/out/trace-<workload>.json``.

Summary form (every workload, several runs, alternating order)::

    python3 perfbench/run.py --workload all --runs 10 --seed 1

runs this script once per (run, workload) -- each a fresh process, the
workload order reversed on every other run -- and prints each metric's
median, quartiles, spread and n, writing ``perfbench/out/summary.json``.

Exit status: 0 when every repetition ran and passed its checks, 1 when
one failed (the result line says ``"correct": false``), 2 when the
program under test cannot be found -- then no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: a repetition running longer is killed and counted failed (two such
#: children still end a run well inside the 180 s a run may take)
CHILD_TIMEOUT_S = 75.0

sys.path.insert(0, str(HERE))
from metrics import (  # noqa: E402
    CONFIG,
    END_TO_END,
    PER_LAYER,
    end_to_end_values,
    per_layer_values,
)
from workloads import REPETITIONS, WORKLOADS  # noqa: E402


def child(mode: str, workload: str, seed: int, *extra: str) -> dict:
    """Run one worker process; returns its JSON document.

    A crash, a timeout or a failed check comes back as a document whose
    ``failures`` list is non-empty.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    command = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed), *extra]
    try:
        proc = subprocess.run(
            command,
            cwd=str(ROOT),
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"failures": [f"{mode} repetition timed out after {CHILD_TIMEOUT_S:.0f}s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        doc = {"failures": []}
    if proc.returncode != 0 and not doc.get("failures"):
        doc["failures"] = [f"{mode} exited {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    return doc


def repetitions(seconds: float) -> int:
    """How many repetitions a run of ``seconds`` makes.

    A function of the declared count alone -- never of how fast this
    host or the program happens to be -- so every run, on either side of
    a comparison, reduces the same number of repetitions.
    """
    return max(1, round(REPETITIONS * seconds / CONFIG["run_seconds"]))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns the result document."""
    workload = WORKLOADS[name]
    count = repetitions(seconds)
    OUT.mkdir(exist_ok=True)
    failures: List[str] = []
    metrics = {}
    trace_file = OUT / f"trace-{name}.json"
    # The traced repetition runs right after an untraced one, so that
    # its overhead compares runs made moments apart.
    reps = [child("run", name, seed)]
    traced = child("trace", name, seed, str(trace_file)) if trace else None
    reps += [child("run", name, seed) for _ in range(count - 1)]
    docs = [traced, *reps] if trace else reps
    if trace:
        if not any(d.get("failures") for d in docs):
            layer_doc = json.loads(trace_file.read_text())
            layer_doc = per_layer_values(layer_doc, traced, reps)
            trace_file.write_text(json.dumps(layer_doc, indent=1, sort_keys=True))
            metrics = layer_doc["metrics"]
            if layer_doc["untraced.self_s"] < 0:
                failures.append("layer self times exceed the traced wall time")
    elif not any(d.get("failures") for d in docs):
        metrics = end_to_end_values(reps)

    failures += [f for d in docs for f in d.get("failures", [])]
    digests = {d["digest"] for d in docs if "digest" in d}
    if len(digests) > 1:
        failures.append(f"repetitions of one seed disagree on the simulated counts: {sorted(digests)}")
    if workload.kind == "service":
        # An operation is a request; a repetition that crashed before
        # reporting its requests counts as one.
        attempted = sum(d.get("requests_attempted", 1) for d in docs)
        failed = sum(
            d["requests_failed"] if "requests_attempted" in d else bool(d.get("failures"))
            for d in docs
        )
    else:
        # An operation is a repetition (the traced one included).
        attempted = len(docs)
        failed = sum(1 for d in docs if d.get("failures"))
    if failures and not failed:
        failed = 1  # every operation answered, yet a check failed
    counts = next((d["counts"] for d in docs if "counts" in d), {})
    host = {
        "kernel_ms": [round(d["kernel_ms"], 4) for d in reps if "kernel_ms" in d],
        "raw_wall_s": [round(d["raw_wall_s"], 3) for d in reps if "raw_wall_s" in d],
    }
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "repetitions": len(reps),
        "counts": counts,
        "host": host,
        "digest": next(iter(digests), None),
        "failures": failures,
        "correct": not failures and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def print_result(result: dict) -> None:
    """Human lines first, then the one machine line (last on stdout)."""
    host = result["host"]
    print(f"# {result['workload']} seed={result['seed']} repetitions={result['repetitions']} "
          f"kernel_ms={host['kernel_ms']} raw_wall_s={host['raw_wall_s']}")
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:14.6g} {metric['unit']:8s} n={metric['n']}")
    print("counts " + json.dumps(result["counts"], sort_keys=True) + f" digest={result['digest']}")
    for failure in result["failures"]:
        print("FAILED " + failure.replace("\n", " | "))
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in result["metrics"].items()
        },
    }
    print(json.dumps(line), flush=True)


# ----------------------------------------------------------------------
# Summary form
# ----------------------------------------------------------------------
def run_all(seed: int, runs: int, seconds: float, trace: bool) -> int:
    """Every workload ``runs`` times, each run a fresh process of this
    script with its own seed; prints and writes the summary."""
    names = list(WORKLOADS)
    per_workload: Dict[str, List[dict]] = {name: [] for name in names}
    ok = True
    for index in range(runs):
        order = names if index % 2 == 0 else names[::-1]
        for name in order:
            proc = subprocess.run(
                [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", name,
                    "--seed", str(seed + index),
                    "--seconds", str(seconds),
                    "--trace", "1" if trace else "0",
                ],
                cwd=str(ROOT),
                capture_output=True,
                text=True,
            )
            try:
                line = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                line = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            ok &= proc.returncode == 0 and line["correct"]
            per_workload[name].append(line)
            print(f"run {index + 1}/{runs} {name} seed={seed + index} correct={line['correct']}", flush=True)
    summary = {}
    for name in names:
        lines = per_workload[name]
        summary[name] = {"attempted": sum(l["attempted"] for l in lines),
                         "failed": sum(l["failed"] for l in lines),
                         "metrics": {}}
        for metric in (PER_LAYER if trace else END_TO_END):
            values = [l["metrics"][metric.name]["value"] for l in lines if metric.name in l["metrics"]]
            if not values:
                continue
            entry = describe(values)
            entry.update(unit=metric.unit, values=values)
            summary[name]["metrics"][metric.name] = entry
            spread = entry["spread"]
            print(f"{name:13s} {metric.name:28s} median {entry['median']:12.6g} {metric.unit:7s} "
                  f"q1 {entry['q1']:12.6g} q3 {entry['q3']:12.6g} spread {spread:7.4f} n={entry['n']}")
    OUT.mkdir(exist_ok=True)
    (OUT / ("summary-trace.json" if trace else "summary.json")).write_text(
        json.dumps(summary, indent=1, sort_keys=True)
    )
    return 0 if ok else 1


def describe(values: List[float]) -> dict:
    """Median, quartiles, n and the quartile spread as a share of the median."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "spread": (q3 - q1) / abs(median) if median else float("inf"),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=CONFIG["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=10, help="runs per workload (--workload all)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.runs, args.seconds, bool(args.trace))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
