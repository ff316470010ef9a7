"""Robustness: Ampere under continuous server failures.

Not a paper figure -- a production-readiness check the paper's stateless
design implies: machines crash and return constantly at fleet scale, and
the controller must keep the row under budget regardless (it re-derives
the frozen set from the scheduler every interval, and a failed server
simply reads 0 W in the power snapshot).
"""

import numpy as np

from benchmarks.conftest import once, print_header
from repro.analysis.report import render_table
from repro.sim.experiment import ControlledExperiment, ExperimentConfig
from repro.sim.failures import ServerFailureInjector
from repro.sim.testbed import WorkloadSpec
from tests.conftest import assert_tracker_invariant


def run_with_failures(mtbf_hours: float, seed: int = 2):
    config = ExperimentConfig(
        n_servers=400,
        duration_hours=8.0,
        warmup_hours=1.0,
        over_provision_ratio=0.25,
        workload=WorkloadSpec.heavy(),
        seed=seed,
    )
    experiment = ControlledExperiment(config)
    injector = None
    if mtbf_hours > 0:
        injector = ServerFailureInjector(
            experiment.testbed.engine,
            experiment.testbed.scheduler,
            np.random.default_rng(seed + 11),
            mtbf_hours=mtbf_hours,
            mttr_minutes=45.0,
        )
        injector.start(config.end_seconds)
    result = experiment.run()
    return result, injector, experiment


def test_robustness_under_failures(benchmark):
    results = once(
        benchmark,
        lambda: {
            "no failures": run_with_failures(0.0),
            "mtbf 500h": run_with_failures(500.0),
            "mtbf 100h": run_with_failures(100.0),
        },
    )

    print_header("Robustness: heavy workload with server churn (8h)")
    rows = []
    for name, (result, injector, experiment) in results.items():
        summary = result.experiment.summary
        failures = injector.stats.failures if injector else 0
        killed = injector.stats.jobs_killed if injector else 0
        rows.append(
            [name, str(failures), str(killed), str(summary.violations),
             f"{summary.u_mean:.1%}", f"{result.r_t:.3f}"]
        )
    print(render_table(
        ["scenario", "failures", "jobs killed", "viol(exp)", "u_mean", "r_T"], rows))

    for name, (result, injector, experiment) in results.items():
        # The controller keeps the over-provisioned group essentially
        # violation-free regardless of churn.
        assert result.experiment.summary.violations <= 3, name
        # And the bookkeeping never drifts.
        assert_tracker_invariant(experiment.testbed.scheduler.tracker)
    churn = results["mtbf 100h"][1]
    assert churn is not None and churn.stats.failures > 10
