"""Figure 11: interactive tail latency under capping vs. under Ampere.

The paper deploys a Redis cluster on an over-provisioned row
(``r_O = 0.25``) running production batch load, drives redis-benchmark
from uncontrolled clients, and compares client-side p99.9 latency when
row power is enforced by DVFS power capping versus by Ampere. Capping
almost doubles tail latency on every operation because Redis is
CPU-bound; Ampere leaves running services untouched.

This harness reproduces that comparison end-to-end on the simulator: the
same row, workload and service placement, with the enforcement mechanism
swapped between runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.cluster.capping import CappingEngine
from repro.core.config import AmpereConfig
from repro.core.controller import AmpereController
from repro.core.freeze_model import FreezeEffectModel
from repro.sim.testbed import Testbed, WorkloadSpec
from repro.workload.interactive import (
    InteractiveService,
    LatencyReport,
    RedisBenchmark,
)


@dataclass(frozen=True)
class InteractiveExperimentConfig:
    """Setup shared by both enforcement modes."""

    n_servers: int = 400
    n_services: int = 20
    service_cores: float = 8.0
    over_provision_ratio: float = 0.25
    duration_hours: float = 4.0
    warmup_hours: float = 1.0
    # The diurnal peak is phased into the middle of the measurement window
    # so the enforcement mechanism (capping or Ampere) is actually
    # exercised, as in the paper's experiment where row power repeatedly
    # reaches the budget.
    workload: WorkloadSpec = WorkloadSpec(
        target_utilization=0.30,
        diurnal_amplitude=0.12,
        diurnal_phase_seconds=-10800.0,
    )
    benchmark_utilization: float = 0.35
    max_requests_per_server: int = 500_000
    capping_interval_seconds: float = 5.0
    capping_strategy: str = "hottest-first"
    ampere: AmpereConfig = AmpereConfig()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_services <= 0 or self.n_services > self.n_servers:
            raise ValueError(
                f"n_services must be in [1, {self.n_servers}], got {self.n_services}"
            )


@dataclass
class InteractiveScenarioResult:
    """Latency reports plus capping exposure for one enforcement mode."""

    mode: str
    reports: Dict[str, LatencyReport]
    fraction_service_time_capped: float
    violations: int
    u_mean: float

    def p999(self, operation: str) -> float:
        return self.reports[operation].p999


def run_interactive_scenario(
    mode: str, config: InteractiveExperimentConfig = InteractiveExperimentConfig()
) -> InteractiveScenarioResult:
    """Run one enforcement mode: ``"capping"`` or ``"ampere"``.

    In ``"ampere"`` mode the capping safety net stays armed underneath the
    controller, exactly as in the paper's production deployment.
    """
    if mode not in ("capping", "ampere"):
        raise ValueError(f"mode must be 'capping' or 'ampere', got {mode!r}")
    testbed = Testbed(rows=(config.n_servers,), seed=config.seed)
    row = testbed.row
    row.set_over_provision_ratio(config.over_provision_ratio)
    testbed.monitor.register_group(row)

    # Pin one service per stride so services spread across racks.
    stride = config.n_servers // config.n_services
    services: List[InteractiveService] = []
    for i in range(config.n_services):
        server = row.servers[i * stride]
        services.append(
            InteractiveService(
                server, testbed.engine, testbed.scheduler, cores=config.service_cores
            )
        )

    warmup = config.warmup_hours * 3600.0
    end = warmup + config.duration_hours * 3600.0
    generator = testbed.add_batch_workload(config.workload, end)
    generator.start(end)
    testbed.monitor.start(end, first_at=warmup)

    capping = CappingEngine(
        row,
        testbed.engine,
        interval=config.capping_interval_seconds,
        strategy=config.capping_strategy,
    )
    capping.start(end, first_at=warmup)

    controller = None
    if mode == "ampere":
        controller = AmpereController(
            testbed.engine,
            testbed.scheduler,
            testbed.monitor,
            [row],
            config=config.ampere,
            freeze_model=FreezeEffectModel(),
        )
        controller.start(end, first_at=warmup)

    testbed.engine.run(until=end)

    benchmark = RedisBenchmark(
        services,
        rng=np.random.default_rng(config.seed + 97),
        target_utilization=config.benchmark_utilization,
        max_requests_per_server=config.max_requests_per_server,
    )
    reports = benchmark.run_all(warmup, end)
    capped_fraction = float(
        np.mean([s.fraction_time_capped(warmup, end) for s in services])
    )
    u_mean = controller.state_of(row.name).u_mean if controller is not None else 0.0
    return InteractiveScenarioResult(
        mode=mode,
        reports=reports,
        fraction_service_time_capped=capped_fraction,
        violations=testbed.monitor.violation_count(row.name),
        u_mean=u_mean,
    )


def run_interactive_comparison(
    config: InteractiveExperimentConfig = InteractiveExperimentConfig(),
) -> Dict[str, InteractiveScenarioResult]:
    """Run both modes on identical setups; returns ``{mode: result}``."""
    return {
        "capping": run_interactive_scenario("capping", config),
        "ampere": run_interactive_scenario("ampere", config),
    }


__all__ = [
    "InteractiveExperimentConfig",
    "InteractiveScenarioResult",
    "run_interactive_scenario",
    "run_interactive_comparison",
]
