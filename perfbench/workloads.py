"""The benchmark's workloads: fixed experiment shapes built from a seed.

Every workload is a function of ``seed`` alone, so the same seed always
builds the same simulated inputs. ``engine_backend`` is left unset on
purpose: the benchmark measures whichever hot-loop path production
runs by default.

Run lengths and repetition counts here are the benchmark's, not the
program's. They are fixed, and sized so that a run stays within
BENCHMARK.json's ``run_seconds`` on a 2-vCPU machine in its slow
periods (nearly twice slower than its quiet ones).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict

SECONDS_PER_HOUR = 3600.0
#: fresh-process repetitions of one untraced run at the declared
#: ``run_seconds``; never depends on host or program speed. One is
#: enough once timings are scaled to the reference host (hostspeed.py)
REPETITIONS = 1


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    name: str
    #: "batch" (staged run driven in-process) or "service" (HTTP client)
    kind: str
    #: builds the unstarted staged experiment for a seed
    build: Callable[[int], object]
    #: set-ups timed by each untraced repetition after its run
    setup_repeats: int


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
#: (warm-up, measured) simulated hours: two paper days. The work per
#: seed is bimodal in short windows -- a burst anywhere inside the
#: horizon raises the thinning envelope, and with it the arrival
#: candidates, by 1.6x; no burst at all happens for 12% of seeds in
#: 25 h, for 5% in 37 h and for 2% in 49 h
PAPER_ROW_HOURS = (1.0, 48.0)


def build_paper_row(seed: int):
    """The paper's setting: one 400-server row, typical mix, Ampere on."""
    from repro.sim.experiment import ControlledExperiment, ExperimentConfig
    from repro.sim.testbed import WorkloadSpec

    warmup, duration = PAPER_ROW_HOURS
    return ControlledExperiment(
        ExperimentConfig(
            n_servers=400,
            warmup_hours=warmup,
            duration_hours=duration,
            over_provision_ratio=0.25,
            workload=WorkloadSpec.typical(),
            ampere_enabled=True,
            seed=seed,
        )
    )


FACILITY_HOURS = (0.5, 0.75)
#: WorkloadSpec.light() without its random bursts. A 3.4x burst that
#: lands in the window triples the work (102k jobs instead of 33k at
#: seed 1000 over 45 sim-minutes), a split no run can average at 10k
#: servers. Bursts stay measured on paper-row.
FACILITY_BURSTS_PER_DAY = 0.0
#: tight enough that the controller freezes inside the short window, so
#: the fair-share plan and the tenancy accountant run (at 0.25 the light
#: mix did not cross the control threshold in 45 sim-minutes)
FACILITY_OVER_PROVISION = 0.5


def build_facility_10k(seed: int):
    """One 10,000-server pool, burst-free light mix, three-tier tenants,
    fair freeze policy."""
    from repro.sim.experiment import ControlledExperiment, ExperimentConfig
    from repro.sim.testbed import WorkloadSpec
    from repro.tenancy import builtin_mixes

    warmup, duration = FACILITY_HOURS
    return ControlledExperiment(
        ExperimentConfig(
            n_servers=10_000,
            warmup_hours=warmup,
            duration_hours=duration,
            over_provision_ratio=FACILITY_OVER_PROVISION,
            workload=replace(WorkloadSpec.light(), bursts_per_day=FACILITY_BURSTS_PER_DAY),
            tenancy=replace(builtin_mixes()["three-tier"], policy="fair"),
            seed=seed,
        )
    )


#: every row runs burst-free: a row's random bursts raise its thinning
#: envelope, and host time follows the arrival candidates. A 3.4x light
#: burst triples its row's candidates for the seeds that draw one, and
#: with the heavy rows' 1.25x bursts on, the number of bursting rows
#: alone spread ten seeds' rates by 0.13. Bursts stay measured on
#: paper-row.
FLEET_HOURS = (0.25, 1.5)
#: the 2x demand surge: starts 2 sim-minutes into the measured window
#: and lasts 25 sim-minutes (the builtin 6x ``surge`` is far heavier)
FLEET_SURGE = (120.0, 1500.0, 2.0)


def build_fleet_surge(seed: int):
    """10 rows x 400 servers, heavy/light alternating, breakers, auditor,
    demand-following coordinator and a 2x demand surge."""
    from repro.core.safety import SafetyConfig
    from repro.faults.scenario import FaultScenario
    from repro.fleet.config import FleetConfig
    from repro.sim.audit import AuditorConfig
    from repro.sim.fleet_experiment import (
        FleetExperiment,
        FleetExperimentConfig,
        FleetRowSpec,
    )
    from repro.sim.testbed import WorkloadSpec

    warmup, duration = FLEET_HOURS
    offset, length, factor = FLEET_SURGE
    heavy = replace(WorkloadSpec.heavy(), bursts_per_day=0.0)
    light = replace(WorkloadSpec.light(), bursts_per_day=0.0)
    rows = tuple(
        FleetRowSpec(
            n_servers=400,
            workload=heavy if index % 2 == 0 else light,
        )
        for index in range(10)
    )
    return FleetExperiment(
        FleetExperimentConfig(
            rows=rows,
            warmup_hours=warmup,
            duration_hours=duration,
            over_provision_ratio=0.25,
            fleet=FleetConfig(policy="demand-following"),
            safety=SafetyConfig(),
            auditor=AuditorConfig(),
            faults=FaultScenario(
                name="surge-2x",
                surges=((warmup * SECONDS_PER_HOUR + offset, length, factor),),
            ),
            seed=seed,
        )
    )


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------
#: (warm-up, measured) simulated hours of the served experiment: two
#: thirds of a paper day. The typical mix runs burst-free here: a burst
#: anywhere in the horizon raises the work by 1.6x, no burst happens for
#: about a third of seeds in 16 h (see PAPER_ROW_HOURS), and bursts stay
#: measured on paper-row
SERVICE_HOURS = (1.0, 15.0)
SERVICE_BURSTS_PER_DAY = 0.0
#: auto-snapshot cadence in simulated seconds (SupervisorConfig units);
#: the horizon is a whole number of cadences
CHECKPOINT_EVERY = 4 * SECONDS_PER_HOUR
#: simulated seconds advanced by one POST /api/step: 120 steps to the
#: horizon. A whole number of RealTimeDriver's 60 s slices, and a whole
#: fraction of the cadence, so every checkpoint lands exactly on its
#: cadence
STEP_SECONDS = 480.0
#: observe GETs issued after every step, in this order; the four
#: together are one observe, timed as one read sample (120 per run)
READ_PATHS = ("/api/state", "/api/controllers", "/api/groups/experiment", "/metrics")
#: freeze+unfreeze act pairs (on the uncontrolled group) after every
#: step, 240 acts per run. Spikes of 5-11 ms hit a few percent of acts
#: at random, so act p90 sits where that tail starts. Two pairs halved
#: its spread over five runs, but every act logs a control event per
#: server of the group, which later steps publish: two pairs made the
#: run 40% longer and its peak memory 144 MB instead of 100 MB
ACT_PAIRS_PER_STEP = 1
ACT_GROUP = "control"
#: batch workloads: observes of the in-process operator probe, each one
#: build of every observe document timed as one read sample, and its
#: act pairs after the horizon (100 reads and 200 acts, so p90 has ten
#: samples or more beyond it)
PROBE_ROUNDS = 100
ACT_PAIRS = 100


def build_service_experiment(seed: int):
    """A paper-row-shaped experiment (burst-free) with telemetry on, as
    ``serve`` builds it by default."""
    from repro.sim.experiment import ControlledExperiment, ExperimentConfig
    from repro.sim.testbed import WorkloadSpec

    warmup, duration = SERVICE_HOURS
    return ControlledExperiment(
        ExperimentConfig(
            n_servers=400,
            warmup_hours=warmup,
            duration_hours=duration,
            over_provision_ratio=0.25,
            workload=replace(WorkloadSpec.typical(), bursts_per_day=SERVICE_BURSTS_PER_DAY),
            telemetry_enabled=True,
            seed=seed,
        )
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper-row",
            "batch",
            build_paper_row,
            setup_repeats=15,
        ),
        Workload(
            "facility-10k",
            "batch",
            build_facility_10k,
            setup_repeats=10,
        ),
        Workload(
            "fleet-surge",
            "batch",
            build_fleet_surge,
            setup_repeats=10,
        ),
        Workload(
            "service-step",
            "service",
            build_service_experiment,
            # each set-up ends with a service stop, which waits out the
            # HTTP server's 0.5 s shutdown poll
            setup_repeats=5,
        ),
    )
}
