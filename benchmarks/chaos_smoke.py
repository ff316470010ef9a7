"""CI chaos smoke: run one builtin fault scenario twice, demand identity.

Each CI matrix leg picks a scenario name, runs a short seeded experiment
with the safety ladder armed, then runs the *same* configuration a second
time and compares the full serialized result documents. Any unhandled
exception or byte-level divergence between the two runs fails the leg:
hazard injection must be crash-free and deterministic per seed.

Scenarios that include coordinator-blackout windows run on the
multi-row fleet harness (the only place a coordinator exists to black
out); everything else runs the single-row controlled experiment.
Scenarios with per-tenant surge windows (``tenant-skew``) enable the
``three-tier`` tenant mix so the named tenants exist to surge against.

Usage::

    PYTHONPATH=src python benchmarks/chaos_smoke.py --scenario chaos
    PYTHONPATH=src python benchmarks/chaos_smoke.py --scenario fleet-blackout
    PYTHONPATH=src python benchmarks/chaos_smoke.py --scenario chaos --audit

Exit status: 0 on success, 1 on nondeterminism, 2 on crash.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from repro.core.safety import SafetyConfig
from repro.faults.scenario import builtin_scenarios
from repro.analysis.serialize import fleet_result_to_dict, result_to_dict
from repro.sim.audit import AuditorConfig
from repro.sim.experiment import ControlledExperiment, ExperimentConfig
from repro.sim.testbed import WorkloadSpec
from repro.tenancy import builtin_mixes


def _auditor_config(args: argparse.Namespace):
    """Aggressive auditing for --audit legs: every tick-minute, full
    sweep, raise on the first violation (fails the leg with exit 2)."""
    if not args.audit:
        return None
    return AuditorConfig(
        interval_seconds=60.0, sample_fraction=1.0, on_violation="raise"
    )


def run_fleet_once(scenario_name: str, args: argparse.Namespace) -> str:
    """One seeded fleet run of the scenario (coordinator hazards)."""
    from repro.fleet.config import FleetConfig
    from repro.sim.fleet_experiment import (
        FleetExperiment,
        FleetExperimentConfig,
        FleetRowSpec,
    )

    config = FleetExperimentConfig(
        rows=(
            FleetRowSpec(
                n_servers=args.servers,
                workload=WorkloadSpec(
                    target_utilization=0.40,
                    bursts_per_day=4.0,
                    burst_factor=1.3,
                ),
            ),
            FleetRowSpec(
                n_servers=args.servers,
                workload=WorkloadSpec(target_utilization=0.06),
            ),
        ),
        duration_hours=args.hours,
        warmup_hours=1.0,  # builtin scenario times assume the 1 h warm-up
        over_provision_ratio=args.ratio,
        fleet=FleetConfig(policy="demand-following"),
        seed=args.seed,
        faults=builtin_scenarios()[scenario_name],
        safety=SafetyConfig(),
        telemetry_enabled=True,
        auditor=_auditor_config(args),
    )
    result = FleetExperiment(config).run()
    return json.dumps(fleet_result_to_dict(result), sort_keys=False)


def run_once(scenario_name: str, args: argparse.Namespace) -> str:
    """One seeded run of the scenario; returns the serialized document."""
    scenario = builtin_scenarios()[scenario_name]
    if scenario.coordinator_blackouts:
        return run_fleet_once(scenario_name, args)
    tenancy = builtin_mixes()["three-tier"] if scenario.tenant_surges else None
    config = ExperimentConfig(
        n_servers=args.servers,
        duration_hours=args.hours,
        warmup_hours=1.0,  # builtin scenario times assume the 1 h warm-up
        over_provision_ratio=args.ratio,
        workload=WorkloadSpec.typical(),
        capping_enabled=True,
        seed=args.seed,
        faults=builtin_scenarios()[scenario_name],
        safety=SafetyConfig(),
        telemetry_enabled=True,
        auditor=_auditor_config(args),
        tenancy=tenancy,
    )
    result = ControlledExperiment(config).run()
    return json.dumps(result_to_dict(result), sort_keys=False)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scenario",
        required=True,
        choices=sorted(builtin_scenarios()),
        help="builtin fault scenario to smoke-test",
    )
    parser.add_argument("--servers", type=int, default=40)
    parser.add_argument("--hours", type=float, default=2.0)
    parser.add_argument("--ratio", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--audit",
        action="store_true",
        help="arm the online state-invariant auditor at full sampling "
        "every sim-minute; any invariant violation crashes the leg",
    )
    args = parser.parse_args(argv)

    try:
        first = run_once(args.scenario, args)
        second = run_once(args.scenario, args)
    except Exception:
        traceback.print_exc()
        print(f"chaos smoke FAILED: scenario {args.scenario!r} crashed")
        return 2

    if first != second:
        print(
            f"chaos smoke FAILED: scenario {args.scenario!r} is "
            "nondeterministic (rerun produced a different document)"
        )
        return 1

    print(
        f"chaos smoke OK: scenario {args.scenario!r} ran twice, "
        f"{len(first)} byte document identical"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
