"""Golden of the exported metric series: names, labels, help and values.

``tests/golden/metrics_snapshots.json`` holds the canonical JSON
:func:`~repro.telemetry.snapshot` of four telemetry-enabled runs that
together reach every component that exports a series:

- ``single_row``: the golden single-row experiment (80 servers, 2 h,
  seed 42) with reactive capping and the ``flaky-rpc`` scenario
  (engine, monitor, controller and its health, event log, RPC proxy);
- ``fleet``: two rows under a coordinator with the safety ladder, the
  auditor and a tenant mix (coordinator, breakers, ladder, auditor,
  tenancy accountant);
- ``data_chaos``: one row under ``data-chaos`` with the safety ladder
  (surge, sensor drift and a crash storm);
- ``monitor_outage``: a bare monitor over one group with one
  monitoring outage (the only run that suppresses sweeps).

Each run is rebuilt and compared byte for byte, both through the result
and through the live registry. If a series changes on purpose,
regenerate with::

    python -c "import tests.test_metrics_golden as g; g.regenerate()"
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.group import ServerGroup
from repro.core.safety import SafetyConfig
from repro.faults.scenario import builtin_scenarios
from repro.fleet.config import FleetConfig
from repro.monitor.power_monitor import PowerMonitor
from repro.sim.audit import AuditorConfig
from repro.sim.engine import Engine
from repro.sim.experiment import ControlledExperiment, ExperimentConfig
from repro.sim.fleet_experiment import (
    FleetExperiment,
    FleetExperimentConfig,
    FleetRowSpec,
)
from repro.sim.testbed import WorkloadSpec
from repro.telemetry import Telemetry, snapshot
from repro.tenancy.config import builtin_mixes
from tests.conftest import make_servers
from tests.test_golden import golden_config

GOLDEN_PATH = Path(__file__).parent / "golden" / "metrics_snapshots.json"


def _canonical(registry) -> str:
    return json.dumps(snapshot(registry), indent=1, sort_keys=True)


def _run(run) -> tuple:
    """The result's registry and the live one, both rendered."""
    result = run.run()
    return _canonical(result.telemetry), _canonical(run.telemetry.registry)


def single_row() -> tuple:
    config = replace(
        golden_config(),
        capping_enabled=True,
        faults=builtin_scenarios()["flaky-rpc"],
        telemetry_enabled=True,
    )
    return _run(ControlledExperiment(config))


def fleet() -> tuple:
    # a hot row and a cold donor row: the coordinator moves budget
    hot = WorkloadSpec(target_utilization=0.40, bursts_per_day=4.0, burst_factor=1.3)
    cold = WorkloadSpec(target_utilization=0.06)
    config = FleetExperimentConfig(
        rows=(FleetRowSpec(40, hot), FleetRowSpec(40, cold)),
        fleet=FleetConfig(policy="proportional"),
        duration_hours=1.5,
        warmup_hours=0.375,
        over_provision_ratio=0.25,
        safety=SafetyConfig(),
        auditor=AuditorConfig(),
        tenancy=builtin_mixes()["critical-batch"],
        telemetry_enabled=True,
        seed=7,
    )
    return _run(FleetExperiment(config))


def data_chaos() -> tuple:
    config = ExperimentConfig(
        n_servers=80,
        duration_hours=1.5,
        warmup_hours=1.0,
        over_provision_ratio=0.25,
        workload=WorkloadSpec(target_utilization=0.33, modulation_sigma=0.05),
        faults=builtin_scenarios()["data-chaos"],
        safety=SafetyConfig(),
        telemetry_enabled=True,
        seed=42,
    )
    return _run(ControlledExperiment(config))


def monitor_outage() -> tuple:
    telemetry = Telemetry.create()
    engine = Engine(telemetry=telemetry)
    monitor = PowerMonitor(engine, rng=np.random.default_rng(1), telemetry=telemetry)
    monitor.register_group(ServerGroup("g", make_servers(20)))
    engine.schedule_periodic(60.0, 0, monitor.sample_once, until=3600.0)
    engine.schedule(1200.0, 0, monitor.begin_outage)
    engine.schedule(1500.0, 0, monitor.end_outage)
    engine.run(until=3600.0)
    text = _canonical(telemetry.registry)
    return text, text


RUNS = {
    "single_row": single_row,
    "fleet": fleet,
    "data_chaos": data_chaos,
    "monitor_outage": monitor_outage,
}


def regenerate() -> None:  # pragma: no cover - maintenance helper
    docs = {name: json.loads(build()[0]) for name, build in RUNS.items()}
    GOLDEN_PATH.write_text(json.dumps(docs, indent=1, sort_keys=True) + "\n")


@pytest.mark.parametrize("name", sorted(RUNS))
def test_exported_series_match_golden(name):
    expected = json.dumps(
        json.loads(GOLDEN_PATH.read_text())[name], indent=1, sort_keys=True
    )
    from_result, live = RUNS[name]()
    assert from_result == expected
    assert live == expected


def test_golden_covers_every_exporting_component():
    docs = json.loads(GOLDEN_PATH.read_text())
    names = set().union(*(set(doc) for doc in docs.values()))
    for prefix in (
        "repro_engine_",
        "repro_monitor_",
        "repro_controller_",
        "repro_controller_health_",
        "repro_control_events_",
        "repro_scheduler_rpc_",
        "repro_fleet_",
        "repro_breaker_",
        "repro_safety_",
        "repro_auditor_",
        "repro_tenant_",
    ):
        assert any(name.startswith(prefix) for name in names), prefix
