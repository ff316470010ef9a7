"""The control-plane wiring both staged shapes share.

:class:`~repro.sim.staged.StagedRun` builds every controller, breaker
and safety supervisor from the shared config, starts every service in
one order, and attaches the fault injector through one hook per shape.
These tests pin that wiring for every combination of the switches that
decide which services exist, and pin that a fault scenario whose events
no seam of the run receives is refused at build time and reported as
``ignored`` when armed mid-run -- never silently dropped.
"""

import itertools
from collections import Counter

import pytest

from repro.core.safety import SafetyConfig
from repro.faults.injector import FaultInjector
from repro.faults.scenario import FaultScenario, builtin_scenarios
from repro.sim.audit import AuditorConfig
from repro.sim.engine import Engine, _PeriodicTask
from repro.sim.events import EventPriority
from repro.sim.experiment import ControlledExperiment, ExperimentConfig
from repro.sim.fleet_experiment import (
    FleetExperiment,
    FleetExperimentConfig,
    FleetRowSpec,
)
from repro.sim.testbed import WorkloadSpec
from repro.tenancy import builtin_mixes

BUILTIN = builtin_scenarios()
#: the builtins plus a tenant surge the ``even-pair`` fleet can receive
SCENARIOS = {
    **BUILTIN,
    "left-surge": FaultScenario(name="left-surge", tenant_surges=(("left", 4200.0, 600.0, 2.0),)),
}

#: safety switch -> config value (None, supervisor on, supervisor off)
SAFETY = {
    "none": None,
    "supervisor": SafetyConfig(),
    "breaker-only": SafetyConfig(supervisor_enabled=False),
}


def single_row(**overrides) -> ControlledExperiment:
    fields = dict(
        n_servers=40,
        duration_hours=0.5,
        warmup_hours=0.1,
        workload=WorkloadSpec(target_utilization=0.3),
        seed=5,
    )
    fields.update(overrides)
    return ControlledExperiment(ExperimentConfig(**fields))


def fleet(**overrides) -> FleetExperiment:
    fields = dict(
        rows=(
            FleetRowSpec(40, WorkloadSpec(target_utilization=0.35)),
            FleetRowSpec(40, WorkloadSpec(target_utilization=0.1)),
        ),
        duration_hours=0.5,
        warmup_hours=0.1,
        seed=5,
    )
    fields.update(overrides)
    return FleetExperiment(FleetExperimentConfig(**fields))


def periodic_tasks(run) -> Counter:
    """(priority, id of the ticking service) of every periodic heap entry."""
    return Counter(
        (entry[1], id(entry[4].callback.__self__))
        for entry in run.engine._heap
        if isinstance(entry[4], _PeriodicTask)
    )


def expected_tasks(run) -> Counter:
    """One periodic task per registered service, at its own priority."""
    services = [(EventPriority.MONITOR_SAMPLE, run.monitor)]
    services += [(EventPriority.CONTROLLER_TICK, c) for c in run.controllers().values()]
    services += [(EventPriority.SAFETY_TICK, s) for s in run.supervisors().values()]
    services += [(EventPriority.BREAKER_TICK, b) for b in run.breakers().values()]
    if run.capping is not None:
        services.append((EventPriority.CAPPING_TICK, run.capping))
    if run.auditor is not None:
        services.append((EventPriority.AUDIT_TICK, run.auditor))
    coordinator = getattr(run, "coordinator", None)
    if coordinator is not None:
        services.append((EventPriority.COORDINATOR_TICK, coordinator))
    return Counter((int(priority), id(service)) for priority, service in services)


# ---------------------------------------------------------------------------
# Registries and armed services, per switch combination
# ---------------------------------------------------------------------------

SINGLE_ROW_CASES = list(
    itertools.product([True, False], [True, False], sorted(SAFETY), [False, True])
)


@pytest.mark.parametrize("ampere, capping, safety, audited", SINGLE_ROW_CASES)
def test_single_row_wiring(ampere, capping, safety, audited):
    run = single_row(
        ampere_enabled=ampere,
        capping_enabled=capping,
        safety=SAFETY[safety],
        auditor=AuditorConfig() if audited else None,
    )
    protected = ["experiment"]
    assert sorted(run.groups()) == ["control", "experiment"]
    assert sorted(run.controllers()) == (protected if ampere else [])
    assert sorted(run.breakers()) == (protected if safety != "none" else [])
    assert sorted(run.supervisors()) == (protected if safety == "supervisor" else [])
    assert (run.controller is not None) == ampere
    assert (run.capping is not None) == capping
    assert (run.breaker is not None) == (safety != "none")
    assert (run.safety is not None) == (safety == "supervisor")
    assert (run.auditor is not None) == audited
    if safety == "supervisor" and capping:
        # The ladder slams the reactive capping engine when one runs.
        assert run.safety.capping is run.capping

    run.start()
    tasks = periodic_tasks(run)
    assert tasks == expected_tasks(run)
    per_priority = Counter(priority for priority, _ in tasks)
    assert per_priority[int(EventPriority.MONITOR_SAMPLE)] == 1
    assert per_priority[int(EventPriority.CONTROLLER_TICK)] == int(ampere)
    assert per_priority[int(EventPriority.SAFETY_TICK)] == int(safety == "supervisor")
    assert per_priority[int(EventPriority.CAPPING_TICK)] == int(capping)
    assert per_priority[int(EventPriority.BREAKER_TICK)] == int(safety != "none")
    assert per_priority[int(EventPriority.AUDIT_TICK)] == int(audited)
    assert per_priority[int(EventPriority.COORDINATOR_TICK)] == 0


FLEET_CASES = list(itertools.product(sorted(SAFETY), [True, False], [False, True]))


@pytest.mark.parametrize("safety, coordinated, audited", FLEET_CASES)
def test_fleet_wiring(safety, coordinated, audited):
    run = fleet(
        safety=SAFETY[safety],
        coordinator_enabled=coordinated,
        auditor=AuditorConfig() if audited else None,
    )
    rows = ["row-0", "row-1"]
    assert sorted(run.groups()) == rows
    assert sorted(run.controllers()) == rows
    # Breakers are armed regardless of ``safety``.
    assert sorted(run.breakers()) == rows
    assert sorted(run.supervisors()) == (rows if safety == "supervisor" else [])
    assert (run.coordinator is not None) == coordinated
    assert run.capping is None
    for name, breaker in run.breakers().items():
        assert breaker.rating_watts == run.ledger.row(name).rating_watts

    run.start()
    tasks = periodic_tasks(run)
    assert tasks == expected_tasks(run)
    per_priority = Counter(priority for priority, _ in tasks)
    assert per_priority[int(EventPriority.MONITOR_SAMPLE)] == 1
    assert per_priority[int(EventPriority.CONTROLLER_TICK)] == 2
    assert per_priority[int(EventPriority.BREAKER_TICK)] == 2
    assert per_priority[int(EventPriority.SAFETY_TICK)] == (2 if safety == "supervisor" else 0)
    assert per_priority[int(EventPriority.COORDINATOR_TICK)] == int(coordinated)
    assert per_priority[int(EventPriority.AUDIT_TICK)] == int(audited)
    assert per_priority[int(EventPriority.CAPPING_TICK)] == 0


def test_fleet_breakers_default_to_the_safety_config_defaults():
    defaults = SafetyConfig()
    for breaker in fleet().breakers().values():
        assert breaker.curve == defaults.breaker
        assert breaker.interval == defaults.breaker_interval_seconds
        assert breaker.reset_delay_seconds == defaults.breaker_reset_minutes * 60.0


# ---------------------------------------------------------------------------
# Fault seams: refused at build time, reported when armed mid-run
# ---------------------------------------------------------------------------

REFUSED_AT_BUILD = [
    ("fleet", {}, "flaky-rpc", ["rpc"]),
    ("fleet", {}, "crash", ["crash_times"]),
    ("fleet", {}, "crash-storm", ["server_failures"]),
    ("fleet", {}, "chaos", ["rpc", "crash_times"]),
    ("fleet", {}, "data-chaos", ["server_failures"]),
    ("fleet", {}, "tenant-skew", ["tenant_surges"]),
    # Two rows of the even-pair mix: no tenant the windows name owns a row.
    ("fleet", {"tenancy": builtin_mixes()["even-pair"]}, "tenant-skew", ["tenant_surges"]),
    ("fleet", {"coordinator_enabled": False}, "fleet-blackout", ["coordinator_blackouts"]),
    ("single-row", {}, "fleet-blackout", ["coordinator_blackouts"]),
    ("single-row", {}, "tenant-skew", ["tenant_surges"]),
    ("single-row", {"ampere_enabled": False}, "crash", ["crash_times"]),
    ("single-row", {"ampere_enabled": False}, "flaky-rpc", ["rpc"]),
    ("single-row", {"ampere_enabled": False}, "chaos", ["rpc", "crash_times"]),
]

SHAPES = {"single-row": single_row, "fleet": fleet}


@pytest.mark.parametrize(
    "shape, overrides, scenario, seams",
    REFUSED_AT_BUILD,
    ids=[f"{shape}-{scenario}-{'-'.join(o) or 'default'}" for shape, o, scenario, _ in
         REFUSED_AT_BUILD],
)
def test_build_refuses_events_no_seam_receives(shape, overrides, scenario, seams):
    with pytest.raises(ValueError) as info:
        SHAPES[shape](faults=SCENARIOS[scenario], **overrides)
    message = str(info.value)
    assert repr(scenario) in message
    assert message.endswith(": " + ", ".join(seams))


ACCEPTED_AT_BUILD = [
    ("single-row", {}, name)
    for name in sorted(BUILTIN)
    if name not in ("fleet-blackout", "tenant-skew")
] + [
    ("single-row", {"tenancy": builtin_mixes()["three-tier"]}, "tenant-skew"),
    ("fleet", {}, "blackout"),
    ("fleet", {}, "sensor-drift"),
    ("fleet", {}, "surge"),
    ("fleet", {}, "fleet-blackout"),
    ("fleet", {"tenancy": builtin_mixes()["even-pair"]}, "left-surge"),
]


@pytest.mark.parametrize(
    "shape, overrides, scenario",
    ACCEPTED_AT_BUILD,
    ids=[f"{shape}-{scenario}" for shape, _, scenario in ACCEPTED_AT_BUILD],
)
def test_build_attaches_every_seam_it_accepts(shape, overrides, scenario):
    run = SHAPES[shape](faults=SCENARIOS[scenario], **overrides)
    assert run.injector.unattached_seams() == []


RUNTIME_CASES = [
    ("fleet", {}, "crash", ["crash_times"]),
    ("fleet", {}, "flaky-rpc", ["rpc"]),
    ("fleet", {}, "crash-storm", ["server_failures"]),
    ("fleet", {}, "surge", ["surges"]),
    ("fleet", {}, "blackout", []),
    ("fleet", {}, "fleet-blackout", []),
    ("fleet", {"coordinator_enabled": False}, "fleet-blackout", ["coordinator_blackouts"]),
    ("single-row", {}, "fleet-blackout", ["coordinator_blackouts"]),
    ("single-row", {}, "flaky-rpc", ["rpc"]),
    ("single-row", {}, "chaos", ["rpc"]),
    ("single-row", {}, "surge", ["surges"]),
    ("single-row", {}, "data-chaos", ["surges"]),
    ("single-row", {}, "crash", []),
    ("single-row", {"ampere_enabled": False}, "crash", ["crash_times"]),
    ("single-row", {"tenancy": builtin_mixes()["three-tier"]}, "tenant-skew", ["tenant_surges"]),
]


@pytest.mark.parametrize(
    "shape, overrides, scenario, seams",
    RUNTIME_CASES,
    ids=[f"{shape}-{scenario}-{'-'.join(o) or 'default'}" for shape, o, scenario, _ in
         RUNTIME_CASES],
)
def test_arm_faults_reports_unreached_seams(shape, overrides, scenario, seams):
    run = SHAPES[shape](**overrides)
    run.start()
    run.advance(600.0)
    pending = run.engine.pending_count()
    report = run.arm_faults(SCENARIOS[scenario])
    assert report["ignored"] == seams
    assert report["scenario"] == scenario
    if seams == FaultInjector(run.engine, BUILTIN[scenario]).unattached_seams():
        # Every seam of the scenario was ignored: arming scheduled nothing.
        assert run.engine.pending_count() == pending


def test_bare_injector_lists_every_seam_with_events():
    everything = FaultScenario(
        blackouts=((100.0, 60.0),),
        sensor_bias=((300.0, 60.0, 0.9),),
        rpc_failure_rate=0.1,
        crash_times=(500.0,),
        server_mtbf_hours=100.0,
        surges=((700.0, 60.0, 2.0),),
        tenant_surges=(("alpha", 900.0, 60.0, 2.0),),
        coordinator_blackouts=((1100.0, 60.0),),
    )
    injector = FaultInjector(Engine(), everything)
    assert injector.unattached_seams() == [
        "blackouts",
        "sensor_bias",
        "rpc",
        "crash_times",
        "server_failures",
        "surges",
        "tenant_surges",
        "coordinator_blackouts",
    ]
    assert FaultInjector(Engine(), FaultScenario()).unattached_seams() == []
    # An untenanted workload takes shared surges but no tenant surges,
    # and a tenanted one only surges naming its own tenants.
    injector.attach_workload(())
    assert "surges" not in injector.unattached_seams()
    assert "tenant_surges" in injector.unattached_seams()
    injector.attach_workload(("alpha", "bravo"))
    assert "tenant_surges" not in injector.unattached_seams()
    injector.attach_workload(("bravo",))
    assert "tenant_surges" in injector.unattached_seams()
