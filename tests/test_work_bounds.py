"""Work bounds for the control loop and the layers built around it.

The paper's controller earns its place by being cheap: every minute one
monitor sweep, one RHC tick and one freeze plan run over a row. Each
check below prices one such contract by counting *work*, never by
reading a clock, so it gives the same answer on any host, run alone or
inside the full suite:

* counts the program keeps itself (audit passes, servers audited,
  coordinator ticks, frames encoded, WAL appends) are pinned exactly;
* Python work, counted by :class:`Work` from ``sys.settrace`` call and
  line events, is compared across fleet sizes or configurations. The
  absolute figures depend on the interpreter and numpy versions; the
  comparisons do not.

Each count is taken after a warm-up of the same code: the first run in
a process also pays for lazy imports and one-time caches (the first
fleet run counts ~10k extra calls inside the coordinator's first tick).

The wall-clock cost of the same layers on the real workloads is
perfbench's per-layer report (``python3 perfbench/run.py --workload
fleet-surge --trace 1``: ``monitor.sweep.self_s``, ``auditor.tick.calls``,
``tenancy.account.calls``, ``coordinator.tick.calls``,
``snapshot.encode.calls``, ``wal.append.calls``).
"""

from __future__ import annotations

import gc
import logging
import sys
import threading
import tracemalloc
from contextlib import contextmanager
from typing import List

import numpy as np
import pytest

from repro.cluster.capping import CappingEngine
from repro.cluster.datacenter import build_row
from repro.cluster.group import ServerGroup
from repro.cluster.power import PowerModelParams
from repro.cluster.server import Server
from repro.cluster.state import ClusterState
from repro.core.controller import AmpereController
from repro.core.policy import plan_freeze_set
from repro.core.safety import SafetyConfig, SafetySupervisor
from repro.faults.rpc import FlakyScheduler
from repro.fleet import FleetConfig
from repro.fleet.coordinator import FleetCoordinator
from repro.monitor.power_monitor import PowerMonitor
from repro.scheduler.base import InstrumentedScheduler
from repro.scheduler.omega import OmegaScheduler
from repro.service import views
from repro.service.driver import RealTimeDriver
from repro.service.supervisor import DriverSupervisor, SupervisorConfig
from repro.service.wal import ActWal, apply_act
from repro.sim.audit import AuditorConfig, StateAuditor
from repro.sim.engine import Engine
from repro.sim.eventlog import ControlEventLog
from repro.sim.events import EventPriority
from repro.sim.experiment import ControlledExperiment, ExperimentConfig
from repro.sim.fleet_experiment import (
    FleetExperiment,
    FleetExperimentConfig,
    FleetRowSpec,
)
from repro.sim.testbed import Testbed, WorkloadSpec
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Telemetry,
    Tracer,
    render_prometheus,
)
from repro.tenancy import (
    FairShareFreezePolicy,
    TenancyAccountant,
    TenancyConfig,
    TenantSpec,
    assign_to_tenants,
)
from repro.workload.generator import ArrivalStream
from tests.conftest import make_servers


class Work:
    """Python work done inside :meth:`count`.

    ``calls`` counts function-call events (a generator resuming counts
    as one); ``lines`` counts line events when ``lines=True``. With
    ``within`` set to a function (or a tuple of functions that never
    call one another), ``calls_within`` counts the calls made while one
    of them is on the stack, itself included, ``codes_within`` holds the
    code objects they entered, and ``calls_direct`` counts the calls
    made by its own frame. Calls made while ``skip`` runs inside it,
    ``skip`` included, count only in ``calls``.
    ``codes`` holds every code object entered.
    """

    def __init__(self, lines: bool = False, within=None, skip=None) -> None:
        self.calls = 0
        self.lines = 0
        self.calls_within = 0
        self.calls_direct = 0
        self.codes: set = set()
        self.codes_within: set = set()
        self._lines = lines
        if within is None:
            within = ()
        elif not isinstance(within, tuple):
            within = (within,)
        self._within = {function.__code__ for function in within}
        self._skip = skip.__code__ if skip is not None else None
        self._inside = False
        self._skipping = False

    @contextmanager
    def count(self):
        # A collection inside the window would run finalizers at points
        # that depend on what ran before it: collect now, then hold off.
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        previous = sys.gettrace()
        sys.settrace(self._on_call)
        try:
            yield self
        finally:
            sys.settrace(previous)
            if was_enabled:
                gc.enable()

    def _on_call(self, frame, event, arg):
        self.calls += 1
        self.codes.add(frame.f_code)
        if self._skipping:
            pass
        elif self._inside:
            if frame.f_code is self._skip:
                self._skipping = True
                return self._on_skip_event
            self.calls_within += 1
            self.codes_within.add(frame.f_code)
            if frame.f_back.f_code in self._within:
                self.calls_direct += 1
        elif frame.f_code in self._within:
            self._inside = True
            self.calls_within += 1
            return self._on_within_event
        return self._on_line if self._lines else None

    def _on_skip_event(self, frame, event, arg):
        if event == "line" and self._lines:
            self.lines += 1
        elif event == "return":
            self._skipping = False
        return self._on_skip_event

    def _on_line(self, frame, event, arg):
        if event == "line":
            self.lines += 1
        return self._on_line

    def _on_within_event(self, frame, event, arg):
        if event == "line" and self._lines:
            self.lines += 1
        elif event == "return":
            self._inside = False
        return self._on_within_event


@pytest.fixture(autouse=True)
def _logging_held_off():
    """Hold logging at one state, whatever handlers other tests left.

    ``logging.disable`` also clears every logger's level cache, so a
    count does not depend on which loggers ran earlier in the process.
    """
    previous = logging.root.manager.disable
    logging.disable(logging.CRITICAL)
    yield
    logging.disable(previous)


# ----------------------------------------------------------------------
# Monitor sweep and columnar state
# ----------------------------------------------------------------------
def _sweep_work(n_servers: int) -> Work:
    row = build_row(0, racks=n_servers // 40, servers_per_rack=40)
    monitor = PowerMonitor(Engine(), noise_sigma=0.01, rng=np.random.default_rng(7))
    monitor.register_group(row)
    monitor.sample_once()  # warm-up
    # Workload churn invalidates power between ticks in a real run;
    # charge the sweep for the recompute, not a cache hit.
    row.state.invalidate_power(row.state_indices)
    work = Work(lines=True)
    with work.count():
        monitor.sample_once()
    return work


def test_monitor_sweep_work_is_flat_from_400_to_10k_servers():
    """One sweep as every run takes it (true powers, measurement noise,
    power sum, TSDB writes) does the same Python work at 400 and 10k
    servers: every per-server step is an array expression, none a Python
    loop."""
    small = _sweep_work(400)
    large = _sweep_work(10_000)
    assert (large.calls, large.lines) == (small.calls, small.lines)


def test_columnar_memory_flat_to_100k():
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

    # Flat per-slot cost: 100k costs the same per server as 10k.
    assert per_slot_100k == per_slot_10k
    # Small in absolute terms -- a 100k facility fits in tens of MB.
    assert at_100k.nbytes < 64 * 2**20
    # And far below a Server object's footprint.
    assert per_slot_100k * 10 < per_object


# ----------------------------------------------------------------------
# Online auditor
# ----------------------------------------------------------------------
AUDIT_SERVERS = 200
AUDIT_HOURS = 4.0


def _audited_run(hours: float) -> ControlledExperiment:
    return ControlledExperiment(
        ExperimentConfig(
            n_servers=AUDIT_SERVERS,
            duration_hours=hours,
            warmup_hours=0.5,
            workload=WorkloadSpec.typical(),
            capping_enabled=True,
            safety=SafetyConfig(),
            seed=11,
            auditor=AuditorConfig(),
        )
    )


def test_default_auditor_samples_its_stratum_and_stays_under_5pct_of_calls():
    """At the default config (5-minute cadence, 25% sampling) the
    auditor makes exactly one pass per interval, examines a quarter of
    the slots per pass, and its calls stay under 5% of the run's."""
    _audited_run(0.25).run()  # warm-up
    run = _audited_run(AUDIT_HOURS)
    work = Work(within=StateAuditor.audit)
    with work.count():
        run.run()

    config = run.config.auditor
    passes = int(AUDIT_HOURS * 3600.0 / config.interval_seconds)
    stride = round(1.0 / config.sample_fraction)
    audited = sum(
        len(range(p % stride, AUDIT_SERVERS, stride)) for p in range(passes)
    )
    stats = run.auditor.stats
    assert (stats.passes, stats.servers_audited) == (passes, audited) == (48, 2400)
    assert work.calls_within < 0.05 * work.calls


# ----------------------------------------------------------------------
# Tenancy freeze tick
# ----------------------------------------------------------------------
def _freeze_tick_work(n_servers: int, n_freeze: int, fair: bool) -> List[Work]:
    """Three steady-state freeze ticks: fresh readings every tick, the
    previous tick's frozen set carried forward, as the controller runs."""
    config = TenancyConfig(
        tenants=(
            TenantSpec("alpha", sla="critical", share=0.2),
            TenantSpec("bravo", sla="standard", share=0.5),
            TenantSpec("charlie", sla="batch", share=0.3),
        )
    )
    tenant_of = assign_to_tenants(list(range(n_servers)), config)
    policy = FairShareFreezePolicy(tenant_of, config.weights(), config.names)
    accountant = TenancyAccountant(Engine(), config, tenant_of)
    rng = np.random.default_rng(7)
    ids = np.arange(n_servers)

    def readings() -> np.ndarray:
        return rng.uniform(100.0, 300.0, n_servers)

    def tick(powers, frozen):
        if not fair:
            return plan_freeze_set(powers, ids, n_freeze, frozen)
        plan = policy.plan(powers, ids, n_freeze, frozen)
        # the scheduler's listener call for each batch the plan sends
        accountant.on_control_event("unfreeze", ids[frozen & ~plan].tolist())
        accountant.on_control_event("freeze", ids[plan & ~frozen].tolist())
        return plan

    frozen = tick(readings(), np.zeros(n_servers, dtype=bool))  # warm-up: the cold first tick
    works = []
    for _ in range(3):
        powers = readings()
        work = Work(lines=True)
        with work.count():
            frozen = tick(powers, frozen)
        works.append(work)
    return works


def test_freeze_tick_calls_are_flat_in_the_quota():
    """At 10k servers the fair plan plus per-tenant accounting makes the
    same Python calls at 200 and 2,000 freezes: the tenant split is one
    sort of candidate grants, not a loop per grant. The tenancy-blind
    plan does the same Python work (calls and lines) at both quotas."""
    for fair in (True, False):
        small = _freeze_tick_work(10_000, 200, fair=fair)
        large = _freeze_tick_work(10_000, 2_000, fair=fair)
        assert [w.calls for w in large] == [w.calls for w in small]
        if not fair:
            assert [w.lines for w in large] == [w.lines for w in small]


def test_fair_freeze_tick_work_does_not_grow_with_fleet_size():
    """At a fixed quota the fair tick does the same Python work at 1k
    and 10k servers: it ranks the row with array operations."""
    small = _freeze_tick_work(1_000, 200, fair=True)
    large = _freeze_tick_work(10_000, 200, fair=True)
    assert [(w.calls, w.lines) for w in large] == [
        (w.calls, w.lines) for w in small
    ]


def test_tenant_column_is_8_bytes_per_slot():
    """The tenant-id column costs one int64 per slot, nothing more."""
    params = PowerModelParams()
    state = ClusterState(capacity=10_000)
    for i in range(10_000):
        state.add_server(i, 16, 64.0, params, 0.05)
    state.set_tenant(np.arange(0, 10_000, 3), 1)
    assert state.tenant_ids.nbytes / len(state.tenant_ids) == 8.0


# ----------------------------------------------------------------------
# Supervised service
# ----------------------------------------------------------------------
AUTO_SNAPSHOT_EVERY = 600.0
ACTS = ((1800.0, "freeze"), (3600.0, "unfreeze"), (5400.0, "freeze"))


def _service_run() -> ControlledExperiment:
    return ControlledExperiment(
        ExperimentConfig(
            n_servers=200,
            duration_hours=2.0,
            warmup_hours=0.25,
            workload=WorkloadSpec.typical(),
            seed=11,
            telemetry_enabled=False,
        )
    )


def _drive(driver: RealTimeDriver, log_act=None) -> None:
    """Step to the horizon with a few operator acts along the way."""
    for sim_time, op in ACTS:
        driver.step(until=sim_time)

        def act(op=op):
            doc = apply_act(driver.run, op, {"group": "experiment"})
            if log_act is not None:
                log_act(op, {"group": "experiment"})
            return doc

        driver.act(act, label=op)
    driver.step(until=driver.run.end_seconds)


def test_supervision_encodes_one_frame_per_cadence_and_appends_one_record_per_act(
    monkeypatch, tmp_path
):
    """With the wall-clock throttle off, the sim thread encodes the
    genesis frame plus one per cadence crossing, and the WAL takes one
    append per act; a bare driver encodes and appends nothing. (How many
    frames the watchdog adopts depends on thread timing: not pinned.)"""
    counts = {"encode": 0, "append": 0}
    snapshot = ControlledExperiment.snapshot
    append = ActWal.append

    def counted_snapshot(self):
        if threading.current_thread().name == "repro-sim-driver":
            counts["encode"] += 1
        return snapshot(self)

    def counted_append(self, *args, **kwargs):
        counts["append"] += 1
        return append(self, *args, **kwargs)

    monkeypatch.setattr(ControlledExperiment, "snapshot", counted_snapshot)
    monkeypatch.setattr(ActWal, "append", counted_append)

    bare = RealTimeDriver(_service_run(), mode="manual")
    bare.start()
    _drive(bare)
    bare.shutdown()
    assert counts == {"encode": 0, "append": 0}

    run = _service_run()
    supervisor = DriverSupervisor(
        run,
        mode="manual",
        config=SupervisorConfig(
            state_dir=str(tmp_path / "state"),
            auto_snapshot_every=AUTO_SNAPSHOT_EVERY,
            auto_snapshot_min_wall_seconds=0.0,
        ),
    )
    supervisor.start()
    try:
        _drive(supervisor.driver, log_act=supervisor.log_act)
        assert supervisor.recoveries == 0  # healthy run, no watchdog trips
    finally:
        supervisor.stop()
    crossings = int(run.end_seconds // AUTO_SNAPSHOT_EVERY)
    assert counts == {"encode": 1 + crossings, "append": len(ACTS)}
    assert counts["encode"] == 14


# ----------------------------------------------------------------------
# Fleet coordinator
# ----------------------------------------------------------------------
def _fleet_tick_calls(monkeypatch, servers_per_row: int):
    """Coordinator ticks of the 1.5 h two-row static fleet, and the
    Python calls each tick makes."""
    per_tick: List[int] = []
    tick = FleetCoordinator.tick

    def counted_tick(self):
        work = Work()
        with work.count():
            tick(self)
        per_tick.append(work.calls)

    config = FleetExperimentConfig(
        rows=(
            FleetRowSpec(
                n_servers=servers_per_row,
                workload=WorkloadSpec(
                    target_utilization=0.40,
                    bursts_per_day=4.0,
                    burst_factor=1.3,
                ),
            ),
            FleetRowSpec(
                n_servers=servers_per_row,
                workload=WorkloadSpec(target_utilization=0.06),
            ),
        ),
        duration_hours=1.5,
        warmup_hours=0.25,
        over_provision_ratio=0.25,
        seed=7,
        fleet=FleetConfig(policy="static"),
    )
    with monkeypatch.context() as patch:
        patch.setattr(FleetCoordinator, "tick", counted_tick)
        experiment = FleetExperiment(config)
        experiment.run()
    return experiment.coordinator.stats.ticks, per_tick


def test_coordinator_ticks_on_its_cadence_with_work_flat_in_row_size(monkeypatch):
    """The slow loop ticks once per ten control intervals, and a tick
    does the same Python work at 40 and 400 servers per row: it reads
    per-row aggregates, never per-server state."""
    _fleet_tick_calls(monkeypatch, 40)  # warm-up
    ticks_40, calls_40 = _fleet_tick_calls(monkeypatch, 40)
    ticks_400, calls_400 = _fleet_tick_calls(monkeypatch, 400)
    assert ticks_40 == ticks_400 == len(calls_40) == 8
    assert calls_400 == calls_40


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
def _telemetry_run_work(enabled: bool, hours: float = 1.0) -> Work:
    experiment = ControlledExperiment(
        ExperimentConfig(
            n_servers=80,
            duration_hours=hours,
            warmup_hours=0.1,
            workload=WorkloadSpec(target_utilization=0.3),
            seed=5,
            telemetry_enabled=enabled,
        )
    )
    work = Work()
    with work.count():
        experiment.run()
    return work


def _method_codes(*classes) -> set:
    codes = set()
    for cls in classes:
        for attribute in vars(cls).values():
            if isinstance(attribute, property):
                attribute = attribute.fget
            function = getattr(attribute, "__func__", attribute)
            code = getattr(function, "__code__", None)
            if code is not None:
                codes.add(code)
    return codes


def test_telemetry_costs_under_5pct_of_calls_and_nothing_when_off():
    """Telemetry on adds under 5% Python calls to a run; off, no call
    reaches the metrics registry, a live instrument or the tracer."""
    _telemetry_run_work(True, hours=0.2)  # warm-up
    off = _telemetry_run_work(False)
    on = _telemetry_run_work(True)
    assert on.calls <= 1.05 * off.calls
    live = _method_codes(MetricsRegistry, Counter, Gauge, Histogram, Tracer)
    assert not off.codes & live
    assert on.codes & live  # the probe sees telemetry when it runs


def _run_loop_work(enabled: bool) -> tuple:
    experiment = ControlledExperiment(
        ExperimentConfig(
            n_servers=80,
            duration_hours=0.5,
            warmup_hours=0.1,
            workload=WorkloadSpec(target_utilization=0.3),
            seed=5,
            telemetry_enabled=enabled,
        )
    )
    experiment.start()
    work = Work(within=Engine.run)
    with work.count():
        experiment.advance()
    return work, experiment.engine.events_processed


def test_engine_loop_makes_no_metric_call_and_the_same_calls_per_event():
    """With telemetry on, nothing the run loop does -- its own body or
    any callback it runs -- calls into a counter, a gauge or the
    registry: counts live in the components' fields. The loop's own
    frame makes exactly the calls it makes with telemetry off."""
    _run_loop_work(True)  # warm-up
    off, events_off = _run_loop_work(False)
    on, events_on = _run_loop_work(True)
    assert events_on == events_off > 1000
    assert not on.codes_within & _method_codes(MetricsRegistry, Counter, Gauge)
    assert on.calls_direct == off.calls_direct
    # one callback per event, plus the span and its attribute
    assert on.calls_direct <= events_on + 5


def _live_render_work(n_servers: int, extra_events: int = 0) -> Work:
    experiment = ControlledExperiment(
        ExperimentConfig(
            n_servers=n_servers,
            duration_hours=0.5,
            warmup_hours=0.1,
            workload=WorkloadSpec(target_utilization=0.3),
            seed=5,
            telemetry_enabled=True,
        )
    )
    experiment.advance(0.1 * 3600.0 + 150.0)  # warm-up plus three sweeps
    for i in range(extra_events):
        experiment.event_log.record("cap", i % n_servers)
    registry = experiment.telemetry.registry
    render_prometheus(registry)  # warm-up
    work = Work(lines=True)
    with work.count():
        render_prometheus(registry)
    return work


def test_scrape_work_is_flat_in_servers_and_logged_events():
    """One ``/metrics`` render of a live run does the same Python work at
    80 and 800 servers, and after 1k or 10k logged control events: every
    collector reads O(1) or O(groups) fields, never servers or events."""
    small = _live_render_work(80)
    large = _live_render_work(800)
    assert (small.calls, small.lines) == (large.calls, large.lines)
    thousand = _live_render_work(80, extra_events=1_000)
    ten_thousand = _live_render_work(80, extra_events=10_000)
    assert (thousand.calls, thousand.lines) == (ten_thousand.calls, ten_thousand.lines)


# ----------------------------------------------------------------------
# Observe documents
# ----------------------------------------------------------------------
def _observe_work(run, until: float) -> Work:
    """One build of each observe document the service's read path
    serves: the facility state, controller health and one controlled
    group."""
    run.advance(until)
    name = sorted(run.controllers())[0]

    def observe():
        views.state_doc(run)
        views.controllers_doc(run)
        views.group_doc(run, name)

    observe()  # warm-up
    work = Work(lines=True)
    with work.count():
        observe()
    return work


def _experiment_observe_work(n_servers: int) -> Work:
    run = ControlledExperiment(
        ExperimentConfig(
            n_servers=n_servers,
            duration_hours=0.5,
            warmup_hours=0.1,
            workload=WorkloadSpec(target_utilization=0.3),
            seed=5,
        )
    )
    return _observe_work(run, 0.1 * 3600.0 + 150.0)


def _fleet_observe_work(servers_per_row: int) -> Work:
    run = FleetExperiment(
        FleetExperimentConfig(
            rows=(
                FleetRowSpec(
                    n_servers=servers_per_row,
                    workload=WorkloadSpec(target_utilization=0.40),
                ),
                FleetRowSpec(
                    n_servers=servers_per_row,
                    workload=WorkloadSpec(target_utilization=0.06),
                ),
            ),
            duration_hours=0.5,
            warmup_hours=0.1,
            over_provision_ratio=0.25,
            seed=7,
            fleet=FleetConfig(policy="static"),
        )
    )
    return _observe_work(run, 0.1 * 3600.0 + 150.0)


def test_observe_work_is_flat_in_servers():
    """The state summary, controller health and group documents do the
    same Python work at 80 and 800 servers, and on a fleet at 40 and 400
    servers per row: counts, rated watts and the per-server columns are
    array reads of the group's slots, never a loop over servers."""
    _experiment_observe_work(80)  # warm-up
    small = _experiment_observe_work(80)
    large = _experiment_observe_work(800)
    assert (small.calls, small.lines) == (large.calls, large.lines)
    small = _fleet_observe_work(40)
    large = _fleet_observe_work(400)
    assert (small.calls, small.lines) == (large.calls, large.lines)


def _events_read_work(n_events: int) -> Work:
    """One ``kind=freeze&limit=1`` read of a log holding ``n_events``
    events, the newest of them a freeze."""
    run = ControlledExperiment(
        ExperimentConfig(
            n_servers=40,
            duration_hours=0.5,
            warmup_hours=0.1,
            workload=WorkloadSpec(target_utilization=0.3),
            seed=5,
        )
    )
    run.start()
    run.event_log.record_many("unfreeze", range(n_events - 1))
    run.event_log.record_many("freeze", (0,))
    views.events_doc(run, limit=1, kind="freeze")  # warm-up
    work = Work(lines=True)
    with work.count():
        doc = views.events_doc(run, limit=1, kind="freeze")
    assert doc["events"][0]["kind"] == "freeze"
    return work


def test_filtered_events_read_work_is_flat_in_log_length():
    """A kind-filtered tail read scans back from the newest event and
    takes its total from the per-kind counts: the same Python work at 1k
    and 100k logged events when the newest one matches."""
    small = _events_read_work(1_000)
    large = _events_read_work(100_000)
    assert (small.calls, small.lines) == (large.calls, large.lines)


# ----------------------------------------------------------------------
# Operator group acts
# ----------------------------------------------------------------------
def _group_act_work(n_servers: int) -> tuple:
    """One freeze+unfreeze pair on the uncontrolled group of a tenanted
    run, after a warm-up pair; returns the work and the servers each
    act changed."""
    run = ControlledExperiment(
        ExperimentConfig(
            n_servers=n_servers,
            duration_hours=0.5,
            warmup_hours=0.1,
            workload=WorkloadSpec(target_utilization=0.3),
            tenancy=TenancyConfig(
                tenants=(
                    TenantSpec("alpha", sla="critical", share=0.2),
                    TenantSpec("bravo", sla="standard", share=0.5),
                    TenantSpec("charlie", sla="batch", share=0.3),
                )
            ),
            seed=5,
        )
    )
    run.advance(0.1 * 3600.0 + 150.0)

    def act() -> list:
        return [
            apply_act(run, op, {"group": "control"})["servers_changed"]
            for op in ("freeze", "unfreeze")
        ]

    act()  # warm-up
    work = Work()
    with work.count():
        changed = act()
    return work, changed


def test_group_act_calls_are_flat_in_servers():
    """An operator freeze+unfreeze pair makes the same Python calls at
    80 and 800 servers: each act writes the group's frozen mask once,
    calls each control listener (the event log and the tenancy
    accountant) once with every changed id, and a thaw drains the
    queues once -- never a call per server."""
    _group_act_work(80)  # warm-up
    small, small_changed = _group_act_work(80)
    large, large_changed = _group_act_work(800)
    assert (small_changed, large_changed) == ([40, 40], [400, 400])
    assert small.calls == large.calls


# ----------------------------------------------------------------------
# Batch arrivals
# ----------------------------------------------------------------------
def _arrival_events(tenancy=None) -> tuple:
    """Run a 40-server bursty row for 2 h; return the ``JOB_ARRIVAL``
    events its engine queued (start events on the event heap, jobs on
    the arrival queue) and the jobs its generators made."""
    run = ControlledExperiment(
        ExperimentConfig(
            n_servers=40,
            duration_hours=1.5,
            warmup_hours=0.5,
            workload=WorkloadSpec(
                target_utilization=0.2, bursts_per_day=48.0, burst_factor=3.0
            ),
            tenancy=tenancy,
            seed=9,
        )
    )
    engine = run.engine
    schedule = engine.schedule
    queue_arrival = engine.queue_arrival
    arrivals = [0]

    def counted(time, priority, callback, *args):
        if priority == EventPriority.JOB_ARRIVAL:
            arrivals[0] += 1
        return schedule(time, priority, callback, *args)

    def counted_arrival(time, stream):
        arrivals[0] += 1
        queue_arrival(time, stream)

    engine.schedule = counted
    engine.queue_arrival = counted_arrival
    run.run()
    return arrivals[0], sum(g.jobs_generated for g in run.testbed.generators)


@pytest.mark.parametrize(
    "tenancy",
    [
        pytest.param(None, id="single"),
        pytest.param(
            TenancyConfig(
                tenants=(
                    TenantSpec("alpha", share=0.2),
                    TenantSpec("bravo", share=0.5),
                    TenantSpec("charlie", share=0.3),
                )
            ),
            id="three-tenants",
        ),
    ],
)
def test_arrival_engine_events_equal_accepted_jobs(tenancy):
    """Rejected thinning candidates cost rng draws, never engine events:
    a row's one arrival stream queues one arrival entry per accepted job
    plus at most one start event, however many generators share its
    rng."""
    arrivals, jobs = _arrival_events(tenancy)
    assert jobs > 500
    assert jobs <= arrivals <= jobs + 1


def _per_job_calls(target_utilization: float) -> float:
    """Python calls per placed job on an 80-server row over 2 h, after a
    10-minute warm-up: the calls made inside arrivals
    (``ArrivalStream.fire``) and completions
    (``OmegaScheduler._complete_job``), minus the window draws
    (``ArrivalStream._draw``), whose cost is per window, not per job."""
    testbed = Testbed(rows=(80,), seed=3)
    testbed.throughput.track(ServerGroup("row", testbed.row.servers))
    horizon = 7200.0
    spec = WorkloadSpec(target_utilization=target_utilization, modulation_sigma=0.0)
    testbed.add_batch_workload(spec, horizon).start(horizon)
    testbed.engine.run(until=600.0)
    placed = testbed.scheduler.stats.placed
    work = Work(
        within=(ArrivalStream.fire, OmegaScheduler._complete_job),
        skip=ArrivalStream._draw,
    )
    with work.count():
        testbed.engine.run(until=horizon)
    return work.calls_within / (testbed.scheduler.stats.placed - placed)


def test_per_job_calls_are_flat_in_the_arrival_rate():
    """A job costs the same Python calls at 4x the arrival rate, and at
    most 19.5 (about 19 today: arrival, Job, submit, policy, fit index,
    placement, completion event, throughput count, next arrival,
    completion, task removal and two refits). The count was about 38
    before the arrival queue and the inlined placement and completion
    frames; a frame put back on either path adds about one."""
    _per_job_calls(0.1)  # warm-up
    low = _per_job_calls(0.1)
    high = _per_job_calls(0.4)
    assert abs(high - low) <= 0.5
    assert max(low, high) <= 19.5


class _CountingRng:
    """A workload rng that counts every ``Generator`` method call."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


def _workload_rng_calls(rate_factor: float, windows: int = 120) -> tuple:
    """Three tenant generators on one counted rng over ``windows`` arrival
    windows; return the rng calls and the jobs generated."""
    from repro.workload.generator import (
        ARRIVAL_WINDOW_SECONDS,
        ArrivalStream,
        BatchWorkloadGenerator,
        BurstyRateProfile,
        DiurnalRateProfile,
        ScaledRateProfile,
    )

    class Sink:
        def submit(self, job) -> None:
            pass

    engine = Engine()
    rng = _CountingRng(np.random.default_rng(5))
    until = windows * ARRIVAL_WINDOW_SECONDS
    profile = BurstyRateProfile(
        DiurnalRateProfile(0.5 * rate_factor, amplitude=0.5, period_seconds=3600.0),
        until, seed=1, bursts_per_day=100.0,
    )
    stream = ArrivalStream(engine, rng)
    generators = [
        BatchWorkloadGenerator(
            engine, Sink(), ScaledRateProfile(profile, share), rng=rng, stream=stream
        )
        for share in (0.2, 0.5, 0.3)
    ]
    for generator in generators:
        generator.start(until)
    engine.run(until=until)
    return rng.calls, sum(g.jobs_generated for g in generators)


def test_workload_rng_calls_per_window_do_not_grow_with_the_arrival_rate():
    """Each member draws its window in five block calls (count, times,
    thinning vector, demands, durations), so 4x the arrivals cost the
    same rng calls: a per-candidate or per-job draw would scale them."""
    calls, jobs = _workload_rng_calls(1.0)
    calls_4x, jobs_4x = _workload_rng_calls(4.0)
    assert jobs > 4_000 and jobs_4x > 3.5 * jobs
    assert calls == calls_4x == 120 * 3 * 5


# ----------------------------------------------------------------------
# Safety ladder release
# ----------------------------------------------------------------------
def _ladder_freeze_release_work(n_servers: int) -> Work:
    """A supervisor's freeze-all plus release over a row with an event
    log attached, after a warm-up pair; one server is failed (skipped by
    the freeze) and one frozen by another actor (not released)."""
    engine = Engine()
    servers = make_servers(n_servers)
    scheduler = OmegaScheduler(engine, servers, rng=np.random.default_rng(0))
    ControlEventLog(engine).attach_scheduler(scheduler)
    group = ServerGroup("row", servers)
    group.power_budget_watts = 1000.0 * n_servers
    supervisor = SafetySupervisor(
        engine, group, scheduler, CappingEngine(group, engine)
    )
    scheduler.fail_server(servers[1].server_id)

    def freeze_and_release() -> None:
        supervisor._freeze_all()
        assert len(scheduler.frozen_server_ids()) == n_servers - 1
        supervisor._release_freezes()
        assert scheduler.frozen_server_ids() == {servers[0].server_id}

    scheduler.set_frozen(group.state_indices[:1], True)
    freeze_and_release()  # warm-up
    work = Work()
    with work.count():
        freeze_and_release()
    return work


def test_safety_freeze_all_and_release_calls_are_flat_in_servers():
    """The ladder's freeze-all and its release make the same Python calls
    at 80 and 800 servers: one ``set_frozen`` call each, never a call (or
    a frozen-set read, which made a release quadratic) per server."""
    assert _ladder_freeze_release_work(80).calls == _ladder_freeze_release_work(800).calls


# ----------------------------------------------------------------------
# Controller tick
# ----------------------------------------------------------------------
def _controller_tick_work(n_servers: int) -> tuple:
    """A controller freeze tick and the thaw tick after it, through the
    instrumented fault-layer stack with telemetry and an event log, after
    a warm-up pair; returns the work and the servers each tick changed."""
    engine = Engine()
    servers = make_servers(n_servers)
    scheduler = OmegaScheduler(engine, servers, rng=np.random.default_rng(3))
    ControlEventLog(engine).attach_scheduler(scheduler)
    group = ServerGroup("row", servers)
    rated = group.power_budget_watts
    monitor = PowerMonitor(engine, noise_sigma=0.01, rng=np.random.default_rng(5))
    monitor.register_group(group)
    telemetry = Telemetry.create()
    flaky = FlakyScheduler(scheduler, rng=np.random.default_rng(9))
    controller = AmpereController(
        engine,
        InstrumentedScheduler(flaky, telemetry),
        monitor,
        [group],
        telemetry=telemetry,
    )
    state = controller.state_of("row")

    def tick(budget: float) -> int:
        engine.run(until=engine.now + 60.0)
        group.power_budget_watts = budget
        monitor.sample_once()
        before = state.freeze_actions + state.unfreeze_actions
        controller.tick()
        return state.freeze_actions + state.unfreeze_actions - before

    def freeze_then_thaw() -> list:
        # 10% over budget (u_t at its ceiling), then at the rated budget
        # (below the threshold: thaw every frozen server)
        return [tick(group.power_watts() / 1.1), tick(rated)]

    freeze_then_thaw()  # warm-up
    work = Work()
    with work.count():
        changed = freeze_then_thaw()
    return work, changed


def test_controller_tick_calls_are_flat_in_servers():
    """A controller tick that freezes k servers, and the tick that thaws
    them, make the same Python calls at 80 and 800 servers (k = 8 and
    80): the plan is array expressions over the row, and each batch is
    one ``set_frozen`` call through the instrumented and fault layers
    (one span, one failure draw, one listener call, one drain)."""
    small, small_changed = _controller_tick_work(80)
    large, large_changed = _controller_tick_work(800)
    k_small, k_large = small_changed[0], large_changed[0]
    assert k_small > 1 and k_large == 10 * k_small
    assert (small_changed, large_changed) == ([k_small] * 2, [k_large] * 2)
    assert small.calls == large.calls
