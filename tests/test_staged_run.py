"""The one staged-run core, driven through its service surface.

:class:`~repro.sim.staged.StagedRun` owns the lifecycle, the snapshot
frame, the auditor wiring and the service surface of both experiment
shapes. The state machine here drives a 40-server single-row run and a
2x40 fleet run through that one surface: it interleaves ``advance``,
every act the shape accepts, snapshot->restore swaps and crash-style
recoveries (restore a checkpoint, replay the acts logged after it). At
the end the run must equal an uninterrupted run that applied the same
acts at the same simulated times -- the same result document and the
same final snapshot bytes -- and a full invariant sweep must be clean.
"""

import json
import time

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.core.safety import SafetyConfig
from repro.durability import SnapshotError, encode_snapshot
from repro.service import SupervisorConfig, build_service, harness_for, views
from repro.service.wal import ActError, WalRecord, apply_act, replay
from repro.sim.audit import AuditorConfig
from repro.sim.experiment import ControlledExperiment, ExperimentConfig
from repro.sim.fleet_experiment import (
    FleetExperiment,
    FleetExperimentConfig,
    FleetRowSpec,
)
from repro.sim.staged import StagedRun, restore_run
from repro.sim.testbed import WorkloadSpec
from repro.tenancy import builtin_mixes

FULL_AUDIT = AuditorConfig(sample_fraction=1.0, on_violation="record")

#: scenarios armed at runtime; their windows start relative to "now"
RUNTIME_SCENARIOS = ("blackout", "crash", "sensor-drift", "crash-storm")


def single_row() -> ControlledExperiment:
    return ControlledExperiment(
        ExperimentConfig(
            n_servers=40,
            duration_hours=0.4,
            warmup_hours=0.1,
            workload=WorkloadSpec(target_utilization=0.33, modulation_sigma=0.05),
            safety=SafetyConfig(),
            tenancy=builtin_mixes()["three-tier"],
            seed=7,
        )
    )


def fleet() -> FleetExperiment:
    return FleetExperiment(
        FleetExperimentConfig(
            rows=(
                FleetRowSpec(40, WorkloadSpec(target_utilization=0.40)),
                FleetRowSpec(40, WorkloadSpec(target_utilization=0.10)),
            ),
            duration_hours=0.4,
            warmup_hours=0.1,
            safety=SafetyConfig(),
            tenancy=builtin_mixes()["even-pair"],
            seed=3,
        )
    )


def result_doc(run: StagedRun) -> str:
    """The finished result as JSON, or the error collection raised.

    Collection can refuse a run (an operator who froze the control group
    for the whole window leaves r_T undefined); the twin must then
    refuse it the same way.
    """
    try:
        return json.dumps(run.finish().to_dict(), sort_keys=True)
    except ValueError as exc:
        return f"ValueError: {exc}"


# ---------------------------------------------------------------------------
# The kind registry and the service entry
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("build", [single_row, fleet], ids=["experiment", "fleet"])
def test_restore_run_picks_the_shape_from_the_frame(build):
    run = build()
    run.start()
    run.advance(600.0)
    restored = restore_run(run.snapshot())
    assert type(restored) is type(run)
    assert restored.engine.now == 600.0
    assert restored.snapshot() == run.snapshot()


def test_restore_run_refuses_unknown_kinds():
    with pytest.raises(SnapshotError, match="unknown snapshot kind 'campaign'"):
        restore_run(encode_snapshot([1], "campaign", {}))


def test_harness_for_returns_the_run_itself():
    run = single_row()
    assert harness_for(run) is run
    assert run.experiment is run
    with pytest.raises(TypeError, match="StagedRun"):
        harness_for(object())


# ---------------------------------------------------------------------------
# Runtime-armed injectors are run state
# ---------------------------------------------------------------------------


def test_runtime_injectors_survive_snapshot_restore():
    run = single_row()
    run.start()
    run.advance(600.0)
    apply_act(run, "arm-faults", {"scenario": "blackout"})
    restored = restore_run(run.snapshot())
    assert [doc["scenario"] for doc in views.faults_doc(run)["runtime"]] == ["blackout"]
    assert views.faults_doc(restored) == views.faults_doc(run)
    restored.advance()
    run.advance()
    assert restored.engine.events_processed == run.engine.events_processed


def test_operator_freeze_of_a_controlled_group_lasts_one_control_interval():
    """The controller plans each tick from the scheduler's frozen set and
    commands its own plan, so an operator freeze of the controlled
    ``experiment`` group is undone by the controller's next tick."""
    run = single_row()
    run.start()
    run.advance(0.2 * 3600.0)  # past warm-up: the controller is ticking
    controller = run.controllers()["experiment"]
    scheduler = run.scheduler_for("experiment")
    members = frozenset(s.server_id for s in run.groups()["experiment"].servers)
    apply_act(run, "freeze", {"group": "experiment"})
    assert scheduler.frozen_server_ids() & members == members
    run.advance(run.engine.now + controller.config.control_interval)
    frozen = scheduler.frozen_server_ids() & members
    assert frozen == controller.state_of("experiment").intended_frozen
    assert len(frozen) < len(members)


class OneShotCrash:
    """Advance hook that raises once at (or past) ``at`` sim-seconds."""

    def __init__(self, at: float) -> None:
        self.at = at
        self.fired = False

    def __call__(self, boundary: float) -> None:
        if not self.fired and boundary >= self.at:
            self.fired = True
            raise RuntimeError(f"injected crash at t={boundary:.0f}s")


def _wait_until(predicate, timeout: float = 30.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return False


def test_runtime_injectors_survive_supervisor_recovery():
    """An injector armed before the recovery checkpoint stays listed.

    The WAL holds the arm act, but it precedes the checkpoint, so the
    recovered run gets the injector from the frame, not from replay.
    """
    service = build_service(
        single_row(),
        mode="manual",
        supervisor_config=SupervisorConfig(
            auto_snapshot_every=300.0,
            auto_snapshot_min_wall_seconds=0.0,
            watchdog_poll_seconds=0.05,
        ),
        advance_hook=OneShotCrash(at=1500.0),
    )
    service.start()
    try:
        app = service.app
        supervisor = service.supervisor
        app.step(until=600.0)
        app.arm_faults(scenario="blackout")
        app.step(until=1200.0)
        assert _wait_until(
            lambda: supervisor._checkpoint is not None
            and supervisor._checkpoint.sim_now >= 900.0
        ), supervisor.summary()
        with pytest.raises(Exception):
            app.step(until=1800.0)
        assert _wait_until(
            lambda: supervisor.recoveries >= 1 and supervisor.ready()
        ), supervisor.summary()
        runtime = app.faults()["runtime"]
    finally:
        service.stop()
    assert [doc["scenario"] for doc in runtime] == ["blackout"]


# ---------------------------------------------------------------------------
# One state machine for both shapes
# ---------------------------------------------------------------------------


class StagedRunMachine(RuleBasedStateMachine):
    """Acts, swaps and recoveries against an uninterrupted twin."""

    build = None  # the shape's factory, set by each subclass

    def __init__(self) -> None:
        super().__init__()
        self.run = type(self).build()
        self.run.start()
        #: every applied act as (sim_time, op, payload): the WAL
        self.acts = []
        #: (frame, number of acts logged before it): the recovery point
        self.checkpoint = None

    def _act(self, op: str, payload: dict) -> None:
        try:
            apply_act(self.run, op, payload)
        except ActError:
            return  # refused acts change nothing and are never logged
        self.acts.append((self.run.engine.now, op, payload))

    @rule(minutes=st.integers(min_value=1, max_value=12))
    def advance(self, minutes):
        self.run.advance(self.run.engine.now + 60.0 * minutes)

    @rule(op=st.sampled_from(("freeze", "unfreeze")), pick=st.integers(0, 7))
    def freeze(self, op, pick):
        groups = sorted(self.run.groups())
        self._act(op, {"group": groups[pick % len(groups)]})

    @rule(scenario=st.sampled_from(RUNTIME_SCENARIOS))
    def arm_faults(self, scenario):
        self._act("arm-faults", {"scenario": scenario})

    @precondition(lambda self: self.run.ledger is not None)
    @rule(watts=st.sampled_from((-3000.0, -500.0, 500.0, 3000.0)))
    def reallocate(self, watts):
        allocations = self.run.ledger.allocations()
        first, second = sorted(allocations)
        self._act(
            "reallocate",
            {
                "allocations": {
                    first: allocations[first] - watts,
                    second: allocations[second] + watts,
                }
            },
        )

    @rule()
    def take_checkpoint(self):
        self.checkpoint = (self.run.snapshot(), len(self.acts))

    @rule()
    def swap(self):
        frame = self.run.snapshot()
        self.run = restore_run(frame)
        assert self.run.snapshot() == frame

    @precondition(lambda self: self.checkpoint is not None)
    @rule()
    def crash_and_replay(self):
        frame, logged = self.checkpoint
        self.run = restore_run(frame)
        records = [
            WalRecord(seq, sim_time, op, payload)
            for seq, (sim_time, op, payload) in enumerate(
                self.acts[logged:], start=logged + 1
            )
        ]
        assert replay(self.run, records) == len(records)

    def teardown(self):
        reference = type(self).build()
        reference.start()
        for sim_time, op, payload in self.acts:
            reference.advance(sim_time)
            apply_act(reference, op, payload)
        assert result_doc(self.run) == result_doc(reference)
        assert self.run.snapshot() == reference.snapshot()
        assert self.run.build_auditor(FULL_AUDIT).audit(sample=False) == []


MACHINE_SETTINGS = settings(
    max_examples=15, stateful_step_count=10, deadline=None
)


class SingleRowMachine(StagedRunMachine):
    build = staticmethod(single_row)


class FleetMachine(StagedRunMachine):
    build = staticmethod(fleet)


TestSingleRowStagedRun = SingleRowMachine.TestCase
TestSingleRowStagedRun.settings = MACHINE_SETTINGS
TestFleetStagedRun = FleetMachine.TestCase
TestFleetStagedRun.settings = MACHINE_SETTINGS
