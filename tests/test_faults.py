"""Tests for the fault layer and the hardened controller.

Covers the three control-plane fault seams (monitor blackouts, scheduler
RPC faults, controller crashes) in isolation, the data-plane hazards
(workload surges, sensor miscalibration, server crash storms), and then
the combined "chaos" acceptance scenario end to end: a 10-minute
blackout, 5% RPC failure rate and one mid-run controller crash, all from
one fixed seed.
"""

import json
import pickle
import re

import numpy as np
import pytest

from repro.cluster.group import ServerGroup
from repro.core.config import AmpereConfig
from repro.core.controller import AmpereController
from repro.core.demand import ConstantDemandEstimator
from repro.core.freeze_model import FreezeEffectModel
from repro.faults.injector import FaultInjector, FaultStats
from repro.faults.rpc import FlakyScheduler
from repro.faults.scenario import (
    MAX_EVENT_SECONDS,
    FaultScenario,
    builtin_scenarios,
)
from repro.monitor.power_monitor import PowerMonitor
from repro.scheduler.base import SchedulerInterface, SchedulerRpcError
from repro.scheduler.omega import OmegaScheduler
from repro.sim.engine import Engine
from repro.sim.experiment import ControlledExperiment, ExperimentConfig
from repro.sim.testbed import WorkloadSpec
from repro.workload.generator import DiurnalRateProfile, SurgeRateProfile
from tests.conftest import make_servers, set_frozen_ids


class Harness:
    """A tiny cluster with direct control over the scheduler seam."""

    def __init__(self, n=10, budget_scale=1.0, scheduler_wrap=None):
        self.engine = Engine()
        self.servers = make_servers(n)
        self.inner_scheduler = OmegaScheduler(
            self.engine, self.servers, rng=np.random.default_rng(3)
        )
        self.scheduler = (
            scheduler_wrap(self.inner_scheduler)
            if scheduler_wrap is not None
            else self.inner_scheduler
        )
        self.group = ServerGroup("row", self.servers)
        self.group.power_budget_watts *= budget_scale
        self.monitor = PowerMonitor(self.engine, noise_sigma=0.0)
        self.monitor.register_group(self.group)

    def controller(self, **kwargs):
        defaults = dict(
            config=AmpereConfig(),
            freeze_model=FreezeEffectModel(0.02),
            demand_estimator=ConstantDemandEstimator(0.025),
        )
        defaults.update(kwargs)
        return AmpereController(
            self.engine, self.scheduler, self.monitor, [self.group], **defaults
        )

    def advance_to(self, time):
        """Advance simulated time without taking any monitor samples."""
        self.engine.run(until=time)


class ScriptedScheduler(SchedulerInterface):
    """Scheduler proxy that fails its first ``fail_first`` control RPCs."""

    def __init__(self, inner, fail_first=0, latency_seconds=2.0):
        self.inner = inner
        self.fail_first = fail_first
        self.latency_seconds = latency_seconds
        self.calls = 0

    def submit(self, job):
        self.inner.submit(job)

    def set_frozen(self, slots, frozen):
        self.calls += 1
        if self.calls <= self.fail_first:
            raise SchedulerRpcError(
                f"set_frozen of {len(slots)} servers timed out",
                latency_seconds=self.latency_seconds,
            )
        return self.inner.set_frozen(slots, frozen)

    def frozen_server_ids(self):
        return self.inner.frozen_server_ids()


def always_failing(inner, latency_seconds=2.0):
    return ScriptedScheduler(
        inner, fail_first=10**9, latency_seconds=latency_seconds
    )


# ---------------------------------------------------------------------------
# Scenario declarations
# ---------------------------------------------------------------------------


class TestFaultScenario:
    def test_defaults_are_fault_free(self):
        scenario = FaultScenario()
        assert scenario.blackouts == ()
        assert scenario.rpc_failure_rate == 0.0
        assert scenario.crash_times == ()
        assert "no faults" in scenario.describe()

    def test_sequences_canonicalized_to_tuples(self):
        scenario = FaultScenario(
            blackouts=[[100, 60]], crash_times=[500]
        )
        assert scenario.blackouts == ((100.0, 60.0),)
        assert scenario.crash_times == (500.0,)

    def test_pickles_and_round_trips(self):
        scenario = builtin_scenarios()["chaos"]
        clone = pickle.loads(pickle.dumps(scenario))
        assert clone == scenario

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"blackouts": ((-1.0, 60.0),)},
            {"blackouts": ((0.0, 0.0),)},
            {"blackouts": ((0.0, 120.0), (60.0, 120.0))},  # overlap
            {"blackouts": ((MAX_EVENT_SECONDS * 2, 60.0),)},
            {"rpc_failure_rate": 1.0},
            {"rpc_failure_rate": -0.1},
            {"rpc_latency_seconds": -1.0},
            {"crash_times": (-5.0,)},
            {"crash_times": (MAX_EVENT_SECONDS * 2,)},
            {"restart_delay_seconds": -1.0},
            {"surges": ((100.0, -60.0, 2.0),)},
            {"surges": ((100.0, 60.0, 0.0),)},
            {"surges": ((0.0, 120.0, 2.0), (60.0, 120.0, 3.0))},  # overlap
            {"sensor_bias": ((100.0, 60.0, -0.5),)},
            {"sensor_bias": ((-10.0, 60.0, 0.9),)},
            {"server_mtbf_hours": -1.0},
            {"server_mttr_minutes": 0.0},
            {"crash_storms": ((100.0, 60.0, 0.0),)},
            {"crash_storms": ((100.0, 0.0, 10.0),)},
        ],
    )
    def test_invalid_scenarios_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultScenario(**kwargs)

    def test_adjacent_windows_do_not_overlap(self):
        # Back-to-back windows are legal; only true overlap is rejected.
        scenario = FaultScenario(blackouts=((0.0, 60.0), (60.0, 60.0)))
        assert len(scenario.blackouts) == 2

    def test_builtin_chaos_composes_all_three_seams(self):
        scenarios = builtin_scenarios()
        chaos = scenarios["chaos"]
        assert chaos.blackouts and chaos.crash_times
        assert chaos.rpc_failure_rate > 0
        for name, scenario in scenarios.items():
            assert scenario.name == name

    def test_builtin_data_plane_scenarios(self):
        scenarios = builtin_scenarios()
        assert scenarios["surge"].surges
        assert scenarios["sensor-drift"].sensor_bias
        assert scenarios["crash-storm"].wants_server_failures
        data_chaos = scenarios["data-chaos"]
        assert data_chaos.surges and data_chaos.sensor_bias
        assert data_chaos.crash_storms
        assert not FaultScenario().wants_server_failures

    def test_describe_mentions_each_hazard(self):
        text = builtin_scenarios()["chaos"].describe()
        assert "blackout" in text
        assert "RPC failure" in text
        assert "crash" in text
        text = builtin_scenarios()["data-chaos"].describe()
        assert "surge" in text
        assert "sensor-bias" in text
        assert "server failures" in text


# ---------------------------------------------------------------------------
# Seam 1: scheduler RPC faults
# ---------------------------------------------------------------------------


class TestFlakyScheduler:
    def _fleet(self, failure_rate, seed=0):
        engine = Engine()
        servers = make_servers(4)
        inner = OmegaScheduler(engine, servers, rng=np.random.default_rng(3))
        return inner, FlakyScheduler(
            inner, rng=np.random.default_rng(seed), failure_rate=failure_rate
        )

    def test_zero_rate_passes_through_and_counts(self):
        inner, flaky = self._fleet(0.0)
        assert flaky.set_frozen([0, 1], True) == [0, 1]
        assert flaky.set_frozen([0, 1], False) == [0, 1]
        assert flaky.stats.calls == 2  # one call per batch
        assert flaky.stats.failures == 0
        assert inner.frozen_server_ids() == frozenset()

    def test_failed_rpc_is_not_applied(self):
        # Seeded: with rate 0.99 the first draw fails deterministically.
        inner, flaky = self._fleet(0.99)
        with pytest.raises(SchedulerRpcError) as excinfo:
            flaky.set_frozen([0, 1, 2], True)
        assert excinfo.value.latency_seconds == flaky.timeout_seconds
        # the batch failed as a whole: no server of it changed
        assert inner.frozen_server_ids() == frozenset()
        assert flaky.stats.failures == 1

    def test_reads_never_fail(self):
        _, flaky = self._fleet(0.99)
        for _ in range(50):
            assert flaky.frozen_server_ids() == frozenset()
        assert flaky.stats.calls == 0  # reads are not control RPCs

    def test_same_seed_same_failure_pattern(self):
        def pattern(seed):
            _, flaky = self._fleet(0.3, seed=seed)
            outcomes = []
            for _ in range(100):
                try:
                    flaky.set_frozen([0], True)
                    outcomes.append(True)
                    flaky.set_frozen([0], False)
                except SchedulerRpcError:
                    outcomes.append(False)
            return outcomes

        assert pattern(7) == pattern(7)
        assert pattern(7) != pattern(8)

    def test_observed_rate_tracks_configured_rate(self):
        _, flaky = self._fleet(0.2)
        for _ in range(2000):
            try:
                flaky.set_frozen([1], True)
                flaky.set_frozen([1], False)
            except SchedulerRpcError:
                pass
        stats = flaky.stats
        assert stats.failures / stats.calls == pytest.approx(0.2, abs=0.03)

    def test_invalid_rate_rejected(self):
        inner, _ = self._fleet(0.0)
        with pytest.raises(ValueError):
            FlakyScheduler(inner, rng=np.random.default_rng(0), failure_rate=1.0)


class TestRpcRetryAndReconciliation:
    def test_transient_failures_are_retried_to_success(self):
        harness = Harness(
            budget_scale=0.68,
            scheduler_wrap=lambda inner: ScriptedScheduler(inner, fail_first=2),
        )
        controller = harness.controller()
        harness.monitor.sample_once()
        controller.tick()
        assert harness.inner_scheduler.frozen_server_ids()
        assert controller.health.rpc_retries == 2
        assert controller.health.rpc_giveups == 0

    def test_exhausted_retries_give_up_and_record_intent(self):
        harness = Harness(
            budget_scale=0.68, scheduler_wrap=always_failing
        )
        controller = harness.controller()
        harness.monitor.sample_once()
        controller.tick()
        state = controller.state_of("row")
        # Nothing landed, but the intent is remembered for reconciliation.
        assert harness.inner_scheduler.frozen_server_ids() == frozenset()
        assert len(state.intended_frozen) > 1
        # one freeze batch, given up as a whole
        assert controller.health.rpc_giveups == 1
        # Commanded u reflects what was *achieved*, not what was intended.
        assert state.u_history[-1] == 0.0

    def test_next_tick_reconciles_intent_against_scheduler(self):
        harness = Harness(
            budget_scale=0.68, scheduler_wrap=always_failing
        )
        controller = harness.controller()
        harness.monitor.sample_once()
        controller.tick()
        assert controller.health.reconciliations == 0
        harness.advance_to(60.0)
        harness.monitor.sample_once()
        controller.tick()
        assert controller.health.reconciliations == 1
        assert controller.health.reconciliation_diff_total >= 1
        kinds = controller.health.counts_by_kind()
        assert kinds.get("reconcile", 0) == 1

    def test_rpc_deadline_bounds_retries(self):
        # Each failure burns 10s; with a 15s deadline the second attempt
        # would already blow the budget, so the batch is abandoned after
        # one retry instead of rpc_max_attempts.
        harness = Harness(
            budget_scale=0.68,
            scheduler_wrap=lambda inner: always_failing(inner, latency_seconds=10.0),
        )
        config = AmpereConfig(
            rpc_max_attempts=4,
            rpc_deadline_seconds=15.0,
            rpc_backoff_base_seconds=0.5,
        )
        controller = harness.controller(config=config)
        harness.monitor.sample_once()
        controller.tick()
        giveups = [
            e for e in controller.health.events if e.kind == "rpc_giveup"
        ]
        assert giveups
        assert all("deadline" in e.detail for e in giveups)
        per_intent_attempts = harness.scheduler.calls / len(giveups)
        assert per_intent_attempts == 2  # first try + one retry


# ---------------------------------------------------------------------------
# Seam 2: monitor blackouts and stale sensors
# ---------------------------------------------------------------------------


class TestMonitorOutage:
    def test_sweeps_dropped_during_outage(self):
        harness = Harness()
        harness.monitor.sample_once()
        harness.monitor.begin_outage()
        harness.monitor.begin_outage()  # idempotent
        harness.advance_to(60.0)
        harness.monitor.sample_once()
        assert harness.monitor.samples_taken == 1
        assert harness.monitor.samples_suppressed == 1
        assert harness.monitor.outages_begun == 1
        # The stored series did not advance: the TSDB is stale.
        stamp, _ = harness.monitor.latest_normalized_sample("row")
        assert stamp == 0.0

    def test_sampling_resumes_after_outage(self):
        harness = Harness()
        harness.monitor.begin_outage()
        harness.monitor.sample_once()
        harness.monitor.end_outage()
        harness.advance_to(60.0)
        harness.monitor.sample_once()
        stamp, value = harness.monitor.latest_normalized_sample("row")
        assert stamp == 60.0
        assert value > 0.0

    def test_no_violation_accounting_during_outage(self):
        harness = Harness(budget_scale=0.1)  # hopelessly over budget
        harness.monitor.begin_outage()
        harness.monitor.sample_once()
        assert harness.monitor.violation_count("row") == 0
        harness.monitor.end_outage()
        harness.monitor.sample_once()
        assert harness.monitor.violation_count("row") == 1


# ---------------------------------------------------------------------------
# Hardened controller: degraded mode and degenerate snapshots
# ---------------------------------------------------------------------------


class TestDegradedMode:
    def test_holds_frozen_set_on_stale_data(self):
        harness = Harness(budget_scale=0.68)
        controller = harness.controller()
        harness.monitor.sample_once()
        controller.tick()
        frozen = harness.scheduler.frozen_server_ids()
        assert frozen
        # Time passes, no fresh samples: data goes stale.
        harness.advance_to(200.0)
        controller.tick()
        assert controller.health.degraded_ticks == 1
        assert harness.scheduler.frozen_server_ids() == frozen
        state = controller.state_of("row")
        assert state.u_history[-1] == pytest.approx(len(frozen) / 10)

    def test_fresh_sample_exits_degraded_mode(self):
        harness = Harness(budget_scale=0.68)
        controller = harness.controller()
        harness.monitor.sample_once()
        controller.tick()
        harness.advance_to(200.0)
        controller.tick()
        assert controller.health.degraded_ticks == 1
        harness.monitor.sample_once()  # monitoring recovers at t=200
        controller.tick()
        assert controller.health.degraded_ticks == 1  # no new degraded tick
        assert controller.state_of("row").active_ticks >= 2

    def test_degraded_mode_reasserts_dropped_intents(self):
        harness = Harness(budget_scale=0.68)
        controller = harness.controller()
        harness.monitor.sample_once()
        controller.tick()
        state = controller.state_of("row")
        victim = sorted(state.intended_frozen)[0]
        # Simulate drift: an operator (or a lost RPC) unfroze a server
        # the controller meant to keep frozen.
        set_frozen_ids(harness.scheduler, [victim], False)
        harness.advance_to(200.0)
        controller.tick()  # stale -> degraded hold
        assert victim in harness.scheduler.frozen_server_ids()
        assert controller.health.reconciliations == 1

    def test_never_unfreezes_on_stale_data(self):
        harness = Harness(budget_scale=0.68)
        controller = harness.controller()
        harness.monitor.sample_once()
        controller.tick()
        frozen = harness.scheduler.frozen_server_ids()
        # Demand collapses, but the monitor is dark: the controller must
        # not act on the fiction that power is still high -- and equally
        # must not guess that it dropped.
        harness.group.power_budget_watts *= 10.0
        harness.advance_to(500.0)
        controller.tick()
        assert harness.scheduler.frozen_server_ids() == frozen

    def test_staleness_threshold_configurable(self):
        harness = Harness(budget_scale=0.68)
        controller = harness.controller(
            config=AmpereConfig(max_staleness_seconds=1000.0)
        )
        harness.monitor.sample_once()
        controller.tick()
        harness.advance_to(500.0)
        controller.tick()  # 500s-old data is still acceptable here
        assert controller.health.degraded_ticks == 0


class TestDegenerateSnapshots:
    def test_nan_row_power_skips_tick(self):
        harness = Harness(budget_scale=0.68)
        controller = harness.controller()
        harness.monitor.db.write("power_norm/row", 0.0, float("nan"))
        controller.tick()
        assert controller.health.skipped_ticks == 1
        assert harness.scheduler.frozen_server_ids() == frozenset()
        assert controller.state_of("row").u_history == []

    def test_zero_row_power_skips_tick(self):
        harness = Harness(budget_scale=0.68)
        controller = harness.controller()
        harness.monitor.db.write("power_norm/row", 0.0, 0.0)
        controller.tick()
        assert controller.health.skipped_ticks == 1
        events = controller.health.events
        assert events and events[-1].kind == "skipped"

    def test_all_failed_snapshot_skips_tick(self):
        harness = Harness(budget_scale=0.68)
        controller = harness.controller()
        harness.monitor.sample_once()
        harness.monitor.read_server_powers = lambda name: np.full(
            len(harness.servers), np.nan
        )
        controller.tick()
        assert controller.health.skipped_ticks == 1
        assert "snapshot" in controller.health.events[-1].detail
        assert harness.scheduler.frozen_server_ids() == frozenset()

    def test_partially_failed_snapshot_still_acts(self):
        harness = Harness(budget_scale=0.68)
        controller = harness.controller()
        harness.monitor.sample_once()
        real = harness.monitor.read_server_powers

        def server_0_reads_nan(name):
            readings = real(name)
            readings[0] = np.nan  # server 0 is the first member
            return readings

        harness.monitor.read_server_powers = server_0_reads_nan
        controller.tick()
        assert controller.health.skipped_ticks == 0
        frozen = harness.scheduler.frozen_server_ids()
        assert frozen
        # The NaN server reads as 0 W: never chosen as a freeze victim.
        assert 0 not in frozen


# ---------------------------------------------------------------------------
# Seam 3: controller crash and recovery
# ---------------------------------------------------------------------------


class TestCrashRecovery:
    def test_crash_wipes_state_and_stops_control(self):
        harness = Harness(budget_scale=0.68)
        controller = harness.controller()
        harness.monitor.sample_once()
        controller.tick()
        frozen = harness.scheduler.frozen_server_ids()
        assert frozen
        controller.crash()
        assert controller.crashed
        state = controller.state_of("row")
        assert state.u_history == []
        assert state.intended_frozen == frozenset()
        # Ticks are no-ops while down; the cluster keeps its frozen set.
        harness.advance_to(60.0)
        harness.monitor.sample_once()
        controller.tick()
        assert state.ticks == 0
        assert harness.scheduler.frozen_server_ids() == frozen

    def test_recover_rebuilds_state_from_durable_sources(self):
        harness = Harness(budget_scale=0.68)
        controller = harness.controller()
        harness.monitor.sample_once()
        controller.tick()
        frozen = harness.scheduler.frozen_server_ids()
        u_before = list(controller.state_of("row").u_history)
        controller.crash()
        controller.recover()
        assert not controller.crashed
        state = controller.state_of("row")
        assert state.intended_frozen == frozen
        assert state.u_history == u_before  # restored from the TSDB
        assert state.u_times == [0.0]
        assert controller.health.crashes == 1
        assert controller.health.recoveries == 1

    def test_recovered_controller_does_not_report_phantom_drift(self):
        harness = Harness(budget_scale=0.68)
        controller = harness.controller()
        harness.monitor.sample_once()
        controller.tick()
        controller.crash()
        controller.recover()
        harness.advance_to(60.0)
        harness.monitor.sample_once()
        controller.tick()
        # Intent was adopted from the scheduler at recovery, so the first
        # post-restart tick sees intent == actual.
        assert controller.health.reconciliations == 0

    def test_recovery_before_first_tick_is_clean(self):
        harness = Harness(budget_scale=0.68)
        controller = harness.controller()
        controller.crash()
        controller.recover()  # no TSDB series yet: nothing to restore
        state = controller.state_of("row")
        assert state.u_history == []
        assert state.intended_frozen == frozenset()

    def test_health_telemetry_survives_crash(self):
        harness = Harness(budget_scale=0.68)
        controller = harness.controller()
        harness.monitor.db.write("power_norm/row", 0.0, float("nan"))
        controller.tick()
        assert controller.health.skipped_ticks == 1
        controller.crash()
        assert controller.health.skipped_ticks == 1  # external pipeline
        kinds = controller.health.counts_by_kind()
        assert kinds["crash"] == 1


# ---------------------------------------------------------------------------
# The injector: scenario -> scheduled engine events
# ---------------------------------------------------------------------------


class TestFaultInjector:
    def test_arm_skips_out_of_horizon_events(self):
        harness = Harness()
        scenario = FaultScenario(
            blackouts=((5000.0, 60.0),), crash_times=(9000.0,)
        )
        injector = FaultInjector(harness.engine, scenario)
        injector.attach_monitor(harness.monitor)
        injector.attach_controller(harness.controller())
        injector.arm(until=1000.0)
        assert harness.engine.pending_count() == 0

    def test_arm_twice_raises(self):
        harness = Harness()
        injector = FaultInjector(harness.engine, FaultScenario())
        injector.arm(until=100.0)
        with pytest.raises(RuntimeError, match="armed"):
            injector.arm(until=100.0)

    def test_blackout_toggles_monitor_outage(self):
        harness = Harness()
        scenario = FaultScenario(blackouts=((100.0, 50.0),))
        injector = FaultInjector(harness.engine, scenario)
        injector.attach_monitor(harness.monitor)
        injector.arm(until=1000.0)
        harness.engine.run(until=120.0)
        assert harness.monitor.in_outage
        harness.engine.run(until=200.0)
        assert not harness.monitor.in_outage
        assert injector.blackouts_injected == 1

    def test_crash_and_restart_scheduled(self):
        harness = Harness(budget_scale=0.68)
        controller = harness.controller()
        scenario = FaultScenario(
            crash_times=(100.0,), restart_delay_seconds=50.0
        )
        injector = FaultInjector(harness.engine, scenario)
        injector.attach_controller(controller)
        injector.arm(until=1000.0)
        harness.engine.run(until=120.0)
        assert controller.crashed
        harness.engine.run(until=200.0)
        assert not controller.crashed
        assert controller.health.recoveries == 1

    def test_stats_snapshot_is_picklable(self):
        harness = Harness()
        injector = FaultInjector(harness.engine, FaultScenario(name="x"))
        injector.wrap_scheduler(harness.scheduler)
        injector.attach_monitor(harness.monitor)
        stats = injector.stats_snapshot()
        assert isinstance(stats, FaultStats)
        assert pickle.loads(pickle.dumps(stats)) == stats
        assert stats.scenario == "x"


# ---------------------------------------------------------------------------
# Data-plane hazards: surges, sensor bias, server crash storms
# ---------------------------------------------------------------------------


class TestSurgeRateProfile:
    def test_multiplies_inside_window_only(self):
        profile = SurgeRateProfile(
            DiurnalRateProfile(2.0, amplitude=0.0), ((100.0, 50.0, 3.0),)
        )
        assert profile.rate(99.0) == 2.0
        assert profile.rate(100.0) == 6.0
        assert profile.rate(149.0) == 6.0
        assert profile.rate(150.0) == 2.0  # window end is exclusive
        assert profile.max_rate == 6.0

    def test_overlapping_windows_rejected(self):
        # Overlapping factors would multiply (2 x 3 = 6 against a
        # max_rate of 3), so thinning would silently under-generate.
        for windows in (
            ((0.0, 10.0, 2.0), (5.0, 10.0, 3.0)),
            ((5.0, 10.0, 3.0), (0.0, 10.0, 2.0)),  # found in any order
            ((0.0, 100.0, 2.0), (50.0, 10.0, 3.0)),  # one inside the other
        ):
            with pytest.raises(ValueError, match="overlap"):
                SurgeRateProfile(DiurnalRateProfile(1.0, amplitude=0.0), windows)

    def test_adjacent_windows_allowed(self):
        profile = SurgeRateProfile(
            DiurnalRateProfile(1.0, amplitude=0.0), ((0.0, 10.0, 2.0), (10.0, 10.0, 3.0))
        )
        assert [profile.rate(t) for t in (9.0, 10.0, 20.0)] == [2.0, 3.0, 1.0]
        assert profile.max_rate == 3.0

    def test_max_rate_never_shrinks(self):
        # A sub-unity "surge" (a demand dip) must not lower the thinning
        # envelope, or acceptance probabilities would exceed 1 elsewhere.
        profile = SurgeRateProfile(
            DiurnalRateProfile(2.0, amplitude=0.0), ((0.0, 10.0, 0.5),)
        )
        assert profile.max_rate == 2.0

    def test_injector_wraps_only_when_surges_configured(self):
        engine = Engine()
        base = DiurnalRateProfile(1.0, amplitude=0.0)
        quiet = FaultInjector(engine, FaultScenario())
        assert quiet.wrap_rate_profile(base) is base
        surging = FaultInjector(
            engine, FaultScenario(surges=((10.0, 10.0, 2.0),))
        )
        wrapped = surging.wrap_rate_profile(base)
        assert isinstance(wrapped, SurgeRateProfile)
        assert surging.surges_applied == 1


class TestSensorBias:
    def test_bias_scales_monitor_readings(self):
        harness = Harness()
        harness.monitor.sample_once()
        true_power = harness.monitor.latest_power("row")
        harness.monitor.set_sensor_bias(0.5)
        harness.advance_to(60.0)
        harness.monitor.sample_once()
        assert harness.monitor.latest_power("row") == pytest.approx(
            true_power * 0.5
        )
        # ... and per-server snapshots see the same miscalibration.
        readings = harness.monitor.read_server_powers("row")
        assert readings.sum() == pytest.approx(true_power * 0.5)

    def test_true_power_is_unaffected(self):
        harness = Harness()
        before = harness.group.power_watts()
        harness.monitor.set_sensor_bias(0.5)
        assert harness.group.power_watts() == before

    def test_bias_windows_counted_once_per_entry(self):
        harness = Harness()
        harness.monitor.set_sensor_bias(0.8)
        harness.monitor.set_sensor_bias(0.7)  # still inside a biased spell
        harness.monitor.set_sensor_bias(1.0)
        harness.monitor.set_sensor_bias(0.9)
        assert harness.monitor.bias_windows_applied == 2

    def test_invalid_bias_rejected(self):
        harness = Harness()
        with pytest.raises(ValueError):
            harness.monitor.set_sensor_bias(0.0)

    def test_injector_schedules_bias_window(self):
        harness = Harness()
        scenario = FaultScenario(sensor_bias=((100.0, 50.0, 0.85),))
        injector = FaultInjector(harness.engine, scenario)
        injector.attach_monitor(harness.monitor)
        injector.arm(until=1000.0)
        harness.engine.run(until=120.0)
        assert harness.monitor.sensor_bias == 0.85
        harness.engine.run(until=200.0)
        assert harness.monitor.sensor_bias == 1.0
        assert injector.stats_snapshot().sensor_bias_windows == 1


class TestServerCrashStorms:
    def _armed_harness(self, scenario, until=4000.0):
        harness = Harness(n=10)
        injector = FaultInjector(harness.engine, scenario)
        injector.attach_cluster(harness.inner_scheduler)
        injector.arm(until=until)
        return harness, injector

    def test_background_churn_fails_and_repairs(self):
        scenario = FaultScenario(
            server_mtbf_hours=0.5, server_mttr_minutes=2.0
        )
        harness, injector = self._armed_harness(scenario)
        harness.engine.run(until=4000.0)
        stats = injector.stats_snapshot()
        assert stats.server_failures > 0
        assert stats.server_repairs > 0

    def test_storm_window_concentrates_failures(self):
        scenario = FaultScenario(
            server_mtbf_hours=2000.0,
            crash_storms=((1000.0, 600.0, 0.05),),
            server_mttr_minutes=2.0,
        )
        harness, injector = self._armed_harness(scenario)
        harness.engine.run(until=4000.0)
        log = injector.failures.stats.log
        assert log  # the storm produced failures
        inside = [e for e in log if 1000.0 <= e.failed_at < 1600.0]
        assert len(inside) == len(log)  # baseline churn is negligible

    def test_storm_is_deterministic_per_seed(self):
        scenario = FaultScenario(
            server_mtbf_hours=100.0,
            crash_storms=((500.0, 500.0, 0.1),),
            server_mttr_minutes=2.0,
            seed=5,
        )

        def failure_times():
            harness, injector = self._armed_harness(scenario)
            harness.engine.run(until=2000.0)
            return [e.failed_at for e in injector.failures.stats.log]

        first = failure_times()
        assert first == failure_times()

    def test_without_cluster_attachment_storms_are_inert(self):
        harness = Harness()
        scenario = FaultScenario(crash_storms=((100.0, 50.0, 0.1),))
        injector = FaultInjector(harness.engine, scenario)
        injector.arm(until=1000.0)  # no attach_cluster
        harness.engine.run(until=1000.0)
        assert injector.failures is None
        assert injector.stats_snapshot().server_failures == 0


# ---------------------------------------------------------------------------
# Acceptance: the combined chaos scenario, end to end
# ---------------------------------------------------------------------------

CHAOS = builtin_scenarios()["chaos"]


def chaos_config(faults):
    return ExperimentConfig(
        n_servers=40,
        duration_hours=2.0,
        warmup_hours=1.0,
        over_provision_ratio=0.25,
        capping_enabled=True,
        workload=WorkloadSpec.heavy(),
        seed=7,
        faults=faults,
    )


@pytest.fixture(scope="module")
def chaos_experiment():
    """One full chaos run, exposing both the result and the live objects."""
    experiment = ControlledExperiment(chaos_config(CHAOS))
    result = experiment.run()
    return experiment, result


@pytest.fixture(scope="module")
def baseline_result():
    return ControlledExperiment(chaos_config(None)).run()


class TestChaosScenario:
    def test_run_completes_and_reports_fault_stats(self, chaos_experiment):
        _, result = chaos_experiment
        stats = result.fault_stats
        assert stats is not None
        assert stats.scenario == "chaos"
        assert stats.blackouts_injected == 1
        assert stats.samples_suppressed >= 10  # 10-minute dark spell
        assert stats.crashes_injected == 1
        assert stats.rpc_calls > 0
        assert stats.rpc_failures > 0

    def test_controller_entered_and_left_degraded_mode(self, chaos_experiment):
        _, result = chaos_experiment
        health = result.controller_health
        assert health is not None
        # Staleness trips two samples into the blackout and holds until
        # the first post-blackout sweep.
        assert health.degraded_ticks >= 5
        assert health.crashes == 1
        assert health.recoveries == 1

    def test_controller_kept_acting_after_restart(self, chaos_experiment):
        experiment, _ = chaos_experiment
        controller = experiment.controller
        state = controller.state_of(experiment.experiment_group.name)
        crash_at = CHAOS.crash_times[0]
        restart_at = crash_at + CHAOS.restart_delay_seconds
        assert not controller.crashed
        assert max(state.u_times) > restart_at
        # The commanded-u history spans the crash: restored from the TSDB
        # at recovery, extended by post-restart ticks.
        assert min(state.u_times) < crash_at

    def test_frozen_set_reconciled_with_scheduler(self, chaos_experiment):
        experiment, result = chaos_experiment
        controller = experiment.controller
        state = controller.state_of(experiment.experiment_group.name)
        authoritative = (
            experiment.testbed.scheduler.frozen_server_ids() & state.server_ids
        )
        # Intent may differ from the authoritative set only by batches
        # that failed on the last control tick (there is no later tick to
        # mend them). A batch lands or fails whole, so the drift is at
        # most the summed sizes of that tick's give-ups.
        drift = state.intended_frozen.symmetric_difference(authoritative)
        last_tick = state.u_times[-1]
        given_up = [
            int(re.search(r" of (\d+) servers ", event.detail).group(1))
            for event in result.controller_health.events
            if event.kind == "rpc_giveup" and event.time == last_tick
        ]
        assert len(drift) <= sum(given_up)

    def test_violations_bounded_by_fault_free_baseline(
        self, chaos_experiment, baseline_result
    ):
        _, result = chaos_experiment
        faulty = result.experiment.summary.violations
        clean = baseline_result.experiment.summary.violations
        # Acceptance bound: within 2x of the fault-free run (plus one
        # sampled minute of slack so a zero-violation baseline does not
        # make the bound vacuous-strict).
        assert faulty <= 2 * clean + 1

    def test_same_seed_runs_are_byte_identical(self, chaos_experiment):
        from repro.analysis.serialize import result_to_dict

        _, first = chaos_experiment
        second = ControlledExperiment(chaos_config(CHAOS)).run()
        first_doc = json.dumps(result_to_dict(first), sort_keys=True)
        second_doc = json.dumps(result_to_dict(second), sort_keys=True)
        assert first_doc == second_doc
        assert first.fault_stats == second.fault_stats
        assert (
            first.controller_health.summary()
            == second.controller_health.summary()
        )

    def test_fault_free_scenario_changes_nothing(self, baseline_result):
        """A wrapped-but-quiet control plane is behaviourally invisible."""
        from repro.analysis.serialize import result_to_dict

        quiet = FaultScenario(name="quiet")
        wrapped = ControlledExperiment(chaos_config(quiet)).run()
        wrapped_doc = result_to_dict(wrapped, include_series=True)
        clean_doc = result_to_dict(baseline_result, include_series=True)
        # Configs differ by design (one carries the quiet scenario); every
        # measured quantity must not.
        for key in ("experiment", "control", "r_t", "g_tpw"):
            assert json.dumps(wrapped_doc[key], sort_keys=True) == json.dumps(
                clean_doc[key], sort_keys=True
            )
        assert wrapped.fault_stats.rpc_failures == 0
        assert wrapped.controller_health.degraded_ticks == 0


class TestFaultCampaign:
    def test_fault_scenario_crosses_worker_boundary(self):
        """A campaign cell with faults runs in a process pool worker."""
        from repro.sim.campaign import Campaign

        campaign = Campaign(
            ratios=(0.25,),
            workloads={"heavy": WorkloadSpec.heavy()},
            seeds=(7,),
            n_servers=40,
            duration_hours=0.5,
            warmup_hours=0.1,
            faults=FaultScenario(name="flaky", rpc_failure_rate=0.05),
        )
        serial = campaign.run()
        parallel = campaign.run_parallel(max_workers=2)
        assert [r.as_record() for r in serial.rows] == [
            r.as_record() for r in parallel.rows
        ]
        assert serial.rows[0].ok
