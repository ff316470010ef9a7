"""Tests for the breaker-trip physics and the emergency safety ladder.

Covers the inverse-time breaker model in isolation, the supervisor's
escalation/de-escalation behaviour against a hand-driven cluster, and
the acceptance pair at the heart of PR 4: the same seeded demand surge
trips the breaker with the supervisor disabled and causes *zero* trips
with it enabled.
"""

import json

import numpy as np
import pytest

from repro.cluster.breaker import (
    BREAKER_EVENT_ID,
    BreakerCurve,
    BreakerStats,
    RowBreaker,
)
from repro.cluster.capping import CappingEngine
from repro.cluster.group import ServerGroup
from repro.core.safety import SafetyConfig, SafetyState, SafetySupervisor
from repro.faults.scenario import FaultScenario, builtin_scenarios
from repro.sim.engine import Engine
from repro.sim.eventlog import ControlEventLog
from repro.scheduler.omega import OmegaScheduler
from repro.sim.experiment import ControlledExperiment, ExperimentConfig
from repro.sim.testbed import WorkloadSpec
from repro.workload.job import Job
from tests.conftest import make_servers, set_frozen_ids


class ClusterHarness:
    """A tiny loaded cluster with a real scheduler behind it."""

    def __init__(self, n=4, jobs_per_server=1, cores_per_job=None, work=1e6):
        self.engine = Engine()
        self.servers = make_servers(n)
        self.scheduler = OmegaScheduler(
            self.engine, self.servers, rng=np.random.default_rng(3)
        )
        if cores_per_job is None:
            cores_per_job = 16 // jobs_per_server
        job_id = 0
        for _ in range(jobs_per_server):
            for _ in self.servers:
                self.scheduler.submit(
                    Job(job_id, work, cores=cores_per_job, memory_gb=1.0)
                )
                job_id += 1
        self.group = ServerGroup("row", self.servers)
        self._devices = []

    def set_ratio(self, ratio):
        """Pin the group's load ratio by scaling the budget.

        The harness models *load* swings, not fleet budget moves, so the
        physical rating of any breaker/supervisor already built against
        the group tracks the scaled budget.
        """
        self.group.power_budget_watts = self.group.power_watts() / ratio
        for device in self._devices:
            device.rating_watts = self.group.power_budget_watts

    def breaker(self, **kwargs):
        breaker = RowBreaker(
            self.group, self.engine, self.scheduler, **kwargs
        )
        self._devices.append(breaker)
        return breaker

    def supervisor(self, config=SafetyConfig(), breaker=None, event_log=None):
        capping = CappingEngine(self.group, self.engine)
        supervisor = SafetySupervisor(
            self.engine,
            self.group,
            self.scheduler,
            capping,
            config=config,
            breaker=breaker,
            event_log=event_log,
        )
        self._devices.append(supervisor)
        return supervisor


# ---------------------------------------------------------------------------
# The trip curve
# ---------------------------------------------------------------------------


class TestBreakerCurve:
    def test_no_heating_below_pickup(self):
        curve = BreakerCurve()
        assert curve.heating_rate(1.0) == 0.0
        assert curve.heating_rate(curve.pickup_ratio) == 0.0
        assert curve.seconds_to_trip(1.0) == float("inf")

    def test_inverse_time_law(self):
        """A deeper overload trips strictly faster -- the I2t property."""
        curve = BreakerCurve()
        mild = curve.seconds_to_trip(1.10)
        deep = curve.seconds_to_trip(1.30)
        assert deep < mild < float("inf")
        # 25% over trips several times faster than 5% over.
        assert mild / deep > 3.0

    def test_heating_rate_is_quadratic(self):
        curve = BreakerCurve(pickup_ratio=1.0)
        assert curve.heating_rate(1.2) == pytest.approx(1.2**2 - 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pickup_ratio": 0.9},
            {"instant_trip_ratio": 1.0},
            {"i2t_threshold": 0.0},
            {"cooldown_per_second": -1.0},
        ],
    )
    def test_invalid_curves_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BreakerCurve(**kwargs)


# ---------------------------------------------------------------------------
# The breaker against a live cluster
# ---------------------------------------------------------------------------


class TestRowBreaker:
    def test_sustained_overload_trips(self):
        harness = ClusterHarness()
        harness.set_ratio(1.25)
        breaker = harness.breaker(interval=5.0)
        expected_ticks = breaker.curve.seconds_to_trip(1.25) / 5.0
        ticks = 0
        while not breaker.tripped and ticks < 1000:
            breaker.tick()
            ticks += 1
        assert breaker.tripped
        assert ticks == pytest.approx(expected_ticks, abs=1.0)
        assert breaker.stats.trips == 1

    def test_marginal_load_never_trips(self):
        harness = ClusterHarness()
        harness.set_ratio(1.02)  # below the 1.05 pickup
        breaker = harness.breaker()
        for _ in range(10_000):
            breaker.tick()
        assert not breaker.tripped
        assert breaker.thermal_load == 0.0

    def test_instant_magnetic_trip(self):
        harness = ClusterHarness()
        harness.set_ratio(1.6)  # above instant_trip_ratio
        breaker = harness.breaker()
        breaker.tick()
        assert breaker.tripped
        assert breaker.stats.trips == 1

    def test_cooldown_sheds_heat(self):
        harness = ClusterHarness()
        harness.set_ratio(1.25)
        breaker = harness.breaker(interval=5.0)
        breaker.tick()
        heated = breaker.thermal_load
        assert heated > 0
        harness.set_ratio(0.8)  # back under pickup
        breaker.tick()
        assert breaker.thermal_load < heated
        for _ in range(50):
            breaker.tick()
        assert breaker.thermal_load == 0.0

    def test_trip_kills_jobs_and_darkens_row(self):
        harness = ClusterHarness()
        harness.set_ratio(1.6)
        log = ControlEventLog(harness.engine)
        breaker = harness.breaker(event_log=log)
        breaker.tick()
        # Every server is dark: the whole row reads 0 W.
        assert harness.group.power_watts() == 0.0
        assert all(s.failed for s in harness.servers)
        assert breaker.stats.jobs_killed == len(harness.servers)
        assert breaker.stats.servers_deenergized == len(harness.servers)
        kinds = log.counts_by_kind()
        assert kinds["trip"] == 1
        trip_events = [e for e in log.events if e.kind == "trip"]
        assert trip_events[0].server_id == BREAKER_EVENT_ID

    def test_tripped_breaker_stops_evaluating(self):
        harness = ClusterHarness()
        harness.set_ratio(1.6)
        breaker = harness.breaker()
        breaker.tick()
        breaker.tick()  # no flow through an open breaker
        assert breaker.stats.trips == 1

    def test_reset_reenergizes_row(self):
        harness = ClusterHarness()
        harness.set_ratio(1.6)
        log = ControlEventLog(harness.engine)
        breaker = harness.breaker(reset_delay_seconds=900.0, event_log=log)
        breaker.tick()
        harness.engine.run(until=1000.0)
        assert not breaker.tripped
        assert breaker.thermal_load == 0.0
        assert not any(s.failed for s in harness.servers)
        assert breaker.stats.resets == 1
        assert log.counts_by_kind()["reset"] == 1
        # The row comes back empty but powered (idle floor > 0).
        assert harness.group.power_watts() > 0.0

    def test_trip_skips_already_failed_servers(self):
        """A crash-storm casualty is not the breaker's to repair."""
        harness = ClusterHarness()
        harness.scheduler.fail_server(0)  # down before the trip
        harness.set_ratio(1.6)
        breaker = harness.breaker(reset_delay_seconds=100.0)
        breaker.tick()
        assert breaker.stats.servers_deenergized == len(harness.servers) - 1
        harness.engine.run(until=200.0)
        # The reset repaired only what the trip de-energized.
        assert harness.servers[0].failed
        assert not any(s.failed for s in harness.servers[1:])

    def test_periodic_start_trips_on_engine_clock(self):
        harness = ClusterHarness()
        harness.set_ratio(1.25)
        breaker = harness.breaker(interval=5.0)
        breaker.start(until=300.0)
        harness.engine.run(until=300.0)
        assert breaker.tripped
        expected = breaker.curve.seconds_to_trip(1.25)
        assert breaker.stats.trip_times[0] == pytest.approx(expected, abs=5.0)

    @pytest.mark.parametrize(
        "kwargs", [{"interval": 0.0}, {"reset_delay_seconds": 0.0}]
    )
    def test_invalid_args(self, kwargs):
        harness = ClusterHarness()
        with pytest.raises(ValueError):
            harness.breaker(**kwargs)

    def test_stats_snapshot_is_independent(self):
        harness = ClusterHarness()
        harness.set_ratio(1.6)
        breaker = harness.breaker()
        breaker.tick()
        snap = breaker.stats_snapshot()
        assert isinstance(snap, BreakerStats)
        snap.trip_times.append(123.0)
        assert breaker.stats.trip_times != snap.trip_times


# ---------------------------------------------------------------------------
# The supervisor ladder
# ---------------------------------------------------------------------------


class TestSafetyConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"interval_seconds": 0.0},
            {"release_ratio": 1.2},
            {"release_ratio": 0.0},
            {"critical_ratio": 0.9},
            {"shed_thermal_fraction": 0.0},
            {"shed_thermal_fraction": 1.5},
            {"release_ticks": 0},
            {"breaker_interval_seconds": 0.0},
            {"breaker_reset_minutes": 0.0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SafetyConfig(**kwargs)


class TestSafetySupervisor:
    def test_normal_below_warning(self):
        harness = ClusterHarness()
        harness.set_ratio(0.9)
        supervisor = harness.supervisor()
        supervisor.tick()
        assert supervisor.state == SafetyState.NORMAL
        assert supervisor.stats.freezes_issued == 0

    def test_warning_freezes_whole_group(self):
        harness = ClusterHarness()
        harness.set_ratio(1.02)  # >= warning, < critical
        supervisor = harness.supervisor()
        supervisor.tick()
        assert supervisor.state == SafetyState.WARNING
        assert harness.scheduler.frozen_server_ids() == {
            s.server_id for s in harness.servers
        }
        assert supervisor.stats.freezes_issued == len(harness.servers)

    def test_critical_slams_dvfs_to_floor(self):
        harness = ClusterHarness()
        harness.set_ratio(1.2)
        supervisor = harness.supervisor()
        supervisor.tick()
        assert supervisor.state == SafetyState.CRITICAL
        assert all(s.frequency == 0.5 for s in harness.servers)
        assert supervisor.stats.slams == 1
        # Slamming actually cut power.
        assert harness.group.normalized_power() < 1.2

    def test_breaker_heat_forces_shedding(self):
        harness = ClusterHarness(jobs_per_server=4)
        # Tight enough that even the CRITICAL slam cannot reach the
        # release line on its own: shedding must make up the rest.
        harness.set_ratio(1.35)
        breaker = harness.breaker()
        # The freeze/slam layers did not stop the thermal element.
        breaker.thermal_load = 0.5 * breaker.curve.i2t_threshold
        supervisor = harness.supervisor(breaker=breaker)
        supervisor.tick()
        assert supervisor.state == SafetyState.SHED
        assert supervisor.stats.jobs_shed > 0
        # Shedding drove true power to the release line.
        assert (
            harness.group.power_watts()
            <= supervisor.config.release_ratio * harness.group.power_budget_watts
        )

    def test_shedding_spares_pinned_services(self):
        harness = ClusterHarness(jobs_per_server=2, cores_per_job=7)
        # Pin one service per server (infinite work).
        for server in harness.servers:
            pinned = Job(
                1000 + server.server_id,
                float("inf"),
                cores=1.0,
                memory_gb=0.5,
            )
            harness.scheduler.place_pinned(pinned, server.server_id)
        harness.set_ratio(1.35)
        breaker = harness.breaker()
        breaker.thermal_load = 0.5 * breaker.curve.i2t_threshold
        supervisor = harness.supervisor(breaker=breaker)
        supervisor.tick()
        assert supervisor.stats.jobs_shed > 0
        for server in harness.servers:
            assert any(
                t.remaining_work == float("inf") for t in server.tasks.values()
            )

    def test_shed_work_is_not_resubmitted(self):
        harness = ClusterHarness(jobs_per_server=4)
        harness.set_ratio(1.35)
        breaker = harness.breaker()
        breaker.thermal_load = 0.5 * breaker.curve.i2t_threshold
        supervisor = harness.supervisor(breaker=breaker)
        before = sum(len(s.tasks) for s in harness.servers)
        supervisor.tick()
        after = sum(len(s.tasks) for s in harness.servers)
        assert supervisor.stats.jobs_shed > 0
        assert after == before - supervisor.stats.jobs_shed
        assert harness.scheduler.queued_jobs == 0  # dropped, not relocated

    def test_deescalation_is_hysteretic_and_stepwise(self):
        config = SafetyConfig(release_ticks=3)
        harness = ClusterHarness()
        harness.set_ratio(1.2)
        supervisor = harness.supervisor(config=config)
        supervisor.tick()
        assert supervisor.state == SafetyState.CRITICAL
        # Calm down: power falls well under the release line.
        harness.set_ratio(0.5)
        supervisor.tick()
        supervisor.tick()
        assert supervisor.state == SafetyState.CRITICAL  # still holding
        supervisor.tick()  # third calm tick: step down ONE level
        assert supervisor.state == SafetyState.WARNING
        for _ in range(3):
            supervisor.tick()
        assert supervisor.state == SafetyState.NORMAL
        assert supervisor.stats.deescalations == 2

    def test_relapse_resets_the_calm_clock(self):
        config = SafetyConfig(release_ticks=3)
        harness = ClusterHarness()
        harness.set_ratio(1.2)
        supervisor = harness.supervisor(config=config)
        supervisor.tick()
        harness.set_ratio(0.5)
        supervisor.tick()
        supervisor.tick()
        harness.set_ratio(1.2)  # surge returns before release_ticks
        supervisor.tick()
        harness.set_ratio(0.5)
        supervisor.tick()
        supervisor.tick()
        assert supervisor.state == SafetyState.CRITICAL
        supervisor.tick()  # the calm count restarted from zero
        assert supervisor.state == SafetyState.WARNING

    def test_return_to_normal_releases_only_own_freezes(self):
        config = SafetyConfig(release_ticks=1)
        harness = ClusterHarness()
        # Server 0 was frozen by "the controller" before the emergency.
        set_frozen_ids(harness.scheduler, [0], True)
        harness.set_ratio(1.02)
        supervisor = harness.supervisor(config=config)
        supervisor.tick()
        assert len(harness.scheduler.frozen_server_ids()) == len(harness.servers)
        harness.set_ratio(0.5)
        supervisor.tick()  # de-escalates to NORMAL, releases its freezes
        assert supervisor.state == SafetyState.NORMAL
        assert harness.scheduler.frozen_server_ids() == frozenset({0})

    def test_holds_while_breaker_is_tripped(self):
        harness = ClusterHarness()
        harness.set_ratio(1.6)
        breaker = harness.breaker()
        breaker.tick()
        assert breaker.tripped
        supervisor = harness.supervisor(breaker=breaker)
        supervisor.tick()
        # Nothing to protect on a dark row: no state change, no actions.
        assert supervisor.state == SafetyState.NORMAL
        assert supervisor.stats.freezes_issued == 0

    def test_escalation_skips_straight_to_critical(self):
        harness = ClusterHarness()
        harness.set_ratio(1.5)
        supervisor = harness.supervisor()
        supervisor.tick()
        assert supervisor.state == SafetyState.CRITICAL
        assert supervisor.stats.escalations == 1
        assert supervisor.stats.max_state == int(SafetyState.CRITICAL)

    def test_transitions_recorded(self):
        harness = ClusterHarness()
        harness.set_ratio(1.02)
        supervisor = harness.supervisor()
        supervisor.tick()
        assert supervisor.stats.transitions == [(0.0, "NORMAL", "WARNING")]
        snap = supervisor.stats_snapshot()
        snap.transitions.append("bogus")
        assert supervisor.stats.transitions != snap.transitions


# ---------------------------------------------------------------------------
# Acceptance: the seeded surge, with and without the ladder
# ---------------------------------------------------------------------------


def surge_config(supervisor_enabled):
    return ExperimentConfig(
        n_servers=120,
        duration_hours=2.0,
        warmup_hours=1.0,
        over_provision_ratio=0.25,
        workload=WorkloadSpec.typical(),
        seed=42,
        faults=builtin_scenarios()["surge"],
        safety=SafetyConfig(supervisor_enabled=supervisor_enabled),
        telemetry_enabled=True,
    )


@pytest.fixture(scope="module")
def unprotected_surge():
    """Breaker physics armed, ladder off: the ablation run."""
    experiment = ControlledExperiment(surge_config(supervisor_enabled=False))
    return experiment, experiment.run()


@pytest.fixture(scope="module")
def protected_surge():
    """Same seed, same surge, supervisor on."""
    experiment = ControlledExperiment(surge_config(supervisor_enabled=True))
    return experiment, experiment.run()


class TestSurgeAcceptance:
    def test_surge_without_ladder_trips_the_breaker(self, unprotected_surge):
        _, result = unprotected_surge
        stats = result.breaker_stats
        assert stats is not None
        assert stats.trips > 0
        assert stats.jobs_killed > 0
        assert stats.servers_deenergized > 0
        assert result.safety_stats is None  # supervisor was off

    def test_trip_lands_in_event_log_and_telemetry(self, unprotected_surge):
        experiment, result = unprotected_surge
        kinds = experiment.event_log.counts_by_kind()
        assert kinds.get("trip", 0) == result.breaker_stats.trips
        assert kinds.get("reset", 0) >= result.breaker_stats.trips - 1
        registry = experiment.telemetry.registry
        assert registry.value(
            "repro_breaker_trips_total", {"group": "experiment"}
        ) == float(result.breaker_stats.trips)

    def test_trips_only_hit_the_experiment_group(self, unprotected_surge):
        """The control group is the consequence-free measurement baseline."""
        experiment, _ = unprotected_surge
        control_ids = {s.server_id for s in experiment.control_group.servers}
        fail_events = [
            e for e in experiment.event_log.events if e.kind == "fail"
        ]
        assert fail_events
        assert not any(e.server_id in control_ids for e in fail_events)

    def test_surge_with_ladder_prevents_every_trip(self, protected_surge):
        _, result = protected_surge
        assert result.breaker_stats.trips == 0
        assert result.breaker_stats.jobs_killed == 0
        safety = result.safety_stats
        assert safety is not None
        assert safety.escalations > 0
        assert safety.max_state >= int(SafetyState.CRITICAL)
        assert safety.slams >= 1
        # ... and it came back down when the surge passed.
        assert safety.deescalations > 0
        assert safety.seconds_in_state.get("NORMAL", 0.0) > 0.0

    def test_ladder_state_visible_in_telemetry(self, protected_surge):
        experiment, result = protected_surge
        registry = experiment.telemetry.registry
        assert registry.value(
            "repro_safety_escalations_total", {"group": "experiment"}
        ) == float(result.safety_stats.escalations)

    def test_serialized_results_carry_safety_sections(
        self, unprotected_surge, protected_surge
    ):
        from repro.analysis.serialize import result_to_dict

        _, unprotected = unprotected_surge
        _, protected = protected_surge
        doc = result_to_dict(unprotected, include_series=False)
        assert doc["breaker"]["trips"] == unprotected.breaker_stats.trips
        assert "safety" not in doc
        doc = result_to_dict(protected, include_series=False)
        assert doc["breaker"]["trips"] == 0
        assert doc["safety"]["escalations"] > 0
        json.dumps(doc)  # the whole document is JSON-clean

    def test_same_seed_rerun_is_identical(self, protected_surge):
        _, first = protected_surge
        second = ControlledExperiment(
            surge_config(supervisor_enabled=True)
        ).run()
        assert first.safety_stats == second.safety_stats
        assert first.breaker_stats == second.breaker_stats


# ---------------------------------------------------------------------------
# Campaigns: hazards + safety across the worker boundary
# ---------------------------------------------------------------------------


def hazard_campaign():
    """A short campaign with every data-plane hazard active and the
    safety ladder armed -- the determinism stress case."""
    from repro.sim.campaign import Campaign

    scenario = FaultScenario(
        name="early-chaos",
        surges=((300.0, 600.0, 5.0),),
        sensor_bias=((400.0, 500.0, 0.9),),
        server_mtbf_hours=2.0,
        server_mttr_minutes=5.0,
        crash_storms=((600.0, 300.0, 0.5),),
    )
    return Campaign(
        ratios=(0.25,),
        workloads={"heavy": WorkloadSpec.heavy()},
        seeds=(7, 8),
        n_servers=40,
        duration_hours=0.5,
        warmup_hours=0.05,
        faults=scenario,
        safety=SafetyConfig(),
        telemetry=True,
    )


class TestHazardCampaignDeterminism:
    def test_serial_and_parallel_rows_byte_identical(self):
        from repro.analysis.serialize import campaign_rows_to_dicts
        from repro.telemetry import render_prometheus

        campaign = hazard_campaign()
        serial = campaign.run()
        parallel = campaign.run_parallel(max_workers=2)
        serial_doc = json.dumps(
            campaign_rows_to_dicts(serial.rows), sort_keys=True
        )
        parallel_doc = json.dumps(
            campaign_rows_to_dicts(parallel.rows), sort_keys=True
        )
        assert serial_doc == parallel_doc
        assert render_prometheus(
            serial.merged_telemetry()
        ) == render_prometheus(parallel.merged_telemetry())

    def test_rows_expose_trips_and_shed_counts(self):
        campaign = hazard_campaign()
        result = campaign.run()
        for row in result.rows:
            assert row.ok
            record = row.as_record()
            assert "trips" in record and "jobs_shed" in record
