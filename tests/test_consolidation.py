"""Tests for the consolidation (power-off) baseline."""

import numpy as np
import pytest

from repro.cluster.group import ServerGroup
from repro.core.consolidation import ConsolidationConfig, ConsolidationController
from repro.monitor.power_monitor import PowerMonitor
from repro.scheduler.omega import OmegaScheduler
from repro.sim.engine import Engine
from repro.workload.job import Job
from tests.conftest import assert_tracker_invariant, make_servers, set_frozen_ids


def rig(n=10, seed=0):
    engine = Engine()
    servers = make_servers(n)
    scheduler = OmegaScheduler(engine, servers, rng=np.random.default_rng(seed))
    group = ServerGroup("row", servers)
    monitor = PowerMonitor(engine, noise_sigma=0.0)
    monitor.register_group(group)
    return engine, servers, scheduler, group, monitor


class TestPowerState:
    def test_power_off_idle_server(self):
        engine, servers, scheduler, group, monitor = rig()
        before = group.power_watts()
        scheduler.power_off_server(0)
        assert servers[0].powered_off
        assert servers[0].power_watts() == 0.0
        assert group.power_watts() < before
        # Not a placement candidate.
        assert 0 not in scheduler.tracker.candidates(1.0, 1.0)

    def test_cannot_power_off_busy_server(self):
        engine, servers, scheduler, group, monitor = rig()
        job = Job(1, 100.0, cores=4, memory_gb=2)
        scheduler.place_pinned(job, 0)
        with pytest.raises(RuntimeError, match="tasks are running"):
            scheduler.power_off_server(0)

    def test_power_on_restores_and_drains(self):
        engine, servers, scheduler, group, monitor = rig(n=1)
        scheduler.power_off_server(0)
        job = Job(1, 50.0)
        scheduler.submit(job)
        assert scheduler.queued_jobs == 1
        scheduler.power_on_server(0)
        assert scheduler.queued_jobs == 0
        assert job.is_running
        assert_tracker_invariant(scheduler.tracker)


class TestController:
    def test_powers_off_when_hot(self):
        engine, servers, scheduler, group, monitor = rig()
        # Budget such that the idle fleet sits above the high threshold.
        group.power_budget_watts = group.power_watts() / 0.99
        config = ConsolidationConfig(step_servers=3, wake_delay_seconds=120.0)
        controller = ConsolidationController(engine, scheduler, monitor, group, config)
        monitor.sample_once()
        controller.tick()
        assert controller.offline_count() == 3
        assert controller.power_offs == 3

    def test_wakes_on_queue_pressure_inside_band(self):
        engine, servers, scheduler, group, monitor = rig()
        config = ConsolidationConfig(step_servers=2, wake_delay_seconds=60.0)
        controller = ConsolidationController(engine, scheduler, monitor, group, config)
        scheduler.power_off_server(0)
        scheduler.power_off_server(1)
        # Power in the hysteresis band (neither off nor wake-by-power),
        # but freeze the rest so a submitted job has to queue.
        group.power_budget_watts = group.power_watts() / 0.95
        for server in servers[2:]:
            set_frozen_ids(scheduler, [server.server_id], True)
        scheduler.submit(Job(1, 50.0))
        monitor.sample_once()
        controller.tick()
        engine.run(until=engine.now + 61.0)
        assert controller.wakes == 2
        assert controller.offline_count() == 0

    def test_hot_and_queued_starves_no_wake(self):
        """The baseline's structural flaw: over the budget with a backlog
        it cannot add capacity -- unlike Ampere, which only gates *new*
        placements and keeps the budget by steering."""
        engine, servers, scheduler, group, monitor = rig()
        config = ConsolidationConfig(step_servers=3)
        controller = ConsolidationController(engine, scheduler, monitor, group, config)
        scheduler.power_off_server(0)
        for i in range(20):
            scheduler.submit(Job(i, 400.0, cores=16, memory_gb=8))
        group.power_budget_watts = group.power_watts() / 1.01  # over budget
        monitor.sample_once()
        controller.tick()
        assert controller.wakes == 0
        assert scheduler.queued_jobs > 0

    def test_respects_online_floor(self):
        engine, servers, scheduler, group, monitor = rig()
        group.power_budget_watts = group.power_watts() / 0.99
        config = ConsolidationConfig(step_servers=100, min_online_fraction=0.8)
        controller = ConsolidationController(engine, scheduler, monitor, group, config)
        monitor.sample_once()
        controller.tick()
        assert controller.offline_count() <= 2  # 10 servers, floor 8

    def test_no_action_before_first_sample(self):
        engine, servers, scheduler, group, monitor = rig()
        controller = ConsolidationController(engine, scheduler, monitor, group)
        controller.tick()
        assert controller.offline_count() == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ConsolidationConfig(low_threshold=0.99, high_threshold=0.98)
        with pytest.raises(ValueError):
            ConsolidationConfig(step_servers=0)

    def test_wake_delay_defers_capacity(self):
        engine, servers, scheduler, group, monitor = rig(n=2)
        scheduler.power_off_server(0)
        scheduler.power_off_server(1)
        controller = ConsolidationController(
            engine, scheduler, monitor, group,
            ConsolidationConfig(wake_delay_seconds=300.0),
        )
        job = Job(1, 50.0)
        scheduler.submit(job)
        monitor.sample_once()
        controller.tick()  # queue present -> wake initiated
        engine.run(until=engine.now + 299.0)
        assert not job.is_running  # still booting
        engine.run(until=engine.now + 2.0)
        assert job.is_running
