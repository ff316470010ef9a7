"""Cross-module edge cases that no single-module test covers."""

import numpy as np
import pytest

from repro.cluster.group import ServerGroup
from repro.core.config import AmpereConfig
from repro.core.controller import AmpereController
from repro.core.demand import ConstantDemandEstimator
from repro.core.freeze_model import FreezeEffectModel
from repro.monitor.power_monitor import PowerMonitor
from repro.scheduler.omega import OmegaScheduler
from repro.sim.engine import Engine
from repro.workload.job import Job
from tests.conftest import assert_tracker_invariant, make_servers


def cluster(n=10, seed=0):
    engine = Engine()
    servers = make_servers(n)
    scheduler = OmegaScheduler(engine, servers, rng=np.random.default_rng(seed))
    return engine, servers, scheduler


class TestFreezeQueueInterplay:
    def test_partial_unfreeze_drains_partially(self):
        engine, servers, scheduler = cluster(n=4)
        for server in servers:
            scheduler.freeze(server.server_id)
        jobs = [Job(i, 100.0, cores=16, memory_gb=8) for i in range(6)]
        for job in jobs:
            scheduler.submit(job)
        assert scheduler.queued_jobs == 6
        scheduler.unfreeze(0)
        scheduler.unfreeze(1)
        # Two servers x 16 cores: exactly two of the 16-core jobs place.
        assert scheduler.queued_jobs == 4
        assert scheduler.stats.placed == 2

    def test_freeze_during_active_queue_is_safe(self):
        engine, servers, scheduler = cluster(n=2)
        for i in range(4):
            scheduler.submit(Job(i, 50.0, cores=16, memory_gb=8))
        scheduler.freeze(0)  # freeze while two jobs wait
        engine.run(until=200.0)
        # Jobs on server 0 finished; its queue share migrated to server 1.
        assert scheduler.stats.completed == 4
        assert servers[0].frozen

    def test_frozen_and_capped_server_recovers_cleanly(self):
        engine, servers, scheduler = cluster(n=2)
        job = Job(1, 100.0, cores=8, memory_gb=4)
        scheduler.submit(job)
        host = job.server
        scheduler.freeze(host.server_id)
        host.set_frequency(0.5)
        engine.run(until=150.0)
        host.set_frequency(1.0)
        scheduler.unfreeze(host.server_id)
        engine.run(until=300.0)
        assert job.is_finished
        assert_tracker_invariant(scheduler.tracker)


class TestControllerGranularity:
    def test_tiny_row_freezes_nothing_below_one_server(self):
        """floor(u * n) == 0 on a tiny row: the controller commands zero
        servers and must not thrash."""
        engine = Engine()
        servers = make_servers(3)
        scheduler = OmegaScheduler(engine, servers, rng=np.random.default_rng(1))
        group = ServerGroup("row", servers)
        group.power_budget_watts = group.power_watts() / 0.99  # just over threshold
        monitor = PowerMonitor(engine, noise_sigma=0.0)
        monitor.register_group(group)
        controller = AmpereController(
            engine, scheduler, monitor, [group],
            config=AmpereConfig(u_max=0.5),
            freeze_model=FreezeEffectModel(0.5),  # big k_r -> small u
            demand_estimator=ConstantDemandEstimator(0.02),
        )
        monitor.sample_once()
        controller.tick()
        assert scheduler.frozen_server_ids() == frozenset()
        assert controller.state_of("row").u_history[-1] == 0.0


class TestOverlappingGroups:
    def test_two_groups_over_same_servers_are_consistent(self):
        engine = Engine()
        servers = make_servers(8)
        whole = ServerGroup("whole", servers)
        half = ServerGroup("half", servers[:4])
        monitor = PowerMonitor(engine, noise_sigma=0.0)
        monitor.register_groups([whole, half])
        monitor.sample_once()
        assert monitor.latest_power("half") == pytest.approx(
            sum(s.power_watts() for s in servers[:4])
        )
        assert monitor.latest_power("whole") == pytest.approx(
            sum(s.power_watts() for s in servers)
        )


class TestBreakerBoundary:
    def test_power_exactly_at_trip_limit_does_not_trip(self):
        from repro.cluster.datacenter import build_row

        row = build_row(0, racks=1, servers_per_rack=4)
        row.power_budget_watts = row.power_watts() / row.breaker_trip_ratio
        assert not row.check_breaker()
        row.power_budget_watts *= 0.999
        assert row.check_breaker()


class TestEngineReuse:
    def test_controller_and_monitor_share_tick_timestamp(self):
        """At a shared timestamp the monitor samples before the controller
        reads -- the controller must see the fresh value."""
        engine = Engine()
        servers = make_servers(4)
        scheduler = OmegaScheduler(engine, servers, rng=np.random.default_rng(2))
        group = ServerGroup("row", servers)
        group.power_budget_watts = group.power_watts() / 1.02
        monitor = PowerMonitor(engine, noise_sigma=0.0)
        monitor.register_group(group)
        controller = AmpereController(
            engine, scheduler, monitor, [group],
            freeze_model=FreezeEffectModel(0.02),
        )
        monitor.start(until=61.0)
        controller.start(until=61.0)
        engine.run(until=120.0)
        # One shared tick at t=60: a sample exists and the controller used it.
        assert monitor.samples_taken == 1
        assert controller.state_of("row").ticks == 1
        assert controller.state_of("row").u_history  # acted on the sample
