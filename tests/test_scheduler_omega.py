"""Tests for the two-level Omega-like scheduler."""

import numpy as np
import pytest

from repro.scheduler.omega import Framework, OmegaScheduler
from repro.scheduler.policies import BestFitPolicy
from repro.sim.engine import Engine
from repro.sim.events import EventPriority
from repro.workload.job import Job
from tests.conftest import make_servers, set_frozen_ids


@pytest.fixture
def setup():
    engine = Engine()
    servers = make_servers(4)
    scheduler = OmegaScheduler(engine, servers, rng=np.random.default_rng(7))
    return engine, servers, scheduler


def make_job(job_id, work=100.0, cores=4.0, memory_gb=8.0, **kwargs):
    return Job(job_id, work, cores=cores, memory_gb=memory_gb, **kwargs)


class TestPlacementAndCompletion:
    def test_submit_places_immediately(self, setup):
        engine, servers, scheduler = setup
        scheduler.submit(make_job(1))
        assert scheduler.stats.placed == 1
        assert scheduler.queued_jobs == 0
        assert sum(len(s.tasks) for s in servers) == 1

    def test_job_completes_at_eta(self, setup):
        engine, servers, scheduler = setup
        job = make_job(1, work=100.0)
        scheduler.submit(job)
        engine.run(until=99.0)
        assert not job.is_finished
        engine.run(until=101.0)
        assert job.is_finished
        assert job.finish_time == pytest.approx(100.0)
        assert scheduler.stats.completed == 1
        assert sum(len(s.tasks) for s in servers) == 0

    def test_queued_when_full_then_drains(self, setup):
        engine, servers, scheduler = setup
        # Fill the cluster: 4 servers x 16 cores = 64 cores.
        for i in range(16):
            scheduler.submit(make_job(i, work=100.0, cores=4.0))
        overflow = make_job(99, work=50.0, cores=4.0)
        scheduler.submit(overflow)
        assert scheduler.queued_jobs == 1
        engine.run(until=150.5)
        assert overflow.is_finished
        assert scheduler.stats.completed == 17

    def test_fifo_order_preserved_when_queueing(self, setup):
        engine, servers, scheduler = setup
        for i in range(16):
            scheduler.submit(make_job(i, work=100.0, cores=4.0))
        first = make_job(100, work=10.0, cores=4.0)
        second = make_job(101, work=10.0, cores=4.0)
        scheduler.submit(first)
        scheduler.submit(second)
        engine.run(until=300.0)
        assert first.start_time <= second.start_time

    def test_placement_listeners_fire(self, setup):
        engine, servers, scheduler = setup
        events = []
        scheduler.placement_listeners.append(lambda j, s: events.append((j.job_id, s.server_id)))
        scheduler.submit(make_job(1))
        assert len(events) == 1

    def test_completion_listeners_fire(self, setup):
        engine, servers, scheduler = setup
        events = []
        scheduler.completion_listeners.append(lambda j, s: events.append(j.job_id))
        scheduler.submit(make_job(1, work=10.0))
        engine.run()
        assert events == [1]

    def test_stats_by_product(self, setup):
        engine, servers, scheduler = setup
        scheduler.submit(make_job(1, product="a"))
        scheduler.submit(make_job(2, product="a"))
        scheduler.submit(make_job(3, product="b"))
        assert scheduler.stats.placed_by_product == {"a": 2, "b": 1}


class TestFreezeSemantics:
    def test_frozen_server_receives_no_new_jobs(self, setup):
        engine, servers, scheduler = setup
        scheduler.set_frozen([s._index for s in servers[1:]], True)
        for i in range(3):
            scheduler.submit(make_job(i))
        assert len(servers[0].tasks) == 3
        assert all(len(s.tasks) == 0 for s in servers[1:])

    def test_freeze_does_not_disturb_running_jobs(self, setup):
        engine, servers, scheduler = setup
        job = make_job(1, work=100.0)
        scheduler.submit(job)
        host = job.server
        scheduler.set_frozen([host._index], True)
        engine.run(until=150.0)
        assert job.is_finished
        assert job.slowdown == pytest.approx(1.0)

    def test_unfreeze_drains_queue(self, setup):
        engine, servers, scheduler = setup
        scheduler.set_frozen([s._index for s in servers], True)
        job = make_job(1)
        scheduler.submit(job)
        assert scheduler.queued_jobs == 1
        scheduler.set_frozen([servers[2]._index], False)
        assert scheduler.queued_jobs == 0
        assert job.server is servers[2]

    def test_frozen_server_ids(self, setup):
        engine, servers, scheduler = setup
        scheduler.set_frozen([servers[0]._index, servers[2]._index], True)
        assert scheduler.frozen_server_ids() == frozenset({0, 2})
        scheduler.set_frozen([servers[0]._index], False)
        assert scheduler.frozen_server_ids() == frozenset({2})

    def test_freeze_unknown_server_raises(self, setup):
        engine, servers, scheduler = setup
        with pytest.raises(KeyError):
            scheduler.set_frozen([999], True)
        with pytest.raises(KeyError):
            scheduler.set_frozen([999], False)

    def test_all_frozen_queues_everything(self, setup):
        engine, servers, scheduler = setup
        scheduler.set_frozen([s._index for s in servers], True)
        for i in range(5):
            scheduler.submit(make_job(i))
        assert scheduler.queued_jobs == 5
        assert scheduler.stats.placed == 0


class TestGroupFreeze:
    """``set_frozen`` freezes or thaws many servers in one call."""

    def test_skips_down_servers_and_notifies_once(self, setup):
        engine, servers, scheduler = setup
        calls = []
        scheduler.control_listeners.append(lambda a, ids: calls.append((a, ids)))
        scheduler.fail_server(1)
        scheduler.power_off_server(2)
        slots = [s._index for s in servers]
        assert scheduler.set_frozen(slots, True) == [0, 3]
        assert [s.frozen for s in servers] == [True, False, False, True]
        assert scheduler.frozen_server_ids() == frozenset({0, 3})
        assert calls == [("fail", (1,)), ("freeze", [0, 3])]
        assert scheduler.set_frozen(slots, True) == []  # nothing left to do
        assert scheduler.set_frozen(slots, False) == [0, 3]
        assert calls[2:] == [("unfreeze", [0, 3])]
        assert scheduler.frozen_server_ids() == frozenset()

    def test_one_id_freeze_is_the_same_call(self, setup):
        engine, servers, scheduler = setup
        calls = []
        scheduler.control_listeners.append(lambda a, ids: calls.append((a, list(ids))))
        slot = servers[2]._index
        assert scheduler.set_frozen([slot], True) == [2]
        assert scheduler.set_frozen([slot], True) == []  # idempotent
        assert scheduler.set_frozen([slot], False) == [2]
        assert calls == [("freeze", [2]), ("unfreeze", [2])]

    def test_a_thaw_clears_dark_servers_too(self, setup):
        """A freeze skips dark servers, but a thaw clears the flag of a
        server that failed while frozen: repaired, it is schedulable."""
        engine, servers, scheduler = setup
        slots = [s._index for s in servers]
        scheduler.set_frozen(slots, True)
        scheduler.fail_server(1)
        assert scheduler.set_frozen(slots, False) == [0, 1, 2, 3]
        scheduler.repair_server(1)
        assert not servers[1].frozen

    def test_foreign_slots_are_refused(self, setup):
        engine, servers, scheduler = setup
        with pytest.raises(KeyError):
            scheduler.set_frozen([len(servers)], True)

    def test_group_thaw_drains_once_over_every_thawed_server(self, setup, monkeypatch):
        """Thawing a group with a backlog runs one drain after the whole
        group is schedulable: the queued jobs land where the policy puts
        them with every server open -- exactly where a scheduler that
        never froze places the same submissions -- instead of packing
        onto the first server thawed."""
        engine, servers, scheduler = setup
        slots = [s._index for s in servers]
        scheduler.set_frozen(slots, True)
        jobs = [make_job(i, cores=1.0, memory_gb=1.0) for i in range(8)]
        for job in jobs:
            scheduler.submit(job)
        assert scheduler.queued_jobs == 8
        drains = []
        drain = scheduler._drain_queues
        monkeypatch.setattr(scheduler, "_drain_queues", lambda: (drains.append(1), drain()))
        assert scheduler.set_frozen(slots, False) == [0, 1, 2, 3]
        assert drains == [1]
        assert scheduler.queued_jobs == 0

        twin_servers = make_servers(4)
        twin = OmegaScheduler(Engine(), twin_servers, rng=np.random.default_rng(7))
        twin_jobs = [make_job(i, cores=1.0, memory_gb=1.0) for i in range(8)]
        for job in twin_jobs:
            twin.submit(job)
        hosts = [job.server.server_id for job in jobs]
        assert hosts == [job.server.server_id for job in twin_jobs]
        assert len(set(hosts)) > 1  # one server fits all eight


class TestBackfill:
    def test_backfill_places_small_job_behind_blocked_head(self, setup):
        engine, servers, scheduler = setup
        # Leave exactly 2 cores free on each server.
        for i in range(4):
            scheduler.submit(make_job(i, work=1000.0, cores=14.0, memory_gb=8.0))
        big = make_job(100, work=10.0, cores=8.0)  # cannot fit anywhere
        small = make_job(101, work=10.0, cores=2.0, memory_gb=1.0)
        scheduler.submit(big)
        scheduler.submit(small)
        # Trigger a drain via unfreeze (freeze/unfreeze cycle).
        scheduler.set_frozen([servers[0]._index], True)
        scheduler.set_frozen([servers[0]._index], False)
        assert small.is_running
        assert not big.is_running


class TestFrequencyCoupling:
    def test_capped_server_stretches_completion(self, setup):
        engine, servers, scheduler = setup
        job = make_job(1, work=100.0)
        scheduler.submit(job)
        host = job.server
        engine.run(until=50.0)
        host.set_frequency(0.5)  # halfway through, slow to half speed
        engine.run(until=149.0)
        assert not job.is_finished
        engine.run(until=151.0)
        assert job.is_finished
        assert job.finish_time == pytest.approx(150.0)
        assert job.slowdown == pytest.approx(1.5)

    def test_uncapping_pulls_completion_earlier(self, setup):
        engine, servers, scheduler = setup
        job = make_job(1, work=100.0)
        scheduler.submit(job)
        host = job.server
        host.set_frequency(0.5)
        engine.run(until=100.0)  # 50 work done
        host.set_frequency(1.0)
        engine.run(until=151.0)
        assert job.is_finished
        assert job.finish_time == pytest.approx(150.0)


class TestFrameworks:
    def test_jobs_route_to_registered_framework(self, setup):
        engine, servers, scheduler = setup
        framework = Framework("analytics", policy=BestFitPolicy())
        scheduler.register_framework(framework)
        # Every server frozen: each job waits in its framework's queue.
        set_frozen_ids(scheduler, [s.server_id for s in servers], True)
        job = make_job(1, product="analytics")
        other = make_job(2, product="other")
        scheduler.submit(job)
        scheduler.submit(other)
        assert list(framework.queue) == [job]
        assert scheduler.all_frameworks()[0].name == "default"
        assert list(scheduler.all_frameworks()[0].queue) == [other]

    def test_duplicate_framework_raises(self, setup):
        engine, servers, scheduler = setup
        scheduler.register_framework(Framework("a"))
        with pytest.raises(ValueError):
            scheduler.register_framework(Framework("a"))

    def test_invalid_backfill_depth(self):
        with pytest.raises(ValueError):
            Framework("f", backfill_depth=0)


class TestPinnedPlacement:
    def test_place_pinned_claims_resources(self, setup):
        engine, servers, scheduler = setup
        service = Job(999, float("inf"), cores=8.0, memory_gb=16.0)
        scheduler.place_pinned(service, 2)
        assert servers[2].used_cores == 8.0
        # New jobs still fit around the service.
        scheduler.submit(make_job(1, cores=8.0))
        assert scheduler.stats.placed == 1

    def test_pinned_job_survives_frequency_change(self, setup):
        engine, servers, scheduler = setup
        service = Job(999, float("inf"), cores=8.0, memory_gb=16.0)
        scheduler.place_pinned(service, 2)
        engine.schedule(10.0, EventPriority.GENERIC, lambda: servers[2].set_frequency(0.5))
        engine.run(until=20.0)
        assert not service.is_finished
        assert service.remaining_work == float("inf")

    def test_place_pinned_unknown_server_raises(self, setup):
        engine, servers, scheduler = setup
        with pytest.raises(KeyError):
            scheduler.place_pinned(make_job(1), 999)
