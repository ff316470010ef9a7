"""Tests for the interactive service and the Redis-like benchmark."""

import numpy as np
import pytest

from repro.scheduler.omega import OmegaScheduler
from repro.sim.engine import Engine
from repro.sim.events import EventPriority
from repro.workload.interactive import (
    REDIS_OPERATIONS,
    InteractiveService,
    RedisBenchmark,
    lindley_waits,
)
from tests.conftest import make_servers


@pytest.fixture
def setup():
    engine = Engine()
    servers = make_servers(4)
    scheduler = OmegaScheduler(engine, servers, rng=np.random.default_rng(0))
    return engine, servers, scheduler


class TestLindley:
    def brute_force(self, interarrivals, services):
        waits = np.zeros(len(services))
        w = 0.0
        for i in range(1, len(services)):
            w = max(0.0, w + services[i - 1] - interarrivals[i])
            waits[i] = w
        return waits

    def test_matches_brute_force(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 200))
            inter = rng.exponential(1.0, size=n)
            inter[0] = 0.0
            services = rng.gamma(2.0, 0.3, size=n)
            np.testing.assert_allclose(
                lindley_waits(inter, services),
                self.brute_force(inter, services),
                rtol=1e-10,
                atol=1e-12,
            )

    def test_no_queueing_when_sparse(self):
        inter = np.array([0.0, 10.0, 10.0])
        services = np.array([1.0, 1.0, 1.0])
        np.testing.assert_array_equal(lindley_waits(inter, services), 0.0)

    def test_back_to_back_accumulates(self):
        inter = np.array([0.0, 0.0, 0.0])
        services = np.array([1.0, 1.0, 1.0])
        np.testing.assert_allclose(lindley_waits(inter, services), [0.0, 1.0, 2.0])

    def test_waits_non_negative(self, rng):
        inter = rng.exponential(1.0, size=1000)
        inter[0] = 0.0
        services = rng.gamma(1.0, 0.1, size=1000)
        assert (lindley_waits(inter, services) >= 0).all()

    def test_empty_input(self):
        assert len(lindley_waits(np.empty(0), np.empty(0))) == 0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            lindley_waits(np.zeros(3), np.zeros(4))


class TestInteractiveService:
    def test_reservation_claims_cores(self, setup):
        engine, servers, scheduler = setup
        InteractiveService(servers[1], engine, scheduler, cores=8.0)
        assert servers[1].used_cores == 8.0
        assert servers[1].utilization > 0.5

    def test_frequency_timeline_records_changes(self, setup):
        engine, servers, scheduler = setup
        service = InteractiveService(servers[0], engine, scheduler)
        engine.schedule(10.0, EventPriority.GENERIC, lambda: servers[0].set_frequency(0.5))
        engine.schedule(20.0, EventPriority.GENERIC, lambda: servers[0].set_frequency(1.0))
        engine.run()
        times, freqs = service.frequency_timeline()
        assert times.tolist() == [0.0, 10.0, 20.0]
        assert freqs.tolist() == [1.0, 0.5, 1.0]

    def test_frequency_at_vectorized(self, setup):
        engine, servers, scheduler = setup
        service = InteractiveService(servers[0], engine, scheduler)
        engine.schedule(10.0, EventPriority.GENERIC, lambda: servers[0].set_frequency(0.5))
        engine.run()
        query = np.array([5.0, 9.999, 10.0, 15.0])
        np.testing.assert_array_equal(
            service.frequency_at(query), [1.0, 1.0, 0.5, 0.5]
        )

    def test_fraction_time_capped(self, setup):
        engine, servers, scheduler = setup
        service = InteractiveService(servers[0], engine, scheduler)
        engine.schedule(50.0, EventPriority.GENERIC, lambda: servers[0].set_frequency(0.5))
        engine.run()
        engine.run(until=100.0)
        assert service.fraction_time_capped(0.0, 100.0) == pytest.approx(0.5, abs=0.02)
        with pytest.raises(ValueError):
            service.fraction_time_capped(10.0, 10.0)


class TestRedisBenchmark:
    def make_service(self):
        engine = Engine()
        servers = make_servers(1)
        scheduler = OmegaScheduler(engine, servers, rng=np.random.default_rng(0))
        service = InteractiveService(servers[0], engine, scheduler)
        return engine, servers[0], service

    def test_all_operations_reported(self, rng):
        engine, server, service = self.make_service()
        engine.run(until=30.0)
        benchmark = RedisBenchmark([service], rng, max_requests_per_server=50_000)
        reports = benchmark.run_all(0.0, 30.0)
        assert set(reports) == set(REDIS_OPERATIONS)
        for report in reports.values():
            assert report.requests > 100
            assert 0 < report.p50 <= report.p99 <= report.p999

    def test_capping_inflates_latency(self, rng):
        engine, server, service = self.make_service()
        server.set_frequency(0.5)  # capped the whole time
        engine.run(until=30.0)
        capped = RedisBenchmark([service], np.random.default_rng(5),
                                max_requests_per_server=50_000)
        report_capped = capped.run_operation("GET", 0.0, 30.0)

        engine2, server2, service2 = self.make_service()
        engine2.run(until=30.0)
        normal = RedisBenchmark([service2], np.random.default_rng(5),
                                max_requests_per_server=50_000)
        report_normal = normal.run_operation("GET", 0.0, 30.0)

        assert report_capped.p999 > 1.5 * report_normal.p999
        assert report_capped.p50 > 1.5 * report_normal.p50

    def test_heavier_operation_has_higher_latency(self, rng):
        engine, server, service = self.make_service()
        engine.run(until=30.0)
        benchmark = RedisBenchmark([service], rng, max_requests_per_server=20_000)
        get = benchmark.run_operation("GET", 0.0, 30.0)
        lrange = benchmark.run_operation("LRANGE_600", 0.0, 30.0)
        assert lrange.p50 > 5 * get.p50

    def test_stratified_sampling_bounds_requests(self, rng):
        engine, server, service = self.make_service()
        engine.run(until=10_000.0)
        benchmark = RedisBenchmark([service], rng, max_requests_per_server=10_000)
        report = benchmark.run_operation("GET", 0.0, 10_000.0)
        # Budget is approximate (Poisson counts per window), not exact.
        assert report.requests < 15_000

    def test_unknown_operation_raises(self, rng):
        engine, server, service = self.make_service()
        benchmark = RedisBenchmark([service], rng)
        with pytest.raises(KeyError):
            benchmark.run_operation("FLUSHALL", 0.0, 10.0)

    def test_empty_window_raises(self, rng):
        engine, server, service = self.make_service()
        benchmark = RedisBenchmark([service], rng)
        with pytest.raises(ValueError):
            benchmark.run_operation("GET", 10.0, 10.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target_utilization": 0.0},
            {"target_utilization": 1.0},
            {"service_cv": -1.0},
            {"max_requests_per_server": 10},
        ],
    )
    def test_invalid_args(self, rng, kwargs):
        engine, server, service = self.make_service()
        with pytest.raises(ValueError):
            RedisBenchmark([service], rng, **kwargs)

    def test_no_services_raises(self, rng):
        with pytest.raises(ValueError):
            RedisBenchmark([], rng)
