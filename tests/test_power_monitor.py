"""Tests for the per-minute power monitor."""

import pytest

from repro.cluster.group import ServerGroup
from repro.monitor.power_monitor import PowerMonitor
from repro.workload.job import Job
from tests.conftest import make_servers


def make_group(name="g", n=4):
    return ServerGroup(name, make_servers(n))


class TestSampling:
    def test_sample_records_group_power(self, engine):
        monitor = PowerMonitor(engine, noise_sigma=0.0)
        group = make_group()
        monitor.register_group(group)
        monitor.sample_once()
        assert monitor.latest_power("g") == pytest.approx(group.power_watts())
        assert monitor.latest_normalized_power("g") == pytest.approx(
            group.normalized_power()
        )

    def test_noise_perturbs_readings(self, engine, rng):
        monitor = PowerMonitor(engine, noise_sigma=0.05, rng=rng)
        group = make_group()
        monitor.register_group(group)
        monitor.sample_once()
        true_power = group.power_watts()
        reading = monitor.latest_power("g")
        assert reading != true_power
        assert abs(reading / true_power - 1.0) < 0.2

    def test_periodic_sampling(self, engine):
        monitor = PowerMonitor(engine, interval=60.0, noise_sigma=0.0)
        monitor.register_group(make_group())
        monitor.start(until=300.5)
        engine.run(until=400.0)
        times, _ = monitor.power_series("g")
        assert times.tolist() == [60.0, 120.0, 180.0, 240.0, 300.0]
        assert monitor.samples_taken == 5

    def test_first_at_offsets_sampling(self, engine):
        monitor = PowerMonitor(engine, interval=60.0, noise_sigma=0.0)
        monitor.register_group(make_group())
        monitor.start(until=200.0, first_at=30.0)
        engine.run(until=200.0)
        times, _ = monitor.power_series("g")
        assert times.tolist() == [30.0, 90.0, 150.0]

    def test_per_server_series_optional(self, engine):
        monitor = PowerMonitor(engine, noise_sigma=0.0, store_per_server=True)
        monitor.register_group(make_group(n=2))
        monitor.sample_once()
        assert "power/server/0" in monitor.db
        assert "power/server/1" in monitor.db


class TestViolations:
    def test_violation_counted_when_over_budget(self, engine):
        monitor = PowerMonitor(engine, noise_sigma=0.0)
        group = make_group()
        group.power_budget_watts = group.power_watts() * 0.5
        monitor.register_group(group)
        monitor.sample_once()
        monitor.sample_once()
        assert monitor.violation_count("g") == 2

    def test_no_violation_under_budget(self, engine):
        monitor = PowerMonitor(engine, noise_sigma=0.0)
        group = make_group()
        monitor.register_group(group)
        monitor.sample_once()
        assert monitor.violation_count("g") == 0

    def test_unknown_group_raises(self, engine):
        monitor = PowerMonitor(engine)
        with pytest.raises(KeyError):
            monitor.violation_count("missing")


class TestBreakerIntegration:
    def test_row_breaker_checked_on_sample(self, engine):
        from repro.cluster.datacenter import build_row

        monitor = PowerMonitor(engine, noise_sigma=0.0)
        row = build_row(0, racks=1, servers_per_rack=4)
        for server in row.servers:
            server.add_task(Job(server.server_id, 100.0, cores=16, memory_gb=1))
        row.power_budget_watts = row.power_watts() / 1.2  # beyond trip ratio
        monitor.register_group(row)
        monitor.sample_once()
        assert row.breaker_tripped
        assert "row-0" in monitor.breaker_trips

    def test_no_trip_under_budget(self, engine):
        from repro.cluster.datacenter import build_row

        monitor = PowerMonitor(engine, noise_sigma=0.0)
        row = build_row(0, racks=1, servers_per_rack=4)
        monitor.register_group(row)
        monitor.sample_once()
        assert not monitor.breaker_trips

    def test_plain_groups_have_no_breaker(self, engine):
        monitor = PowerMonitor(engine, noise_sigma=0.0)
        group = make_group()
        group.power_budget_watts = 1.0
        monitor.register_group(group)
        monitor.sample_once()  # violation, but no breaker concept
        assert monitor.violation_count("g") == 1
        assert not monitor.breaker_trips


class TestRegistration:
    def test_duplicate_registration_raises(self, engine):
        monitor = PowerMonitor(engine)
        group = make_group()
        monitor.register_group(group)
        with pytest.raises(ValueError, match="already registered"):
            monitor.register_group(group)

    def test_register_groups_bulk(self, engine):
        monitor = PowerMonitor(engine)
        monitor.register_groups([make_group("a"), make_group("b")])
        assert len(monitor.groups()) == 2

    @pytest.mark.parametrize("kwargs", [{"interval": 0.0}, {"noise_sigma": -0.1}])
    def test_invalid_args(self, engine, kwargs):
        with pytest.raises(ValueError):
            PowerMonitor(engine, **kwargs)


class TestSnapshot:
    def test_snapshot_returns_all_servers(self, engine):
        monitor = PowerMonitor(engine, noise_sigma=0.0)
        group = make_group(n=3)
        monitor.register_group(group)
        snapshot = monitor.snapshot_server_powers("g")
        assert set(snapshot) == {0, 1, 2}
        for server in group.servers:
            assert snapshot[server.server_id] == pytest.approx(server.power_watts())

    def test_snapshot_reflects_load_differences(self, engine):
        monitor = PowerMonitor(engine, noise_sigma=0.0)
        group = make_group(n=2)
        group.servers[0].add_task(Job(1, 100.0, cores=8, memory_gb=1))
        monitor.register_group(group)
        snapshot = monitor.snapshot_server_powers("g")
        assert snapshot[0] > snapshot[1]

    def test_snapshot_unknown_group_raises(self, engine):
        monitor = PowerMonitor(engine)
        with pytest.raises(KeyError):
            monitor.snapshot_server_powers("missing")
