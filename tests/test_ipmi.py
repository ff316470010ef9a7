"""Tests for the simulated IPMI/BMC layer and monitor integration."""

import numpy as np
import pytest

from repro.cluster.group import ServerGroup
from repro.monitor.ipmi import IpmiFleet
from repro.monitor.power_monitor import PowerMonitor
from repro.workload.job import Job
from tests.conftest import make_server, make_servers
from tests.oracles import BmcEndpoint


class TestBmcEndpoint:
    """The scalar single-BMC read the fleet sweep is checked against."""

    def test_reading_tracks_true_power(self, rng):
        server = make_server()
        endpoint = BmcEndpoint(server, rng, noise_sigma=0.0, failure_rate=0.0)
        assert endpoint.read_power() == pytest.approx(server.power_watts(), abs=0.5)
        server.add_task(Job(1, 100.0, cores=8, memory_gb=2))
        assert endpoint.read_power() == pytest.approx(server.power_watts(), abs=0.5)

    def test_quantization(self, rng):
        server = make_server()
        endpoint = BmcEndpoint(server, rng, noise_sigma=0.0, failure_rate=0.0,
                               quantize_watts=5.0)
        reading = endpoint.read_power()
        assert reading % 5.0 == pytest.approx(0.0)

    def test_timeouts_occur_at_configured_rate(self, rng):
        server = make_server()
        endpoint = BmcEndpoint(server, rng, failure_rate=0.2)
        results = [endpoint.read_power() for _ in range(2000)]
        timeout_fraction = sum(r is None for r in results) / len(results)
        assert 0.15 < timeout_fraction < 0.25
        assert endpoint.timeouts == sum(r is None for r in results)

    def test_reading_never_negative(self, rng):
        server = make_server()
        endpoint = BmcEndpoint(server, rng, noise_sigma=2.0, failure_rate=0.0)
        for _ in range(200):
            assert endpoint.read_power() >= 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [{"noise_sigma": -1.0}, {"failure_rate": 1.0}, {"quantize_watts": 0.0}],
    )
    def test_validation(self, rng, kwargs):
        with pytest.raises(ValueError):
            BmcEndpoint(make_server(), rng, **kwargs)


class TestIpmiFleet:
    def test_poll_all_complete_despite_timeouts(self, rng):
        servers = make_servers(20)
        fleet = IpmiFleet(servers, rng, failure_rate=0.3)
        for _ in range(10):
            readings = fleet.poll_all()
            assert len(readings) == len(servers)
            # Every reading is a real wattage, except NaN where the BMC
            # blew its bounded fallback budget.
            assert all(v >= 0 or np.isnan(v) for v in readings)
        assert fleet.total_timeouts > 0
        # Every timeout is covered: by the last known value while within
        # the fallback budget, as an explicit stale NaN beyond it.
        assert fleet.fallbacks_used + fleet.stale_reads == fleet.total_timeouts
        assert fleet.fallbacks_used > 0

    def test_fallback_uses_last_known(self, rng):
        fleet = IpmiFleet([make_server()], np.random.default_rng(0),
                          noise_sigma=0.0, failure_rate=0.0)
        first = fleet.poll_all()[0]
        # Force timeouts from now on.
        fleet.failure_rate = 0.9999999
        assert fleet.poll_all()[0] == first

    def test_empty_fleet_rejected(self, rng):
        with pytest.raises(ValueError):
            IpmiFleet([], rng)

    def test_servers_in_different_stores_rejected(self, rng):
        """No per-endpoint fallback path: the sweep reads one store."""
        with pytest.raises(ValueError, match="share one ClusterState"):
            IpmiFleet([make_server(i) for i in range(3)], rng)

    @pytest.mark.parametrize(
        "kwargs",
        [{"noise_sigma": -1.0}, {"failure_rate": 1.0}, {"quantize_watts": 0.0}],
    )
    def test_validation(self, rng, kwargs):
        with pytest.raises(ValueError):
            IpmiFleet(make_servers(2), rng, **kwargs)


class TestMonitorIntegration:
    def test_monitor_with_ipmi_backend(self, engine, rng):
        group = ServerGroup("g", make_servers(10))
        monitor = PowerMonitor(
            engine, noise_sigma=0.01, rng=rng, ipmi_failure_rate=0.05
        )
        monitor.register_group(group)
        for _ in range(50):
            monitor.sample_once()
        times, values = monitor.power_series("g")
        assert len(times) == 50
        true_power = group.power_watts()
        # Aggregates stay close to truth despite timeouts and quantization.
        assert np.abs(values / true_power - 1.0).max() < 0.05

    def test_invalid_failure_rate(self, engine):
        with pytest.raises(ValueError):
            PowerMonitor(engine, ipmi_failure_rate=1.0)
