"""Unit tests for the struct-of-arrays cluster state store."""

import numpy as np
import pytest

from repro.cluster.datacenter import ServerSpec, build_heterogeneous_row, build_row
from repro.cluster.group import ServerGroup
from repro.cluster.power import PowerModelParams, server_power_watts
from repro.cluster.server import Server
from repro.cluster.state import ClusterState, shared_state_of


class TestRegistrationAndGrowth:
    def test_columns_grow_by_doubling(self):
        state = ClusterState(capacity=2)
        params = PowerModelParams()
        for i in range(10):
            slot = state.add_server(i, 16, 64.0, params, 0.05)
            assert slot == i
        assert state.n == 10
        assert state.capacity >= 10
        # Earlier slots survive growth untouched.
        assert state.server_ids[0] == 0
        assert float(state.frequency[9]) == 1.0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ClusterState(capacity=0)

    def test_memory_footprint_is_per_slot_constant(self):
        small = ClusterState(capacity=1_000)
        large = ClusterState(capacity=10_000)
        assert large.nbytes == pytest.approx(10 * small.nbytes, rel=1e-6)
        params = PowerModelParams()
        for i in range(100):
            small.add_server(i, 16, 64.0, params, 0.05)
        assert small.bytes_per_server() == small.nbytes / 100


class TestVectorizedMath:
    def test_powers_match_scalar_model_default_exponents(self):
        state = ClusterState(capacity=8)
        params = PowerModelParams()
        servers = [Server(i, power_params=params, state=state) for i in range(8)]
        for i, server in enumerate(servers):
            server.used_cores = float(i)
            server.frequency = 1.0 - 0.05 * i
        state.invalidate_power(np.arange(8))
        expected = np.array(
            [
                server_power_watts(params, s.utilization, s.frequency)
                for s in servers
            ]
        )
        assert state.server_powers(np.arange(8)).tobytes() == expected.tobytes()

    def test_powers_match_scalar_model_exotic_exponents(self):
        """Non-{0,1,2} exponents must take the exact scalar fallback:
        NumPy's SIMD pow is not bit-identical to CPython's ``**`` there."""
        params = PowerModelParams(
            utilization_exponent=1.3, frequency_power_exponent=2.1
        )
        state = ClusterState(capacity=8)
        servers = [Server(i, power_params=params, state=state) for i in range(8)]
        for i, server in enumerate(servers):
            server.used_cores = float(2 * i)
            server.frequency = 1.0 - 0.04 * i
        expected = np.array(
            [
                server_power_watts(params, s.utilization, s.frequency)
                for s in servers
            ]
        )
        assert state.server_powers(np.arange(8)).tobytes() == expected.tobytes()

    def test_mixed_sku_exponents(self):
        """Heterogeneous exponent columns split into per-exponent groups."""
        specs = [
            (4, ServerSpec(power_params=PowerModelParams())),
            (
                4,
                ServerSpec(
                    power_params=PowerModelParams(
                        rated_watts=350.0,
                        utilization_exponent=1.3,
                        frequency_power_exponent=2.1,
                    )
                ),
            ),
        ]
        row = build_heterogeneous_row(0, specs, servers_per_rack=4)
        expected = np.array(
            [
                server_power_watts(s.power_params, s.utilization, s.frequency)
                for s in row.servers
            ]
        )
        assert row.server_powers().tobytes() == expected.tobytes()
        assert row.power_watts() == sum(
            server_power_watts(s.power_params, s.utilization, s.frequency)
            for s in row.servers
        )

    def test_total_power_matches_sequential_sum(self):
        row = build_row(0, racks=3, servers_per_rack=10)
        rng = np.random.default_rng(3)
        for server in row.servers:
            server.used_cores = float(rng.integers(0, server.cores))
        assert row.power_watts() == sum(s.power_watts() for s in row.servers)

    def test_empty_selection_total_is_zero(self):
        state = ClusterState(capacity=4)
        assert state.total_power(np.array([], dtype=np.intp)) == 0.0

    def test_dark_servers_draw_zero(self):
        row = build_row(0, racks=1, servers_per_rack=8)
        row.servers[2].fail()
        row.servers[5].power_off()
        powers = row.server_powers()
        assert powers[2] == 0.0
        assert powers[5] == 0.0
        assert np.all(powers[[0, 1, 3, 4, 6, 7]] > 0.0)


class TestSharedCache:
    def test_mask_fail_invalidates_object_path_cache(self):
        """The capped-time seam: after a *batched* fail, per-server
        readers must not serve the old cached wattage."""
        row = build_row(0, racks=1, servers_per_rack=4)
        victim = row.servers[1]
        victim.set_frequency(0.6)
        before = victim.power_watts()  # primes the shared cache
        assert before > 0.0
        row.state.fail_servers(np.array([victim._index]))
        assert victim.power_watts() == 0.0
        assert victim.frequency == 1.0
        assert not victim.is_capped
        row.state.repair_servers(np.array([victim._index]))
        assert victim.power_watts() > 0.0

    def test_mask_freeze_visible_through_views(self):
        row = build_row(0, racks=1, servers_per_rack=4)
        indices = row.state_indices[:2]
        row.state.set_frozen(indices, True)
        assert [s.frozen for s in row.servers] == [True, True, False, False]
        assert row.freezing_ratio() == 0.5


class TestSharedStateDetection:
    def test_group_of_mixed_states_is_rejected(self):
        """No per-object fallback: a group must be slots of one store."""
        standalone = [Server(i) for i in range(3)]
        with pytest.raises(ValueError, match="share one ClusterState"):
            ServerGroup("mixed", standalone)

    def test_shared_state_of_rejects_mixed(self):
        row = build_row(0, racks=1, servers_per_rack=4)
        state, indices = shared_state_of(row.servers)
        assert state is row.state
        assert list(indices) == [0, 1, 2, 3]
        with pytest.raises(ValueError, match="share one ClusterState"):
            shared_state_of(row.servers + [Server(99)])

    def test_standalone_server_gets_private_slot(self):
        server = Server(7)
        assert server._state.n == 1
        assert server.power_watts() > 0.0
