"""Tests for ServerGroup, Rack, Row, DataCenter and budget scaling."""

import pytest

from repro.cluster.datacenter import DataCenter, build_datacenter, build_row
from repro.cluster.group import ServerGroup
from repro.cluster.rack import Rack
from repro.cluster.row import Row
from repro.workload.job import Job
from tests.conftest import make_server, make_servers


class TestServerGroup:
    def test_empty_group_raises(self):
        with pytest.raises(ValueError, match="at least one server"):
            ServerGroup("empty", [])

    def test_default_budget_is_rated_sum(self):
        servers = make_servers(4)
        group = ServerGroup("g", servers)
        assert group.power_budget_watts == pytest.approx(4 * 250.0)
        assert group.over_provision_ratio == pytest.approx(0.0)

    def test_power_sums_members(self):
        servers = make_servers(3)
        group = ServerGroup("g", servers)
        expected = sum(s.power_watts() for s in servers)
        assert group.power_watts() == pytest.approx(expected)

    def test_unused_power_definition(self):
        group = ServerGroup("g", [make_server(0)])
        assert group.unused_power_watts() == pytest.approx(
            group.power_budget_watts - group.power_watts()
        )

    def test_over_provision_scaling_eq16(self):
        group = ServerGroup("g", make_servers(8))
        group.set_over_provision_ratio(0.25)
        assert group.power_budget_watts == pytest.approx(8 * 250.0 / 1.25)
        assert group.over_provision_ratio == pytest.approx(0.25)

    def test_negative_ratio_raises(self):
        group = ServerGroup("g", [make_server(0)])
        with pytest.raises(ValueError):
            group.set_over_provision_ratio(-0.1)

    def test_freezing_ratio(self):
        """The frozen fraction (the paper's u_t) reads off the group's
        frozen mask."""
        servers = make_servers(4)
        group = ServerGroup("g", servers)
        assert group.flag_masks()["frozen"].mean() == 0.0
        servers[0].freeze()
        servers[1].freeze()
        assert group.flag_masks()["frozen"].mean() == pytest.approx(0.5)
        assert group.flag_masks()["frozen"].tolist() == [True, True, False, False]

    def test_normalized_power(self):
        group = ServerGroup("g", [make_server(0)], power_budget_watts=200.0)
        assert group.normalized_power() == pytest.approx(group.power_watts() / 200.0)

    def test_invalid_budget_raises(self):
        with pytest.raises(ValueError):
            ServerGroup("g", [make_server(0)], power_budget_watts=0.0)


class TestRack:
    def test_rack_assigns_rack_id(self):
        servers = make_servers(4)
        rack = Rack(7, servers)
        assert all(s.rack_id == 7 for s in servers)


class TestRow:
    def test_row_aggregates_racks(self):
        row = build_row(0, racks=2, servers_per_rack=4)
        assert len(row.servers) == 8
        assert len(row.racks) == 2
        assert all(s.row_id == 0 for s in row.servers)

    def test_row_budget_is_rack_sum(self):
        row = build_row(0, racks=2, servers_per_rack=4)
        assert row.power_budget_watts == pytest.approx(
            sum(r.power_budget_watts for r in row.racks)
        )

    def test_empty_row_raises(self):
        with pytest.raises(ValueError, match="at least one rack"):
            Row(0, [])

    def test_breaker_does_not_trip_under_budget(self):
        row = build_row(0, racks=1, servers_per_rack=4)
        assert not row.check_breaker()

    def test_breaker_trips_and_latches(self):
        row = build_row(0, racks=1, servers_per_rack=2)
        # Load the servers fully and shrink the budget to force a trip.
        for server in row.servers:
            server.add_task(Job(server.server_id, 100.0, cores=16, memory_gb=1))
        row.power_budget_watts = row.power_watts() / 1.2
        assert row.check_breaker()
        for server in row.servers:
            server.remove_task(server.tasks[server.server_id])
        assert row.check_breaker()  # latched

    def test_breaker_ratio_validation(self):
        with pytest.raises(ValueError, match="breaker_trip_ratio"):
            build_row(0, racks=1, servers_per_rack=2, breaker_trip_ratio=0.9)

    def test_row_scaling_propagates_to_racks(self):
        row = build_row(0, racks=2, servers_per_rack=4)
        row.set_over_provision_ratio(0.17)
        for rack in row.racks:
            assert rack.over_provision_ratio == pytest.approx(0.17)


class TestDataCenter:
    def test_build_datacenter_shape(self):
        dc = build_datacenter(rows=3, racks_per_row=2, servers_per_rack=4)
        assert len(dc.rows) == 3
        assert len(dc.servers) == 24
        assert len(dc.racks) == 6

    def test_server_ids_globally_unique(self):
        dc = build_datacenter(rows=3, racks_per_row=2, servers_per_rack=4)
        ids = [s.server_id for s in dc.servers]
        assert len(set(ids)) == len(ids)

    def test_empty_datacenter_raises(self):
        with pytest.raises(ValueError):
            DataCenter([])

    @pytest.mark.parametrize("rows", [0, -1])
    def test_invalid_row_count(self, rows):
        with pytest.raises(ValueError):
            build_datacenter(rows=rows)
