"""Tests for the RAPL-like reactive power-capping engine."""

import pytest

from repro.cluster.capping import CappingEngine
from repro.cluster.datacenter import build_row
from repro.cluster.group import ServerGroup
from repro.sim.engine import Engine
from repro.sim.events import EventPriority
from repro.workload.job import Job
from tests.conftest import make_servers
from tests.oracles import OracleCappingEngine


def loaded_group(n=4, cores_used=16):
    """A group of fully loaded servers."""
    servers = make_servers(n)
    for i, server in enumerate(servers):
        server.add_task(Job(i, 1e6, cores=cores_used, memory_gb=1.0))
    return ServerGroup("g", servers)


class TestCapping:
    def test_caps_when_over_budget(self, engine):
        group = loaded_group()
        group.power_budget_watts = group.power_watts() * 0.9
        capper = CappingEngine(group, engine)
        capper.tick()
        assert group.power_watts() <= group.power_budget_watts
        assert capper.stats.cap_actions > 0
        assert capper.stats.over_budget_ticks == 1
        assert any(s.is_capped for s in group.servers)

    def test_no_action_under_budget(self, engine):
        group = loaded_group()
        capper = CappingEngine(group, engine)
        capper.tick()
        assert capper.stats.cap_actions == 0
        assert not any(s.is_capped for s in group.servers)

    def test_restores_when_power_drops(self, engine):
        group = loaded_group()
        group.power_budget_watts = group.power_watts() * 0.9
        capper = CappingEngine(group, engine)
        capper.tick()
        # Demand disappears: jobs finish.
        for server in group.servers:
            for job in list(server.tasks.values()):
                server.remove_task(job)
        for _ in range(20):
            capper.tick()
        assert not any(s.is_capped for s in group.servers)
        assert capper.stats.uncap_actions > 0

    def test_restore_respects_headroom(self, engine):
        group = loaded_group()
        group.power_budget_watts = group.power_watts() * 0.9
        capper = CappingEngine(group, engine)
        capper.tick()
        # Demand unchanged: restoring would overshoot, so caps must stay.
        capped_before = sum(s.is_capped for s in group.servers)
        capper.tick()
        assert sum(s.is_capped for s in group.servers) >= capped_before - 1
        assert group.power_watts() <= group.power_budget_watts

    def test_disabled_engine_only_observes(self, engine):
        group = loaded_group()
        group.power_budget_watts = group.power_watts() * 0.5
        capper = CappingEngine(group, engine, enabled=False)
        capper.tick()
        assert capper.stats.over_budget_ticks == 1
        assert capper.stats.cap_actions == 0
        assert not any(s.is_capped for s in group.servers)

    def test_capped_seconds_accounting(self, engine):
        group = loaded_group()
        group.power_budget_watts = group.power_watts() * 0.9
        capper = CappingEngine(group, engine, interval=2.0)
        capper.tick()  # caps
        capper.tick()  # accounts capped time for capped servers
        assert capper.stats.capped_server_seconds > 0
        assert capper.stats.per_server_capped_seconds

    def test_periodic_start(self, engine):
        group = loaded_group()
        group.power_budget_watts = group.power_watts() * 0.9
        capper = CappingEngine(group, engine, interval=1.0)
        capper.start(until=5.5)
        engine.run(until=10.0)
        assert capper.stats.ticks == 5
        assert group.power_watts() <= group.power_budget_watts

    @pytest.mark.parametrize(
        "kwargs", [{"interval": 0.0}, {"restore_headroom": 0.0}, {"restore_headroom": 1.5}]
    )
    def test_invalid_args(self, engine, kwargs):
        group = loaded_group()
        with pytest.raises(ValueError):
            CappingEngine(group, engine, **kwargs)

    def test_fraction_time_over_budget(self, engine):
        group = loaded_group()
        capper = CappingEngine(group, engine, enabled=False)
        group.power_budget_watts = group.power_watts() * 0.5
        capper.tick()
        group.power_budget_watts = group.power_watts() * 2.0
        capper.tick()
        assert capper.stats.fraction_time_over_budget() == pytest.approx(0.5)

    def test_saturates_at_frequency_floor(self, engine):
        group = loaded_group(n=1)
        group.power_budget_watts = 1.0  # impossible budget
        capper = CappingEngine(group, engine)
        capper.tick()
        assert group.servers[0].frequency == 0.5  # DVFS floor


class TestStrategies:
    def test_hottest_first_concentrates_damage(self, engine):
        group = loaded_group(n=8)
        group.power_budget_watts = group.power_watts() * 0.97
        capper = CappingEngine(group, engine, strategy="hottest-first")
        capper.tick()
        assert group.power_watts() <= group.power_budget_watts
        capped = [s for s in group.servers if s.is_capped]
        assert 1 <= len(capped) <= 3  # a few servers take the hit

    def test_spread_shares_damage(self, engine):
        group = loaded_group(n=8)
        group.power_budget_watts = group.power_watts() * 0.90
        capper = CappingEngine(group, engine, strategy="spread")
        capper.tick()
        assert group.power_watts() <= group.power_budget_watts
        capped = [s for s in group.servers if s.is_capped]
        assert len(capped) >= 6  # nearly everyone slowed a little
        # No server pushed deeper than one step below the rest.
        frequencies = {s.frequency for s in group.servers}
        assert max(frequencies) - min(frequencies) <= 0.1 + 1e-9

    def test_spread_saturates_safely(self, engine):
        group = loaded_group(n=2)
        group.power_budget_watts = 1.0
        capper = CappingEngine(group, engine, strategy="spread")
        capper.tick()  # must terminate at the floor
        assert all(s.frequency == 0.5 for s in group.servers)

    def test_unknown_strategy_rejected(self, engine):
        with pytest.raises(ValueError, match="strategy"):
            CappingEngine(loaded_group(), engine, strategy="coin-flip")


class TestCappingUnderFailures:
    """Capping x server failures: a machine that dies while capped must
    not leak capped-state or capped-time into the books."""

    def test_fail_while_capped_clears_cap_state(self, engine):
        group = loaded_group()
        group.power_budget_watts = group.power_watts() * 0.9
        capper = CappingEngine(group, engine)
        capper.tick()
        victim = next(s for s in group.servers if s.is_capped)
        victim.fail()
        # A failed machine POSTs at full frequency: no stale DVFS state.
        assert victim.frequency == 1.0
        assert not victim.is_capped

    def test_failed_server_accrues_no_capped_seconds(self, engine):
        group = loaded_group(n=2)
        group.power_budget_watts = group.power_watts() * 0.9
        capper = CappingEngine(group, engine, interval=2.0)
        capper.tick()
        capped = [s for s in group.servers if s.is_capped]
        for server in capped:
            server.fail()
        before = capper.stats.capped_server_seconds
        capper.tick()  # accounting pass with every capped server dark
        assert capper.stats.capped_server_seconds == before

    def test_slam_skips_dark_servers(self, engine):
        group = loaded_group(n=4)
        group.servers[0].fail()
        idle = group.servers[1]
        for job in list(idle.tasks.values()):
            idle.remove_task(job)  # the scheduler's cleanup, inlined
        idle.power_off()
        capper = CappingEngine(group, engine)
        floored = capper.slam()
        assert floored == 2
        assert capper.stats.slam_actions == 1  # one slam, two servers hit
        assert capper.stats.cap_actions == 2
        assert group.servers[0].frequency == 1.0  # untouched by the slam
        assert group.servers[1].frequency == 1.0
        assert all(s.frequency == 0.5 for s in group.servers[2:])

    def test_restore_skips_dark_servers(self, engine):
        group = loaded_group(n=4)
        group.power_budget_watts = group.power_watts() * 0.9
        capper = CappingEngine(group, engine)
        capper.tick()
        victim = next(s for s in group.servers if s.is_capped)
        victim.fail()
        victim.frequency = 0.7  # pretend stale state survived the crash
        group.power_budget_watts = group.power_watts() * 100.0
        for _ in range(10):  # restore moves one DVFS step per tick
            capper.tick()
        assert victim.frequency == 0.7  # dark server left alone
        alive = [s for s in group.servers if not s.failed]
        assert all(s.frequency == 1.0 for s in alive)

    def test_repair_returns_at_full_frequency(self, engine):
        group = loaded_group()
        group.power_budget_watts = group.power_watts() * 0.9
        capper = CappingEngine(group, engine)
        capper.tick()
        victim = next(s for s in group.servers if s.is_capped)
        victim.fail()
        victim.repair()
        assert victim.frequency == 1.0
        assert not victim.failed


class TestMidTickFailureAcrossBackends:
    """Regression for the capped-time seam under the columnar store.

    A capped server that dies *between* two capping control ticks (the
    crash event lands mid-interval, scheduled on the simulation engine)
    must stop accruing capped-server-seconds, come back at full
    frequency, and produce capping books bit-identical to the scalar
    oracle's. The two backends compared are the production engine
    (``vectorized``: orders and books from the store's columns) and
    :class:`~tests.oracles.OracleCappingEngine` (``object``: the
    per-server loops over ``Server`` objects that it replaced).
    """

    @staticmethod
    def run_scenario(capper_class=CappingEngine):
        engine = Engine()
        row = build_row(0, racks=1, servers_per_rack=8)
        for i, server in enumerate(row.servers):
            server.add_task(Job(i, 1e6, cores=14, memory_gb=1.0))
        row.power_budget_watts = row.power_watts() * 0.85
        capper = capper_class(row, engine, interval=1.0)
        capper.start(until=10.0, first_at=1.0)

        trace = {}

        def crash():
            capped = [s for s in row.servers if s.is_capped]
            assert capped, "scenario must produce at least one capped server"
            victim = capped[0]
            victim.fail()
            trace["victim"] = victim
            trace["at_crash"] = capper.stats.capped_server_seconds

        # Mid-interval: caps applied at t=1.0, next accounting at t=2.0.
        engine.schedule(1.5, EventPriority.GENERIC, crash)
        engine.run(until=10.0)
        return row, capper, trace

    @pytest.mark.parametrize(
        "capper_class",
        [OracleCappingEngine, CappingEngine],
        ids=["object", "vectorized"],
    )
    def test_mid_tick_failure_stops_capped_time(self, capper_class):
        row, capper, trace = self.run_scenario(capper_class)
        victim = trace["victim"]
        # The crash cleared DVFS state immediately (POST at full speed).
        assert victim.failed
        assert victim.frequency == 1.0
        assert not victim.is_capped
        # Accounting kept running for the surviving capped servers but
        # never billed the dead one after the crash: with n_capped alive
        # at each tick, the total stays a multiple of the interval times
        # live capped counts -- the victim's own accrual is frozen at or
        # below its pre-crash value plus zero.
        assert capper.stats.capped_server_seconds > trace["at_crash"]
        survivors = [s for s in row.servers if s.is_capped]
        assert victim not in survivors
        # And the dead server draws nothing into the row aggregate.
        assert victim.power_watts() == 0.0

    def test_books_byte_identical_across_backends(self):
        obj_row, obj_capper, obj_trace = self.run_scenario(OracleCappingEngine)
        vec_row, vec_capper, vec_trace = self.run_scenario()
        assert obj_capper.stats == vec_capper.stats
        assert obj_trace["at_crash"] == vec_trace["at_crash"]
        assert obj_row.power_watts() == vec_row.power_watts()
        assert [s.frequency for s in obj_row.servers] == [
            s.frequency for s in vec_row.servers
        ]
        assert [s.failed for s in obj_row.servers] == [
            s.failed for s in vec_row.servers
        ]
