"""Tests for heterogeneous fleets and the controller's SKU-agnosticism."""

import numpy as np
import pytest

from repro.cluster.datacenter import ServerSpec, build_heterogeneous_row
from repro.cluster.group import ServerGroup
from repro.cluster.power import PowerModelParams
from repro.core.config import AmpereConfig
from repro.core.controller import AmpereController
from repro.core.demand import ConstantDemandEstimator
from repro.core.freeze_model import FreezeEffectModel
from repro.monitor.power_monitor import PowerMonitor
from repro.scheduler.omega import OmegaScheduler
from repro.sim.engine import Engine
from repro.workload.job import Job

OLD_SKU = ServerSpec(cores=8, memory_gb=32.0,
                     power_params=PowerModelParams(rated_watts=300.0, idle_fraction=0.75))
NEW_SKU = ServerSpec(cores=32, memory_gb=128.0,
                     power_params=PowerModelParams(rated_watts=200.0, idle_fraction=0.50))


class TestConstruction:
    def test_mixed_row(self):
        row = build_heterogeneous_row(0, [(4, OLD_SKU), (4, NEW_SKU)], servers_per_rack=4)
        assert len(row.servers) == 8
        assert len(row.racks) == 2
        assert {s.cores for s in row.servers} == {8, 32}
        # Budget reflects per-SKU rated power.
        assert row.power_budget_watts == pytest.approx(4 * 300.0 + 4 * 200.0)

    def test_partial_rack_rejected(self):
        with pytest.raises(ValueError, match="whole racks"):
            build_heterogeneous_row(0, [(3, OLD_SKU)], servers_per_rack=4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_heterogeneous_row(0, [], servers_per_rack=4)

    def test_bad_count_rejected(self):
        with pytest.raises(ValueError):
            build_heterogeneous_row(0, [(0, OLD_SKU)], servers_per_rack=4)

    def test_ids_sequential_from_offset(self):
        row = build_heterogeneous_row(
            0, [(4, OLD_SKU)], servers_per_rack=4, first_server_id=100
        )
        assert [s.server_id for s in row.servers] == [100, 101, 102, 103]


class TestControllerOnMixedFleet:
    def test_freezes_by_watts_not_by_sku(self):
        """The controller ranks by absolute power; an idle power-hungry
        old SKU can out-rank a busy efficient one."""
        engine = Engine()
        row = build_heterogeneous_row(0, [(4, OLD_SKU), (4, NEW_SKU)], servers_per_rack=4)
        scheduler = OmegaScheduler(engine, row.servers, rng=np.random.default_rng(0))
        group = ServerGroup("row", row.servers)
        # Old SKUs idle at 225 W; new SKUs idle at 100 W. Load the new
        # SKUs fully: 100 + 100*1 = 200 W -- still colder than old idle.
        for server in row.servers[4:]:
            job = Job(server.server_id, 1e9, cores=32, memory_gb=1)
            scheduler.place_pinned(job, server.server_id)
        group.power_budget_watts = group.power_watts() * 1.001
        monitor = PowerMonitor(engine, noise_sigma=0.0)
        monitor.register_group(group)
        controller = AmpereController(
            engine, scheduler, monitor, [group],
            config=AmpereConfig(),
            freeze_model=FreezeEffectModel(0.02),
            demand_estimator=ConstantDemandEstimator(0.025),
        )
        monitor.sample_once()
        controller.tick()
        frozen = scheduler.frozen_server_ids()
        assert frozen, "controller should engage"
        old_sku_ids = {s.server_id for s in row.servers[:4]}
        assert frozen <= old_sku_ids

    def test_mixed_fleet_simulation_runs(self):
        engine = Engine()
        row = build_heterogeneous_row(0, [(20, OLD_SKU), (20, NEW_SKU)], servers_per_rack=40)
        scheduler = OmegaScheduler(engine, row.servers, rng=np.random.default_rng(1))
        rng = np.random.default_rng(2)
        from repro.workload.generator import BatchWorkloadGenerator, DiurnalRateProfile

        generator = BatchWorkloadGenerator(
            engine, scheduler, DiurnalRateProfile(0.5, amplitude=0.0), rng=rng
        )
        generator.start(1800.0)
        engine.run(until=1800.0)
        assert scheduler.stats.placed > 100
        # Jobs landed on both SKUs (the 8-core SKU can host <=8-core jobs).
        assert any(s.jobs_started for s in row.servers[:20])
        assert any(s.jobs_started for s in row.servers[20:])
