"""Tests for the control-event log."""

import numpy as np
import pytest

from repro.cluster.group import ServerGroup
from repro.cluster.capping import CappingEngine
from repro.scheduler.omega import OmegaScheduler
from repro.sim.engine import Engine
from repro.sim.eventlog import ControlEventLog
from repro.sim.events import EventPriority
from repro.workload.job import Job
from tests.conftest import make_servers, set_frozen_ids


@pytest.fixture
def setup():
    engine = Engine()
    servers = make_servers(4)
    scheduler = OmegaScheduler(engine, servers, rng=np.random.default_rng(0))
    log = ControlEventLog(engine)
    log.attach_scheduler(scheduler)
    log.attach_servers(servers)
    return engine, servers, scheduler, log


class TestRecording:
    def test_freeze_unfreeze_logged_with_time(self, setup):
        engine, servers, scheduler, log = setup
        engine.schedule(10.0, EventPriority.GENERIC, set_frozen_ids, scheduler, [2], True)
        engine.schedule(70.0, EventPriority.GENERIC, set_frozen_ids, scheduler, [2], False)
        engine.run()
        kinds = [(e.time, e.kind, e.server_id) for e in log.events]
        assert kinds == [(10.0, "freeze", 2), (70.0, "unfreeze", 2)]

    def test_fail_repair_logged(self, setup):
        engine, servers, scheduler, log = setup
        scheduler.fail_server(1)
        scheduler.repair_server(1)
        assert [e.kind for e in log.events] == ["fail", "repair"]

    def test_dvfs_changes_logged_as_cap_uncap(self, setup):
        engine, servers, scheduler, log = setup
        servers[0].set_frequency(0.8)
        servers[0].set_frequency(1.0)
        caps = [e for e in log.events if e.kind in ("cap", "uncap")]
        assert [e.kind for e in caps] == ["cap", "uncap"]
        assert caps[0].detail == "1.00->0.80"

    def test_capping_engine_activity_is_visible(self, setup):
        engine, servers, scheduler, log = setup
        for server in servers:
            scheduler.place_pinned(
                Job(100 + server.server_id, 1e9, cores=16, memory_gb=1),
                server.server_id,
            )
        group = ServerGroup("g", servers)
        group.power_budget_watts = group.power_watts() * 0.9
        capper = CappingEngine(group, engine)
        capper.tick()
        assert log.counts_by_kind().get("cap", 0) > 0

    def test_unknown_kind_rejected(self, setup):
        engine, servers, scheduler, log = setup
        with pytest.raises(ValueError):
            log.record("explode", 1)


class TestQueries:
    def test_between(self, setup):
        engine, servers, scheduler, log = setup
        for t, sid in ((10.0, 0), (20.0, 1), (30.0, 2)):
            engine.schedule(t, EventPriority.GENERIC, set_frozen_ids, scheduler, [sid], True)
        engine.run()
        window = log.between(15.0, 30.0)
        assert [e.server_id for e in window] == [1]

    def test_for_server(self, setup):
        """A batch logs one event per server, each with its id."""
        engine, servers, scheduler, log = setup
        set_frozen_ids(scheduler, [0, 1], True)
        set_frozen_ids(scheduler, [0], False)
        assert [e.kind for e in log.events if e.server_id == 0] == ["freeze", "unfreeze"]
        assert [e.server_id for e in log.events] == [0, 1, 0]

    def test_counts(self, setup):
        engine, servers, scheduler, log = setup
        set_frozen_ids(scheduler, [0, 1], True)
        set_frozen_ids(scheduler, [0], False)
        assert log.counts_by_kind() == {"freeze": 2, "unfreeze": 1}
