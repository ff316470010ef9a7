"""Shared fixtures for the test suite."""

from typing import Callable, Dict, List, Set

import numpy as np
import pytest

from repro.cluster.power import PowerModelParams
from repro.cluster.server import Server
from repro.cluster.state import ClusterState
from repro.sim.engine import Engine


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def make_server(server_id: int = 0, cores: int = 16, **kwargs) -> Server:
    return Server(server_id, cores=cores, **kwargs)


def make_servers(n: int, cores: int = 16, **kwargs) -> List[Server]:
    """``n`` servers with ids ``0..n-1``, registered in one shared store.

    Groups and schedulers need servers that share one ClusterState
    (their hot loops read its columns), as every production builder
    arranges; ad-hoc fixtures build their servers here.
    """
    state = ClusterState(capacity=n)
    return [Server(i, cores=cores, state=state, **kwargs) for i in range(n)]


def assert_tracker_invariant(tracker) -> None:
    """The placement invariant over the one store.

    Every server's ``used_cores``/``used_memory_gb`` is the sum of its
    tasks' demands, and ``candidates()`` returns exactly the servers that
    are neither frozen, failed nor powered off.
    """
    for server in tracker.servers:
        tasks = server.tasks.values()
        assert server.used_cores == pytest.approx(sum(t.cores for t in tasks), abs=1e-9)
        assert server.used_memory_gb == pytest.approx(
            sum(t.memory_gb for t in tasks), abs=1e-9
        )
    eligible = [
        i
        for i, s in enumerate(tracker.servers)
        if not (s.frozen or s.failed or s.powered_off)
    ]
    assert tracker.candidates(0.0, 0.0).tolist() == eligible


@pytest.fixture
def server() -> Server:
    return make_server()


@pytest.fixture
def power_params() -> PowerModelParams:
    return PowerModelParams()


def plan_ids(
    plan: Callable, powers: Dict[int, float], n_freeze: int, frozen: Set[int], *args
) -> Set[int]:
    """Run an array freeze planner (``plan_freeze_set`` or a policy's
    ``plan``) on ``{server_id: watts}`` readings and a frozen id set,
    members in dict order; return the planned frozen set as ids."""
    ids = np.fromiter(powers, dtype=np.int64, count=len(powers))
    readings = np.fromiter(powers.values(), dtype=np.float64, count=len(powers))
    mask = plan(readings, ids, n_freeze, np.isin(ids, list(frozen)), *args)
    return set(ids[mask].tolist())


def set_frozen_ids(scheduler, ids, frozen: bool) -> list:
    """``scheduler.set_frozen`` over the slots of the given server ids
    (actors pass a group's slots; tests often name servers by id)."""
    tracker = scheduler.tracker
    slots = [tracker.first_slot + tracker.index_of[sid] for sid in ids]
    return scheduler.set_frozen(slots, frozen)
