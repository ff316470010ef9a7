"""Shared fixtures for the test suite."""

from typing import List

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
