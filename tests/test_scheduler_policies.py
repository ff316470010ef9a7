"""Tests for placement policies."""

import numpy as np
import pytest

from repro.scheduler.policies import (
    BestFitPolicy,
    LeastLoadedPolicy,
    RandomAvailablePolicy,
)
from repro.scheduler.resources import ResourceTracker
from repro.workload.job import Job
from tests.conftest import make_servers


@pytest.fixture
def tracker():
    return ResourceTracker(make_servers(8))


def occupy(tracker, index, cores, memory_gb):
    """Run a job of the given demand on the tracker's ``index``-th server."""
    server = tracker.server_at(index)
    server.add_task(Job(len(server.tasks), 100.0, cores=cores, memory_gb=memory_gb))


class TestRandomAvailable:
    def test_selection_within_candidates(self, tracker, rng):
        policy = RandomAvailablePolicy()
        candidates = np.array([2, 5, 7])
        for _ in range(50):
            assert policy.select(tracker, candidates, rng) in {2, 5, 7}

    def test_roughly_uniform(self, tracker, rng):
        policy = RandomAvailablePolicy()
        candidates = np.arange(8)
        counts = np.zeros(8)
        for _ in range(4000):
            counts[policy.select(tracker, candidates, rng)] += 1
        # Each server should get ~500; allow generous tolerance.
        assert counts.min() > 350
        assert counts.max() < 700


class TestLeastLoaded:
    def test_picks_most_free(self, tracker, rng):
        occupy(tracker, 0, 8.0, 8.0)
        occupy(tracker, 1, 4.0, 4.0)
        candidates = np.array([0, 1, 2])
        assert LeastLoadedPolicy().select(tracker, candidates, rng) == 2

    def test_ties_broken_among_best(self, tracker, rng):
        occupy(tracker, 0, 8.0, 8.0)
        candidates = np.array([0, 1, 2])
        chosen = {LeastLoadedPolicy().select(tracker, candidates, rng) for _ in range(60)}
        assert chosen <= {1, 2}
        assert len(chosen) == 2


class TestBestFit:
    def test_picks_least_free_that_fits(self, tracker, rng):
        occupy(tracker, 0, 8.0, 8.0)
        occupy(tracker, 1, 12.0, 4.0)
        candidates = np.array([0, 1, 2])
        assert BestFitPolicy().select(tracker, candidates, rng) == 1
