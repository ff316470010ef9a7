"""Tests for the resource tracker, which reads the servers' one ClusterState."""

import pickle

import numpy as np
import pytest

from repro.cluster.server import Server
from repro.cluster.state import ClusterState
from repro.scheduler.resources import ResourceTracker
from repro.workload.job import Job
from tests.conftest import assert_tracker_invariant, make_server, make_servers


def make_tracker(n=4, cores=16):
    return ResourceTracker(make_servers(n, cores=cores))


def occupy(tracker, index, cores, memory_gb, job_id=1):
    job = Job(job_id, 100.0, cores=cores, memory_gb=memory_gb)
    tracker.server_at(index).add_task(job)
    return job


class TestCandidates:
    def test_all_empty_servers_are_candidates(self):
        tracker = make_tracker(4)
        assert len(tracker.candidates(2.0, 4.0)) == 4

    def test_oversized_demand_has_no_candidates(self):
        tracker = make_tracker(4)
        assert len(tracker.candidates(17.0, 4.0)) == 0

    def test_placement_shrinks_candidates(self):
        tracker = make_tracker(2)
        occupy(tracker, 0, 15.0, 4.0)
        candidates = tracker.candidates(2.0, 4.0)
        assert candidates.tolist() == [1]

    def test_release_restores_candidates(self):
        tracker = make_tracker(2)
        job = occupy(tracker, 0, 15.0, 4.0)
        tracker.server_at(0).remove_task(job)
        assert len(tracker.candidates(2.0, 4.0)) == 2

    def test_frozen_servers_excluded(self):
        tracker = make_tracker(3)
        tracker.servers[1].freeze()
        assert tracker.candidates(1.0, 1.0).tolist() == [0, 2]

    def test_unfreeze_restores(self):
        tracker = make_tracker(2)
        tracker.servers[0].freeze()
        tracker.servers[0].unfreeze()
        assert len(tracker.candidates(1.0, 1.0)) == 2

    def test_row_filter(self):
        servers = make_servers(4)
        for i, s in enumerate(servers):
            s.row_id = i % 2
        tracker = ResourceTracker(servers)
        assert tracker.candidates(1.0, 1.0, frozenset({0})).tolist() == [0, 2]
        assert tracker.candidates(1.0, 1.0, frozenset({1})).tolist() == [1, 3]

    def test_exact_fit_is_candidate(self):
        tracker = make_tracker(1)
        occupy(tracker, 0, 12.0, 4.0)
        assert len(tracker.candidates(4.0, 4.0)) == 1
        assert len(tracker.candidates(4.01, 4.0)) == 0


class TestMirror:
    def test_duplicate_ids_raise(self):
        with pytest.raises(ValueError, match="duplicate"):
            ResourceTracker([make_server(1), make_server(1)])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ResourceTracker([])

    def test_accessors(self):
        tracker = make_tracker(2)
        assert tracker.server_at(1).server_id == 1
        assert len(tracker) == 2
        np.testing.assert_array_equal(
            tracker.free_cores_array(np.array([0, 1])), [16.0, 16.0]
        )


class TestOneStore:
    def test_invariant_holds_after_server_mutations(self):
        tracker = make_tracker(3)
        occupy(tracker, 0, 4.0, 8.0)
        tracker.server_at(0).freeze()
        tracker.server_at(1).fail()
        tracker.server_at(2).power_off()
        assert_tracker_invariant(tracker)
        assert tracker.candidates(1.0, 1.0).tolist() == []

    def test_server_mutation_is_seen_at_once(self):
        # No copy to fall out of step: the next query reads the new usage.
        tracker = make_tracker(2)
        occupy(tracker, 0, 14.0, 8.0)
        assert tracker.candidates(4.0, 4.0).tolist() == [1]
        np.testing.assert_array_equal(
            tracker.free_cores_array(np.array([0, 1])), [2.0, 16.0]
        )

    def test_reads_store_after_it_grows(self):
        # Registering more servers reallocates the store's columns; the
        # tracker must read the new arrays, not ones captured at build.
        state = ClusterState(capacity=2)
        servers = [Server(i, state=state) for i in range(2)]
        tracker = ResourceTracker(servers)
        assert tracker.candidates(1.0, 1.0).tolist() == [0, 1]
        extra = [Server(10 + i, state=state) for i in range(4)]
        assert state.capacity > 2
        occupy(tracker, 1, 16.0, 8.0)
        extra[0].freeze()
        assert tracker.candidates(1.0, 1.0).tolist() == [0]
        assert_tracker_invariant(tracker)

    def test_non_contiguous_slots_rejected(self):
        servers = make_servers(4)
        with pytest.raises(ValueError, match="contiguous"):
            ResourceTracker([servers[3], servers[1]])
        with pytest.raises(ValueError, match="contiguous"):
            ResourceTracker([servers[0], servers[2]])

    def test_mixed_capacities_compare_per_server(self):
        state = ClusterState(capacity=3)
        servers = [
            Server(0, cores=8, memory_gb=16.0, state=state),
            Server(1, cores=32, memory_gb=128.0, state=state),
            Server(2, cores=16, memory_gb=8.0, state=state),
        ]
        tracker = ResourceTracker(servers)
        assert tracker.candidates(12.0, 10.0).tolist() == [1]
        assert tracker.candidates(8.0, 8.0).tolist() == [0, 1, 2]
        occupy(tracker, 1, 24.0, 8.0)
        assert tracker.candidates(8.0, 8.0).tolist() == [0, 1, 2]
        assert tracker.candidates(8.01, 8.0).tolist() == [2]
        np.testing.assert_array_equal(
            tracker.free_cores_array(np.array([0, 1, 2])), [8.0, 8.0, 16.0]
        )

    def test_pickled_tracker_reads_restored_store(self):
        tracker = make_tracker(2)
        tracker.candidates(1.0, 1.0)  # build the column views
        restored = pickle.loads(pickle.dumps(tracker))
        assert restored._views is None
        occupy(restored, 0, 16.0, 8.0)
        assert restored.candidates(1.0, 1.0).tolist() == [1]
        assert tracker.candidates(1.0, 1.0).tolist() == [0, 1]
        assert_tracker_invariant(restored)

    def test_servers_in_different_stores_rejected(self):
        with pytest.raises(ValueError, match="share one ClusterState"):
            ResourceTracker([make_server(0), make_server(1)])
