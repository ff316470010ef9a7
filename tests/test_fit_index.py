"""The placement fit index against the scan it replaces.

``ResourceTracker.candidates`` (the vectorized scan) is the oracle: after
every step of a random sequence of placements, completions, preemptions,
freezes, failures, power changes and pickle round trips, the fit index
must report ``len(candidates())`` as its count and ``candidates()[k]``
as its k-th server for every k, for every allowed-rows restriction, and
the default policy's draw must consume the rng exactly as indexing the
scan would.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.server import Server
from repro.cluster.state import ClusterState
from repro.scheduler.omega import OmegaScheduler
from repro.scheduler.resources import BLOCK, SUPERBLOCK, ResourceTracker
from repro.sim.engine import Engine
from repro.workload.job import Job
from tests.conftest import make_servers

#: nested demand classes (cores, memory_gb), then one that breaks nesting
#: with (4, 8), then one that registers between two known classes
DEMANDS = ((1.0, 2.0), (2.0, 4.0), (4.0, 8.0), (8.0, 4.0), (3.0, 6.0))
NON_NESTED = (8.0, 4.0)
CORES = (8, 16, 32)
MEMORY = (16.0, 32.0, 64.0)


def build_rows(sizes, capacities):
    """Rows of the given sizes in one store, capacities cycling."""
    state = ClusterState(capacity=4)
    servers = []
    for row, size in enumerate(sizes):
        for _ in range(size):
            cores, memory = capacities[len(servers) % len(capacities)]
            server = Server(len(servers), cores=cores, memory_gb=memory, state=state)
            server.row_id = row
            servers.append(server)
    return servers


def row_choices(n_rows):
    choices = [None] + [frozenset({r}) for r in range(n_rows)]
    if n_rows > 1:
        choices.append(frozenset({0, n_rows - 1}))
        choices.append(frozenset({n_rows + 5}))  # a row the pool lacks
    return choices


def fit_count(tracker, cores, memory, allowed=None):
    """``len(candidates(...))`` by the fit index; None when it scans."""
    fit = tracker._fit_index()
    j = fit.class_for(cores, memory)
    if j is None:
        return None
    return fit.count(j, None if allowed is None else fit.supers_of(allowed))


def kth_fit(tracker, cores, memory, k, allowed=None):
    """``candidates(...)[k]`` by the fit index."""
    fit = tracker._fit_index()
    supers = None if allowed is None else fit.supers_of(allowed)
    return fit.kth(fit.class_for(cores, memory), k, supers)


def assert_index_matches_scan(tracker, n_rows, seed):
    for allowed in row_choices(n_rows):
        for cores, memory in DEMANDS:
            candidates = tracker.candidates(cores, memory, allowed).tolist()
            count = fit_count(tracker, cores, memory, allowed)
            if (cores, memory) == NON_NESTED:
                assert count is None  # (4, 8) registered first: scan it
            else:
                assert count == len(candidates)
                assert [
                    kth_fit(tracker, cores, memory, k, allowed) for k in range(count)
                ] == candidates
            # The default policy's draw: same rng draw, same server, and
            # no draw at all when nothing fits.
            drawn_rng = np.random.default_rng(seed)
            scan_rng = np.random.default_rng(seed)
            drawn = tracker.draw_fitting(cores, memory, allowed, drawn_rng)
            if candidates:
                assert drawn == candidates[scan_rng.integers(len(candidates))]
            else:
                assert drawn is None
            assert drawn_rng.bit_generator.state == scan_rng.bit_generator.state


ops = st.lists(
    st.tuples(
        st.sampled_from(
            ("submit", "submit", "submit", "advance", "freeze", "unfreeze",
             "fail", "repair", "power_off", "power_on", "pinned", "pickle")
        ),
        st.integers(0, 10_000),
        st.integers(0, len(DEMANDS) - 1),
        st.integers(0, 3),
    ),
    min_size=1,
    max_size=24,
)


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(st.sampled_from((40, 104, 7, 65, 1)), min_size=1, max_size=3),
    capacities=st.lists(
        st.tuples(st.sampled_from(CORES), st.sampled_from(MEMORY)), min_size=1, max_size=3
    ),
    steps=ops,
)
def test_index_matches_scan_under_random_operations(sizes, capacities, steps):
    engine = Engine()
    servers = build_rows(sizes, capacities)
    scheduler = OmegaScheduler(
        engine, servers, rng=np.random.default_rng(7), enable_preemption=True
    )
    n_rows = len(sizes)
    rows = row_choices(n_rows)
    next_job = 0
    assert_index_matches_scan(scheduler.tracker, n_rows, seed=0)
    for step, (op, pick, demand, extra) in enumerate(steps):
        server = scheduler.tracker.servers[pick % len(servers)]
        sid = server.server_id
        if op == "submit":
            cores, memory = DEMANDS[demand]
            for _ in range(1 + pick % 40):
                scheduler.submit(
                    Job(next_job, 60.0 * (1 + extra), cores=cores, memory_gb=memory,
                        arrival_time=engine.now, allowed_rows=rows[pick % len(rows)],
                        priority=extra % 2)
                )
                next_job += 1
        elif op == "advance":
            engine.run(until=engine.now + 30.0 * (1 + extra))
        elif op == "freeze":
            scheduler.freeze(sid)
        elif op == "unfreeze":
            scheduler.unfreeze(sid)
        elif op == "fail":
            scheduler.fail_server(sid)
        elif op == "repair":
            scheduler.repair_server(sid)
        elif op == "power_off":
            if not server.tasks:
                scheduler.power_off_server(sid)
        elif op == "power_on":
            scheduler.power_on_server(sid)
        elif op == "pinned":
            cores, memory = DEMANDS[demand]
            if server.can_fit(cores, memory):
                scheduler.place_pinned(
                    Job(next_job, float("inf"), cores=cores, memory_gb=memory), sid
                )
                next_job += 1
        elif op == "pickle":
            engine, scheduler = pickle.loads(pickle.dumps((engine, scheduler)))
            servers = scheduler.tracker.servers
            assert scheduler.tracker.fit_index is None  # derived, rebuilt on query
        assert_index_matches_scan(scheduler.tracker, n_rows, seed=step)


class TestLayout:
    def test_blocks_never_straddle_rows(self):
        servers = build_rows((40, 104, 7), ((16, 64.0),))
        tracker = ResourceTracker(servers)
        fit_count(tracker, 1.0, 2.0)
        fit = tracker.fit_index
        row_ids = [s.row_id for s in servers]
        for start, end in zip(fit.block_starts, fit.block_ends):
            assert 0 < end - start <= BLOCK
            assert len(set(row_ids[start:end])) == 1
        for first, last in fit.super_blocks:
            assert 0 < last - first <= SUPERBLOCK
            assert len({row_ids[fit.block_starts[b]] for b in range(first, last)}) == 1
        assert fit.block_ends[-1] == len(servers)

    def test_large_row_walks_superblocks(self):
        servers = make_servers(BLOCK * SUPERBLOCK * 2 + 5)
        tracker = ResourceTracker(servers)
        for i in range(0, len(servers), 3):
            servers[i].freeze()
        candidates = tracker.candidates(1.0, 2.0).tolist()
        count = fit_count(tracker, 1.0, 2.0)
        assert len(tracker.fit_index.super_blocks) == 3
        assert count == len(candidates)
        for k in (0, 1, count // 2, count - 2, count - 1):
            assert kth_fit(tracker, 1.0, 2.0, k) == candidates[k]


class TestUpkeep:
    def test_direct_server_mutations_keep_index_exact(self):
        # A tracker driven without a scheduler stays consistent.
        servers = make_servers(70)
        tracker = ResourceTracker(servers)
        assert fit_count(tracker, 4.0, 8.0) == 70
        job = Job(1, 10.0, cores=14.0, memory_gb=8.0)
        servers[3].add_task(job)
        servers[4].freeze()
        servers[5].fail()
        servers[6].power_off()
        servers[7].used_cores = 15.0
        assert fit_count(tracker, 4.0, 8.0) == 65
        assert fit_count(tracker, 2.0, 4.0) == 66
        assert fit_count(tracker, 1.0, 2.0) == 67
        servers[3].remove_task(job)
        servers[4].unfreeze()
        servers[5].repair()
        servers[6].power_on()
        servers[7].used_cores = 0.0
        assert fit_count(tracker, 4.0, 8.0) == 70

    def test_group_freeze_rebuilds_once(self):
        servers = make_servers(200)
        tracker = ResourceTracker(servers)
        fit_count(tracker, 1.0, 2.0)
        for server in servers[:150]:
            server.freeze()
        assert len(tracker._fit.pending) == 150
        assert fit_count(tracker, 1.0, 2.0) == 50
        assert not tracker._fit.pending

    def test_mask_freeze_queues_each_slot_in_its_own_index(self):
        """``ClusterState.set_frozen`` keeps the indexes exact, also when
        its slots span two trackers: each index gets only its own."""
        servers = build_rows((40, 104), ((16, 64.0),))
        first, second = ResourceTracker(servers[:40]), ResourceTracker(servers[40:])
        assert fit_count(first, 1.0, 2.0) == 40
        assert fit_count(second, 1.0, 2.0) == 104
        state = servers[0]._state
        state.set_frozen(np.arange(30, 60), True)
        assert first._fit.pending == set(range(30, 40))
        assert second._fit.pending == set(range(40, 60))
        assert fit_count(first, 1.0, 2.0) == 30
        assert fit_count(second, 1.0, 2.0) == 84
        state.set_frozen(np.arange(35, 45), False)
        assert_index_matches_scan(first, 2, seed=3)
        assert_index_matches_scan(second, 2, seed=4)
        assert fit_count(first, 1.0, 2.0) == 35
        assert fit_count(second, 1.0, 2.0) == 89

    def test_second_tracker_over_same_slots_makes_first_stale(self):
        servers = make_servers(10)
        first = ResourceTracker(servers)
        second = ResourceTracker(servers)
        assert fit_count(first, 1.0, 2.0) == 10
        assert fit_count(second, 1.0, 2.0) == 10
        assert first.fit_index is None  # taken over: rebuilt on next query
        servers[0].freeze()
        assert fit_count(first, 1.0, 2.0) == 9
        assert fit_count(second, 1.0, 2.0) == 9

    def test_store_growth_keeps_index(self):
        state = ClusterState(capacity=2)
        servers = [Server(i, state=state) for i in range(2)]
        tracker = ResourceTracker(servers)
        assert fit_count(tracker, 1.0, 2.0) == 2
        extra = [Server(10 + i, state=state) for i in range(4)]
        assert state.capacity > 2
        servers[1].freeze()
        extra[0].freeze()
        assert fit_count(tracker, 1.0, 2.0) == 1

    def test_index_is_not_pickled(self):
        servers = make_servers(8)
        tracker = ResourceTracker(servers)
        fit_count(tracker, 1.0, 2.0)
        data = pickle.dumps(tracker)
        assert b"FitIndex" not in data
        restored = pickle.loads(data)
        assert restored.fit_index is None
        assert restored.state.fit_index_of == [None] * restored.state.capacity
        restored.servers[0].freeze()
        assert fit_count(restored, 1.0, 2.0) == 7
        assert fit_count(tracker, 1.0, 2.0) == 8

    def test_pickle_bytes_match_a_tracker_that_never_indexed(self):
        indexed, plain = make_servers(8), make_servers(8)
        tracker = ResourceTracker(indexed)
        fit_count(tracker, 1.0, 2.0)
        assert pickle.dumps(tracker) == pickle.dumps(ResourceTracker(plain))

    @pytest.mark.parametrize("demand", [(4.0, 1.0), (0.5, 64.0)])
    def test_non_nested_demand_falls_back_to_scan(self, demand):
        servers = make_servers(5)
        tracker = ResourceTracker(servers)
        assert fit_count(tracker, 2.0, 4.0) == 5
        assert fit_count(tracker, *demand) is None
        rng = np.random.default_rng(3)
        assert tracker.draw_fitting(*demand, None, rng) in range(5)
