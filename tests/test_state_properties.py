"""Property-based tests (hypothesis) on the columnar state store.

The contract under test: for *arbitrary* interleavings of control
actions (freeze/unfreeze, DVFS cap/thaw, fail/repair, power-off/on,
task placement/removal) on a randomly shaped fleet, the array store and
a twin per-object fleet remain in bit-identical states -- same powers,
same aggregates, same flags -- and the store never violates its own
invariants (no NaN leaks, dark servers draw 0 W and hold no DVFS cap,
power conservation against the per-server model).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.power import DVFS_FREQUENCIES, PowerModelParams
from repro.cluster.server import Server
from repro.cluster.state import ClusterState
from repro.workload.job import Job

# One action = (kind, server_selector, level_selector). Selectors are
# draws in [0, 1) mapped onto the fleet / DVFS ladder at runtime so the
# same strategy works for any fleet size.
ACTION_KINDS = (
    "freeze",
    "unfreeze",
    "cap",
    "thaw",
    "fail",
    "repair",
    "power_off",
    "power_on",
    "add_task",
    "remove_task",
)

actions = st.tuples(
    st.sampled_from(ACTION_KINDS),
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(0.0, 1.0, exclude_max=True),
)

fleets = st.integers(min_value=1, max_value=40)
action_lists = st.lists(actions, min_size=0, max_size=60)


def build_twin_fleets(n):
    """The same fleet twice: one shared store vs per-server private stores."""
    params = PowerModelParams()
    shared = ClusterState(capacity=n)
    vec = [Server(i, power_params=params, state=shared) for i in range(n)]
    obj = [Server(i, power_params=params) for i in range(n)]
    return shared, vec, obj


def apply_action(servers, action, next_job_id):
    """Apply one action through the public Server API; returns jobs used."""
    kind, who, level = action
    server = servers[int(who * len(servers))]
    if kind == "freeze":
        server.freeze()
    elif kind == "unfreeze":
        server.unfreeze()
    elif kind == "cap":
        if not (server.failed or server.powered_off):
            server.set_frequency(
                DVFS_FREQUENCIES[int(level * len(DVFS_FREQUENCIES))]
            )
    elif kind == "thaw":
        if not (server.failed or server.powered_off):
            server.set_frequency(1.0)
    elif kind == "fail":
        server.fail()
    elif kind == "repair":
        server.repair()
    elif kind == "power_off":
        if not server.tasks:
            server.power_off()
    elif kind == "power_on":
        server.power_on()
    elif kind == "add_task":
        job = Job(next_job_id, 100.0, cores=2, memory_gb=4.0)
        if server.can_fit(job.cores, job.memory_gb):
            server.add_task(job)
            return 1
    elif kind == "remove_task":
        if server.tasks:
            job = next(iter(server.tasks.values()))
            server.remove_task(job)
    return 0


@settings(max_examples=60, deadline=None)
@given(n=fleets, ops=action_lists)
def test_interleavings_leave_twin_fleets_identical(n, ops):
    """Array store == per-object reference after any action sequence."""
    shared, vec, obj = build_twin_fleets(n)
    job_id = 0
    for action in ops:
        job_id += apply_action(vec, action, job_id)
    job_id = 0
    for action in ops:
        job_id += apply_action(obj, action, job_id)

    idx = np.arange(n)
    vec_powers = shared.server_powers(idx)
    obj_powers = np.array([s.power_watts() for s in obj])
    # Bit-identical per-server power and aggregate (power conservation
    # against the per-server model).
    assert vec_powers.tobytes() == obj_powers.tobytes()
    assert shared.total_power(idx) == sum(s.power_watts() for s in obj)
    # Per-field identity through the view API.
    for v, o in zip(vec, obj):
        assert v.frozen == o.frozen
        assert v.failed == o.failed
        assert v.powered_off == o.powered_off
        assert v.frequency == o.frequency
        assert v.used_cores == o.used_cores
        assert v.used_memory_gb == o.used_memory_gb
        assert v.jobs_started == o.jobs_started
        assert v.jobs_completed == o.jobs_completed


@settings(max_examples=60, deadline=None)
@given(n=fleets, ops=action_lists)
def test_store_invariants_hold_under_interleavings(n, ops):
    """The store's own invariants survive any action sequence."""
    shared, vec, _ = build_twin_fleets(n)
    job_id = 0
    for action in ops:
        job_id += apply_action(vec, action, job_id)

    idx = np.arange(n)
    powers = shared.server_powers(idx)
    # No NaN leaks, no negative power, dark servers draw exactly 0 W.
    assert np.all(np.isfinite(powers))
    assert np.all(powers >= 0.0)
    dark = shared.failed[idx] | shared.powered_off[idx]
    assert np.all(powers[dark] == 0.0)
    # A dark server cannot be capped: failure and power-on both reset
    # DVFS (the machine POSTs at full frequency).
    assert not np.any(shared.capped_mask(idx) & shared.failed[idx])
    # frozen is advisory and orthogonal: flags stay boolean and in sync
    # with the view API (a frozen *and* energized server is legal; a
    # frozen flag must never leak into the power columns).
    for server in vec:
        if server.frozen:
            assert shared.frozen[server._index]
    # Resource accounting stays within capacity.
    assert np.all(shared.used_cores[idx] <= shared.cores[idx] + 1e-9)
    assert np.all(shared.used_cores[idx] >= 0.0)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    fail_selector=st.lists(st.booleans(), min_size=1, max_size=30),
    cap_level=st.sampled_from(DVFS_FREQUENCIES),
)
def test_mask_fail_matches_scalar_fail(n, fail_selector, cap_level):
    """ClusterState.fail_servers == Server.fail() applied one by one,
    including the DVFS reset and shared-cache invalidation (the PR 4
    capped-time seam, batched)."""
    shared, vec, obj = build_twin_fleets(n)
    # Cap everyone first so the failure path must clear real DVFS state.
    for server in vec:
        server.set_frequency(cap_level)
    for server in obj:
        server.set_frequency(cap_level)
    # Prime the power caches so invalidation is actually exercised.
    for server in vec:
        server.power_watts()
    for server in obj:
        server.power_watts()

    mask = np.array([fail_selector[i % len(fail_selector)] for i in range(n)])
    shared.fail_servers(np.flatnonzero(mask))
    for server, fail in zip(obj, mask):
        if fail:
            server.fail()

    idx = np.arange(n)
    obj_powers = np.array([s.power_watts() for s in obj])
    assert shared.server_powers(idx).tobytes() == obj_powers.tobytes()
    # Object-path reads through the *shared* cache agree too (the mask
    # invalidated exactly what per-object fail() would have).
    vec_object_path = np.array([s.power_watts() for s in vec])
    assert vec_object_path.tobytes() == obj_powers.tobytes()
    assert np.all(shared.frequency[idx][mask] == 1.0)
    assert not np.any(shared.capped_mask(idx) & mask)
    # Repair restores the twins identically as well.
    shared.repair_servers(np.flatnonzero(mask))
    for server, fail in zip(obj, mask):
        if fail:
            server.repair()
    obj_powers = np.array([s.power_watts() for s in obj])
    assert shared.server_powers(idx).tobytes() == obj_powers.tobytes()
