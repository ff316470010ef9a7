"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import count_violations, gain_in_tpw
from repro.core.policy import plan_freeze_set
from repro.core.rhc import pcp_optimal_sequence, spcp_optimal_ratio
from repro.sim.engine import Engine
from repro.sim.events import EventPriority
from repro.workload.interactive import lindley_waits
from tests.oracles import simulate_power_trajectory, spcp_optimal_ratio_nonlinear

# ---------------------------------------------------------------------------
# SPCP / PCP invariants
# ---------------------------------------------------------------------------

power_values = st.floats(0.0, 1.5, allow_nan=False)
demand_values = st.floats(0.0, 0.2, allow_nan=False)
slopes = st.floats(0.01, 0.5, allow_nan=False)


@given(p=power_values, e=demand_values, k=slopes)
def test_spcp_output_in_range(p, e, k):
    u = spcp_optimal_ratio(p, e, k)
    assert 0.0 <= u <= 1.0


@given(p=power_values, e=demand_values, k=slopes)
def test_spcp_satisfies_constraint_or_saturates(p, e, k):
    u = spcp_optimal_ratio(p, e, k)
    next_power = p + e - k * u
    assert next_power <= 1.0 + 1e-9 or u == 1.0


@given(p=power_values, e=demand_values, k=slopes, u_max=st.floats(0.1, 1.0))
def test_spcp_respects_u_max(p, e, k, u_max):
    assert spcp_optimal_ratio(p, e, k, u_max=u_max) <= u_max + 1e-12


@given(
    p=st.floats(0.5, 1.0),
    e=st.lists(st.floats(0.0, 0.03), min_size=1, max_size=8),
)
def test_pcp_trajectory_feasible_when_solvable(p, e):
    k_r = 0.2
    try:
        controls = pcp_optimal_sequence(p, e, k_r=k_r)
    except ValueError:
        return  # infeasible instances are allowed to raise
    trajectory = simulate_power_trajectory(p, e, controls, k_r)
    assert all(pt <= 1.0 + 1e-9 for pt in trajectory)
    assert all(0.0 <= u <= 1.0 for u in controls)


@given(p=power_values, e=demand_values)
def test_nonlinear_matches_linear(p, e):
    k_r = 0.15
    linear = spcp_optimal_ratio(p, e, k_r)
    nonlinear = spcp_optimal_ratio_nonlinear(p, e, lambda u: k_r * u)
    assert abs(linear - nonlinear) < 1e-6


# ---------------------------------------------------------------------------
# Algorithm 1 freeze-set planning invariants
# ---------------------------------------------------------------------------

power_maps = st.dictionaries(
    st.integers(0, 30), st.floats(1.0, 500.0, allow_nan=False), min_size=1, max_size=30
)


@given(powers=power_maps, n_freeze=st.integers(0, 35), r_stable=st.floats(0.1, 1.0))
def test_plan_respects_target_size(powers, n_freeze, r_stable):
    plan = plan_freeze_set(powers, n_freeze, set(), r_stable=r_stable)
    assert len(plan.new_frozen) == min(n_freeze, len(powers))


@given(powers=power_maps, n_freeze=st.integers(0, 35), seed=st.integers(0, 1000))
def test_plan_actions_are_consistent(powers, n_freeze, seed):
    rng = np.random.default_rng(seed)
    ids = list(powers)
    current = {i for i in ids if rng.random() < 0.4}
    plan = plan_freeze_set(powers, n_freeze, current)
    # Action sets are disjoint and produce exactly new_frozen.
    assert not (plan.to_freeze & plan.to_unfreeze)
    assert plan.new_frozen == (current | plan.to_freeze) - plan.to_unfreeze
    assert plan.to_freeze.isdisjoint(current)
    assert plan.to_unfreeze <= current


@given(powers=power_maps, n_freeze=st.integers(1, 35))
def test_plan_idempotent(powers, n_freeze):
    """Applying the same plan twice changes nothing (stability)."""
    first = plan_freeze_set(powers, n_freeze, set())
    second = plan_freeze_set(powers, n_freeze, set(first.new_frozen))
    assert second.new_frozen == first.new_frozen
    assert second.is_noop


# ---------------------------------------------------------------------------
# Lindley recursion invariants
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(st.floats(0.0, 10.0), st.floats(0.001, 5.0)),
        min_size=1,
        max_size=400,
    )
)
def test_lindley_non_negative_and_bounded(pairs):
    inter = np.array([a for a, _ in pairs])
    inter[0] = 0.0
    services = np.array([s for _, s in pairs])
    waits = lindley_waits(inter, services)
    assert (waits >= 0.0).all()
    # A wait can never exceed the total service issued before the arrival.
    assert (waits <= np.concatenate([[0.0], np.cumsum(services[:-1])]) + 1e-9).all()


@given(
    st.lists(st.floats(0.001, 2.0), min_size=2, max_size=200),
    st.floats(1.001, 3.0),
)
def test_lindley_monotone_in_service_times(services, factor):
    services = np.asarray(services)
    inter = np.ones_like(services)
    inter[0] = 0.0
    base = lindley_waits(inter, services)
    slower = lindley_waits(inter, services * factor)
    assert (slower >= base - 1e-12).all()


# ---------------------------------------------------------------------------
# Engine determinism
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(st.floats(0.0, 100.0, allow_nan=False), st.integers(0, 3)),
        min_size=1,
        max_size=50,
    )
)
def test_engine_executes_in_sorted_order(events):
    engine = Engine()
    seen = []
    priorities = [
        EventPriority.JOB_COMPLETION,
        EventPriority.JOB_ARRIVAL,
        EventPriority.MONITOR_SAMPLE,
        EventPriority.GENERIC,
    ]
    for t, p in events:
        priority = priorities[p]
        engine.schedule(t, priority, lambda t=t, pr=priority: seen.append((t, int(pr))))
    engine.run()
    assert seen == sorted(seen, key=lambda pair: (pair[0], pair[1]))


@given(
    st.lists(
        st.tuples(st.floats(0.0, 100.0, allow_nan=False), st.integers(0, 3)),
        min_size=1,
        max_size=50,
    )
)
def test_engine_tie_break_is_insertion_order(events):
    """Among events with identical (time, priority) the k-th scheduled
    fires k-th -- the full (time, priority, insertion) contract."""
    engine = Engine()
    seen = []
    priorities = [
        EventPriority.JOB_COMPLETION,
        EventPriority.JOB_ARRIVAL,
        EventPriority.MONITOR_SAMPLE,
        EventPriority.GENERIC,
    ]
    for order, (t, p) in enumerate(events):
        priority = priorities[p]
        engine.schedule(
            t, priority, lambda t=t, pr=priority, o=order: seen.append((t, int(pr), o))
        )
    engine.run()
    assert len(seen) == len(events)
    # Sorting the observed triples by (time, priority, insertion) must be
    # a no-op: insertion index is the final tie-breaker.
    assert seen == sorted(seen)


@given(
    st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=1, max_size=50),
    st.sets(st.integers(0, 49)),
)
def test_engine_cancelled_handles_never_fire(times, cancel_indices):
    engine = Engine()
    fired = []
    handles = [
        engine.schedule(t, EventPriority.GENERIC, lambda i=i: fired.append(i))
        for i, t in enumerate(times)
    ]
    cancelled = {i for i in cancel_indices if i < len(handles)}
    for i in cancelled:
        handles[i].cancel()
    engine.run()
    assert set(fired).isdisjoint(cancelled)
    assert set(fired) == set(range(len(times))) - cancelled


@given(
    st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=1, max_size=50),
    st.one_of(st.none(), st.floats(0.0, 120.0, allow_nan=False)),
)
def test_engine_now_is_monotone(times, until):
    engine = Engine()
    observed = []
    for t in times:
        engine.schedule(t, EventPriority.GENERIC, lambda: observed.append(engine.now))
    engine.run(until=until)
    assert observed == sorted(observed)
    if until is None:
        assert engine.now == max(times)
    else:
        # The clock lands exactly on the horizon; events at or past it
        # stay pending.
        assert engine.now == until
        assert all(t < until for t in observed)


# ---------------------------------------------------------------------------
# Metric identities
# ---------------------------------------------------------------------------


@given(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=200), st.floats(0.1, 2.0))
def test_violations_between_zero_and_n(values, budget):
    count = count_violations(values, budget)
    assert 0 <= count <= len(values)


@given(st.floats(0.0, 1.0), st.floats(0.0, 0.5))
@settings(max_examples=50)
def test_gtpw_bounded_by_r_o(r_t, r_o):
    g = gain_in_tpw(r_t, r_o)
    assert g <= r_o + 1e-12
    assert g >= -1.0


# ---------------------------------------------------------------------------
# Freeze plan honours the stability band
# ---------------------------------------------------------------------------


@given(powers=power_maps, n_freeze=st.integers(1, 30), r_stable=st.floats(0.1, 1.0))
def test_plan_members_inside_band(powers, n_freeze, r_stable):
    plan = plan_freeze_set(powers, n_freeze, set(), r_stable=r_stable)
    if not plan.new_frozen:
        return
    k = min(n_freeze, len(powers))
    kth_power = sorted(powers.values(), reverse=True)[k - 1]
    for sid in plan.new_frozen:
        assert powers[sid] >= r_stable * kth_power - 1e-9


# ---------------------------------------------------------------------------
# Advisor sanity
# ---------------------------------------------------------------------------


@given(st.floats(0.55, 0.95), st.integers(0, 100))
@settings(max_examples=40)
def test_advisor_recommends_a_candidate(mean_power, seed):
    from repro.core.advisor import recommend_over_provision_ratio

    rng = np.random.default_rng(seed)
    history = np.clip(rng.normal(mean_power, 0.01, size=500), 0.0, 1.5)
    advice = recommend_over_provision_ratio(history)
    assert advice.recommended_ratio in (0.13, 0.17, 0.21, 0.25)
