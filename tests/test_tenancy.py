"""Multi-tenant power fairness: config, allocator, accounting, A/B.

The heart of this file is two contracts:

* **Allocator properties** (hypothesis): the weighted max-min greedy
  conserves the freeze quota, respects per-tenant capacity, and is
  envy-free up to one server; the vectorized policy plan matches a
  naive reference implementation exactly.
* **The pinned A/B**: on a seeded heavy-workload run with the
  ``critical-batch`` mix, the ``fair`` policy must improve Jain's index
  on normalized frozen server-minutes over the tenancy-``blind``
  baseline at equal (within 1%) capacity, without tripping breakers the
  baseline did not trip.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.serialize import (
    campaign_row_from_dict,
    campaign_row_to_dict,
    result_to_dict,
)
from repro.core.policy import FreezePolicy, plan_freeze_set
from repro.core.safety import SafetyConfig
from repro.sim.eventlog import ControlEventLog
from repro.sim.experiment import (
    ControlledExperiment,
    ExperimentConfig,
    run_tenancy_ab,
)
from repro.sim.testbed import WorkloadSpec
from repro.telemetry import jains_index
from repro.tenancy import (
    SLA_FREEZE_TOLERANCE,
    FairShareFreezePolicy,
    TenancyAccountant,
    TenancyConfig,
    TenantSpec,
    assign_to_tenants,
    builtin_mixes,
    fair_freeze_counts,
)
from tests.conftest import plan_ids

# ---------------------------------------------------------------------------
# Config validation and derived quantities
# ---------------------------------------------------------------------------


class TestTenantSpec:
    def test_defaults(self):
        spec = TenantSpec("web")
        assert spec.sla == "standard"
        assert spec.share == 1.0
        assert spec.freeze_weight == 1.0

    def test_freeze_weight_combines_share_and_sla_tolerance(self):
        spec = TenantSpec("prod", sla="critical", share=0.4)
        assert spec.freeze_weight == pytest.approx(
            0.4 * SLA_FREEZE_TOLERANCE["critical"]
        )

    @pytest.mark.parametrize("name", ["", "a=b", "a,b"])
    def test_rejects_bad_names(self, name):
        with pytest.raises(ValueError, match="invalid tenant name"):
            TenantSpec(name)

    def test_rejects_unknown_sla(self):
        with pytest.raises(ValueError, match="unknown SLA class"):
            TenantSpec("web", sla="platinum")

    @pytest.mark.parametrize("share", [0.0, -1.0])
    def test_rejects_nonpositive_share(self, share):
        with pytest.raises(ValueError, match="share must be positive"):
            TenantSpec("web", share=share)


class TestTenancyConfig:
    def test_rejects_empty_mix(self):
        with pytest.raises(ValueError, match="at least one tenant"):
            TenancyConfig(tenants=())

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate tenant names"):
            TenancyConfig(
                tenants=(TenantSpec("web"), TenantSpec("web", sla="batch"))
            )

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown tenancy policy"):
            TenancyConfig(tenants=(TenantSpec("web"),), policy="greedy")

    def test_entitlements_normalize_to_one(self):
        config = builtin_mixes()["three-tier"]
        entitlements = config.entitlements()
        assert sum(entitlements.values()) == pytest.approx(1.0)
        assert entitlements["bravo"] == pytest.approx(0.5)

    def test_builtin_mixes_are_valid_and_named(self):
        mixes = builtin_mixes()
        assert {"three-tier", "even-pair", "critical-batch"} <= set(mixes)
        for config in mixes.values():
            assert all(w > 0 for w in config.weights().values())


class TestAssignToTenants:
    def test_proportions_match_shares(self):
        config = builtin_mixes()["three-tier"]
        assignment = assign_to_tenants(list(range(100)), config)
        counts = {name: 0 for name in config.names}
        for tenant in assignment.values():
            counts[tenant] += 1
        assert counts == {"alpha": 20, "bravo": 50, "charlie": 30}

    def test_deterministic_and_total(self):
        config = builtin_mixes()["critical-batch"]
        items = list(range(37))
        first = assign_to_tenants(items, config)
        second = assign_to_tenants(items, config)
        assert first == second
        assert set(first) == set(items)

    @given(n=st.integers(0, 200))
    def test_every_prefix_is_share_balanced(self, n):
        """Any prefix is within one item of exact share proportions."""
        config = builtin_mixes()["even-pair"]
        assignment = assign_to_tenants(list(range(n)), config)
        left = sum(1 for t in assignment.values() if t == "left")
        assert abs(left - n / 2) <= 1


# ---------------------------------------------------------------------------
# The weighted max-min allocator (hypothesis properties)
# ---------------------------------------------------------------------------

_allocator_cases = st.integers(1, 5).flatmap(
    lambda n_tenants: st.fixed_dictionaries(
        {
            "quota": st.integers(0, 40),
            "weights": st.lists(
                st.floats(0.05, 8.0, allow_nan=False, allow_infinity=False),
                min_size=n_tenants,
                max_size=n_tenants,
            ),
            "cumulative": st.lists(
                st.floats(0.0, 500.0, allow_nan=False, allow_infinity=False),
                min_size=n_tenants,
                max_size=n_tenants,
            ),
            "capacity": st.lists(
                st.integers(0, 20), min_size=n_tenants, max_size=n_tenants
            ),
        }
    )
)


def _unpack(case):
    order = [f"t{i}" for i in range(len(case["weights"]))]
    weights = dict(zip(order, case["weights"]))
    cumulative = dict(zip(order, case["cumulative"]))
    capacity = dict(zip(order, case["capacity"]))
    return order, weights, cumulative, capacity


@given(case=_allocator_cases)
def test_allocator_conserves_quota(case):
    """Counts always sum to the quota, clamped only by total capacity."""
    order, weights, cumulative, capacity = _unpack(case)
    counts = fair_freeze_counts(
        case["quota"], order, weights, cumulative, capacity
    )
    assert sum(counts.values()) == min(
        case["quota"], sum(capacity.values())
    )
    assert all(counts[n] <= capacity[n] for n in order)
    assert all(counts[n] >= 0 for n in order)


@given(case=_allocator_cases)
def test_allocator_is_envy_free_up_to_one_server(case):
    """No under-capacity tenant ends lighter than a grantee was before
    its last grant -- the greedy equalizes burdens to within one server."""
    order, weights, cumulative, capacity = _unpack(case)
    counts = fair_freeze_counts(
        case["quota"], order, weights, cumulative, capacity
    )
    for a in order:
        if counts[a] >= capacity[a]:
            continue  # a saturated; it cannot envy anyone
        burden_a = (cumulative[a] + counts[a]) / weights[a]
        for b in order:
            if b == a or counts[b] == 0:
                continue
            before_last_grant = (cumulative[b] + counts[b] - 1) / weights[b]
            assert before_last_grant <= burden_a + 1e-9 * max(
                1.0, abs(burden_a)
            )


@given(case=_allocator_cases)
def test_allocator_matches_naive_greedy(case):
    """Heap-based greedy == the obvious min-over-eligible reference."""
    order, weights, cumulative, capacity = _unpack(case)
    counts = fair_freeze_counts(
        case["quota"], order, weights, cumulative, capacity
    )
    reference = {name: 0 for name in order}
    quota = min(case["quota"], sum(capacity.values()))
    for _ in range(quota):
        eligible = [n for n in order if reference[n] < capacity[n]]
        name = min(
            eligible,
            key=lambda n: (
                (cumulative[n] + reference[n]) / weights[n],
                order.index(n),
            ),
        )
        reference[name] += 1
    assert counts == reference


def test_allocator_rejects_negative_quota():
    with pytest.raises(ValueError, match="quota must be non-negative"):
        fair_freeze_counts(-1, ["a"], {"a": 1.0}, {}, {"a": 1})


def test_allocator_prefers_light_tenant():
    counts = fair_freeze_counts(
        3,
        ["heavy", "light"],
        {"heavy": 1.0, "light": 1.0},
        {"heavy": 100.0, "light": 0.0},
        {"heavy": 10, "light": 10},
    )
    assert counts == {"heavy": 0, "light": 3}


def test_allocator_weights_scale_burden():
    """A batch tenant (weight 2) absorbs twice the critical tenant's
    frozen servers at equal shares, steady state."""
    counts = fair_freeze_counts(
        30,
        ["crit", "batch"],
        {"crit": 0.5, "batch": 2.0},
        {"crit": 0.0, "batch": 0.0},
        {"crit": 30, "batch": 30},
    )
    assert counts["batch"] == 24  # 2.0 / (0.5 + 2.0) of the quota
    assert counts["crit"] == 6


# ---------------------------------------------------------------------------
# The fairness-aware freeze policy vs a naive reference
# ---------------------------------------------------------------------------


def _reference_plan(policy_inputs, server_powers, n_freeze, frozen):
    """The obvious per-tenant-member-list implementation of the plan."""
    tenant_of, weights, order, cumulative = policy_inputs
    full_order = list(order) + (["-"] if "-" not in order else [])
    weights = {**weights, "-": weights.get("-", 1.0)}
    ranked = sorted(
        server_powers,
        key=lambda sid: (sid not in frozen, -server_powers[sid], sid),
    )
    members = {name: [] for name in full_order}
    for sid in ranked:
        members[tenant_of.get(sid, "-")].append(sid)
    counts = fair_freeze_counts(
        min(n_freeze, len(server_powers)),
        full_order,
        weights,
        cumulative,
        {name: len(m) for name, m in members.items()},
    )
    picks = set()
    for name in full_order:
        picks.update(members[name][: counts[name]])
    return picks


_plan_cases = st.fixed_dictionaries(
    {
        "powers": st.dictionaries(
            st.integers(0, 60),
            st.floats(50.0, 400.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=40,
        ),
        "n_tenants": st.integers(1, 4),
        "n_freeze": st.integers(0, 45),
        "assign_seed": st.integers(0, 5),
        "frozen_fraction": st.floats(0.0, 1.0),
    }
)


@given(case=_plan_cases)
@settings(max_examples=60)
def test_fair_policy_plan_matches_reference(case):
    order = [f"t{i}" for i in range(case["n_tenants"])]
    weights = {name: float(i + 1) for i, name in enumerate(order)}
    sids = sorted(case["powers"])
    tenant_of = {
        sid: order[(sid + case["assign_seed"]) % len(order)]
        for sid in sids
        if (sid + case["assign_seed"]) % (len(order) + 1) != len(order)
    }  # leave some servers untenanted to exercise the "-" group
    frozen = set(sids[: int(len(sids) * case["frozen_fraction"])])

    policy = FairShareFreezePolicy(tenant_of, weights, order)
    policy.cumulative["t0"] = 7.5  # pre-existing burden must be honored
    expected = _reference_plan(
        (tenant_of, weights, order, dict(policy.cumulative)),
        case["powers"],
        case["n_freeze"],
        frozen,
    )
    assert plan_ids(policy.plan, case["powers"], case["n_freeze"], frozen) == expected


class TestFairShareFreezePolicy:
    def _policy(self):
        config = builtin_mixes()["critical-batch"]
        tenant_of = assign_to_tenants(list(range(10)), config)
        return FairShareFreezePolicy(
            tenant_of, config.weights(), config.names
        )

    def test_rejects_unknown_tenants_in_mapping(self):
        with pytest.raises(ValueError, match="missing from order"):
            FairShareFreezePolicy({1: "ghost"}, {"web": 1.0}, ["web"])

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError, match="positive weights"):
            FairShareFreezePolicy({1: "web"}, {"web": 0.0}, ["web"])

    def test_rejects_negative_n_freeze(self):
        with pytest.raises(ValueError, match="n_freeze"):
            plan_ids(self._policy().plan, {1: 100.0}, -1, set())

    def test_rejects_bad_r_stable(self):
        with pytest.raises(ValueError, match="r_stable"):
            plan_ids(self._policy().plan, {1: 100.0}, 1, set(), 0.0)

    def test_zero_quota_unfreezes_everything(self):
        assert plan_ids(self._policy().plan, {1: 100.0, 2: 50.0}, 0, {2}) == set()

    def test_quota_clamped_to_population(self):
        plan = plan_ids(self._policy().plan, {1: 100.0, 2: 50.0}, 10, set())
        assert plan == {1, 2}

    def test_cumulative_ledger_advances_with_grants(self):
        policy = self._policy()
        powers = {sid: 100.0 + sid for sid in range(10)}
        frozen = plan_ids(policy.plan, powers, 4, set())
        assert sum(policy.cumulative.values()) == pytest.approx(4.0)
        plan_ids(policy.plan, powers, 4, frozen)
        assert sum(policy.cumulative.values()) == pytest.approx(8.0)

    def test_policy_pickles_with_ledger_and_cache(self):
        """Snapshots carry the burden ledger, so resume is seamless."""
        policy = self._policy()
        powers = {sid: 100.0 + sid for sid in range(10)}
        plan_ids(policy.plan, powers, 4, set())
        clone = pickle.loads(pickle.dumps(policy))
        assert clone.cumulative == policy.cumulative
        assert plan_ids(clone.plan, powers, 4, set()) == plan_ids(
            policy.plan, powers, 4, set()
        )


def test_power_ordered_policy_is_bit_identical_to_plan_freeze_set():
    """The default policy object is the paper's function, verbatim."""
    powers = np.array([float((sid * 37) % 101) for sid in range(50)])
    ids = np.arange(50)
    frozen = np.isin(ids, [3, 17, 31])
    policy = FreezePolicy()
    for n_freeze in (0, 1, 7, 25, 50, 60):
        assert np.array_equal(
            policy.plan(powers, ids, n_freeze, frozen),
            plan_freeze_set(powers, ids, n_freeze, frozen),
        )


# ---------------------------------------------------------------------------
# Jain's index
# ---------------------------------------------------------------------------


def test_jains_index_bounds_and_extremes():
    assert jains_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)
    assert jains_index([1.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)
    assert jains_index([]) == 1.0
    assert jains_index([0.0, 0.0]) == 1.0


@given(
    values=st.lists(
        st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=12,
    )
)
@example(values=[2.8e-160, 2.8e-160])  # squares subnormal: once read 1.0000156
def test_jains_index_in_unit_interval(values):
    index = jains_index(values)
    assert 1.0 / len(values) - 1e-9 <= index <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# The accountant
# ---------------------------------------------------------------------------


class TestTenancyAccountant:
    def _accountant(self, engine):
        config = builtin_mixes()["critical-batch"]
        tenant_of = assign_to_tenants(list(range(4)), config)
        return TenancyAccountant(engine, config, tenant_of), tenant_of

    def test_freeze_interval_accrues_minutes(self, engine):
        accountant, tenant_of = self._accountant(engine)
        accountant.on_control_event("freeze", [0])
        engine.run(until=600.0)
        accountant.on_control_event("unfreeze", [0])
        stats = accountant.stats_snapshot()
        tenant = next(
            t for t in stats.tenants if t.name == tenant_of[0]
        )
        assert tenant.frozen_server_minutes == pytest.approx(10.0)
        assert tenant.freeze_events == 1

    def test_open_interval_counted_to_now(self, engine):
        accountant, tenant_of = self._accountant(engine)
        accountant.on_control_event("freeze", [1])
        engine.run(until=120.0)
        seconds = accountant.frozen_server_seconds()
        assert seconds[tenant_of[1]] == pytest.approx(120.0)

    def test_shed_events_attributed(self, engine):
        accountant, tenant_of = self._accountant(engine)
        accountant.on_control_event("shed", [2])
        stats = accountant.stats_snapshot()
        tenant = next(t for t in stats.tenants if t.name == tenant_of[2])
        assert tenant.shed_events == 1
        assert stats.total_shed_events == 1

    def test_untagged_servers_ignored_and_resolved_to_dash(self, engine):
        accountant, _ = self._accountant(engine)
        accountant.on_control_event("freeze", [999])
        assert accountant.resolve(999) == "-"
        assert accountant.stats_snapshot().total_frozen_server_minutes == 0.0


# ---------------------------------------------------------------------------
# Event-log attribution (satellite: freeze/shed events carry the tenant)
# ---------------------------------------------------------------------------


class TestEventLogTenantAnnotation:
    def test_untenanted_runs_mark_dash(self, engine):
        log = ControlEventLog(engine)
        log.record("freeze", 7)
        log.record("shed", 8)
        log.record("repair", 9)  # not an annotated kind
        assert log.events[0].detail == "tenant=-"
        assert log.events[1].detail == "tenant=-"
        assert log.events[2].detail == ""

    def test_resolver_names_the_tenant(self, engine):
        log = ControlEventLog(engine)
        log.attach_tenants({sid: "prod" for sid in range(5)})
        log.record("freeze", 3)
        log.record("unfreeze", 9)
        assert log.events[0].detail == "tenant=prod"
        assert log.events[1].detail == "tenant=-"

    def test_caller_detail_wins_over_annotation(self, engine):
        log = ControlEventLog(engine)
        log.attach_tenants({1: "prod"})
        log.record("shed", 1, "deadline exceeded")
        assert log.events[0].detail == "deadline exceeded"


# ---------------------------------------------------------------------------
# Serialization: additive only
# ---------------------------------------------------------------------------


def test_untenanted_result_doc_has_no_tenancy_key():
    """Tenancy off => the serialized document is the legacy document."""
    config = ExperimentConfig(
        n_servers=40, duration_hours=0.5, warmup_hours=0.1, seed=3
    )
    doc = result_to_dict(ControlledExperiment(config).run())
    assert "tenancy" not in doc
    assert doc["config"]["tenancy"] is None


def test_campaign_row_tenancy_fields_round_trip():
    from repro.sim.campaign import CampaignCell, CampaignRow

    cell = CampaignCell(
        over_provision_ratio=0.25,
        workload_name="heavy",
        workload=WorkloadSpec.heavy(),
        seed=7,
    )
    row = CampaignRow(
        cell=cell,
        p_mean=0.8,
        p_max=0.95,
        u_mean=0.5,
        r_t=0.9,
        g_tpw=0.1,
        violations=0,
        tenancy_policy="fair",
        jain_index=0.5,
    )
    doc = campaign_row_to_dict(row)
    assert doc["tenancy_policy"] == "fair"
    assert campaign_row_from_dict(doc) == row
    # untenanted rows serialize without the keys at all
    blind_doc = campaign_row_to_dict(
        CampaignRow(
            cell=cell,
            p_mean=0.8,
            p_max=0.95,
            u_mean=0.5,
            r_t=0.9,
            g_tpw=0.1,
            violations=0,
        )
    )
    assert "tenancy_policy" not in blind_doc
    assert "jain_index" not in blind_doc


# ---------------------------------------------------------------------------
# End-to-end: the pinned seeded A/B
# ---------------------------------------------------------------------------


def _ab_config() -> ExperimentConfig:
    return ExperimentConfig(
        n_servers=80,
        duration_hours=3.0,
        warmup_hours=0.5,
        over_provision_ratio=0.25,
        workload=WorkloadSpec.heavy(),
        seed=7,
        safety=SafetyConfig(),
        tenancy=builtin_mixes()["critical-batch"],
        scale_control_budget=False,
    )


def test_run_tenancy_ab_requires_tenancy():
    with pytest.raises(ValueError, match="needs config.tenancy"):
        run_tenancy_ab(ExperimentConfig(n_servers=4, duration_hours=0.2))


class TestPinnedAB:
    """fair > blind on Jain's index at equal capacity, no new trips.

    80 servers, 3 h heavy workload, seed 7, critical-batch mix, safety
    ladder armed. Both arms share the seed and tenant mix; only freeze
    victim selection differs.
    """

    @pytest.fixture(scope="class")
    def ab(self):
        return run_tenancy_ab(_ab_config())

    def test_fair_improves_jain_index(self, ab):
        blind, fair = ab["blind"], ab["fair"]
        assert blind.tenancy is not None and fair.tenancy is not None
        # Blind freezing lands evenly on raw servers, which is highly
        # unfair on weight-normalized frozen time (critical vs batch
        # weights differ 8x); fair must close most of that gap.
        assert blind.tenancy.jain_index < 0.75
        assert fair.tenancy.jain_index > 0.90
        assert (
            fair.tenancy.jain_index
            >= blind.tenancy.jain_index + 0.25
        )

    def test_capacity_gain_is_equal_within_one_percent(self, ab):
        blind, fair = ab["blind"], ab["fair"]
        assert blind.r_t > 0.5  # the run actually froze and still served
        # One seed's arms differ by a few percent of r_t either way (the
        # victims differ, so placements diverge); equal capacity is a
        # claim about the mean, taken over seeds 1-12.
        arms = [run_tenancy_ab(replace(_ab_config(), seed=seed)) for seed in range(1, 13)]
        blind_mean = np.mean([arm["blind"].r_t for arm in arms])
        fair_mean = np.mean([arm["fair"].r_t for arm in arms])
        assert abs(fair_mean - blind_mean) / blind_mean <= 0.01

    def test_no_new_breaker_trips(self, ab):
        blind, fair = ab["blind"], ab["fair"]
        assert blind.breaker_stats is not None
        assert fair.breaker_stats is not None
        assert fair.breaker_stats.trips <= blind.breaker_stats.trips

    def test_fair_shifts_frozen_time_to_the_batch_tenant(self, ab):
        blind = {
            t.name: t.frozen_server_minutes
            for t in ab["blind"].tenancy.tenants
        }
        fair = {
            t.name: t.frozen_server_minutes
            for t in ab["fair"].tenancy.tenants
        }
        assert fair["prod"] < blind["prod"]
        assert fair["backfill"] > blind["backfill"]

    def test_freeze_events_carry_tenant_attribution(self):
        config = _ab_config()
        experiment = ControlledExperiment(config)
        experiment.run()
        freezes = [
            e for e in experiment.event_log.events if e.kind == "freeze"
        ]
        assert freezes, "the pinned A/B config must actually freeze"
        names = set(config.tenancy.names) | {"-"}
        assert all(
            e.detail.startswith("tenant=")
            and e.detail.split("=", 1)[1] in names
            for e in freezes
        )
