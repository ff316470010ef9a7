"""Tests for :mod:`repro.fleet`: ledger invariants, policies, the
coordinator, and the facility-level A/B acceptance result.

The property tests drive randomized demand through the full
policy -> sanitize -> ledger pipeline and assert the ledger's three
invariants (conservation, floors, ratings) survive every admissible
path. The seeded A/B at the bottom pins the subsystem's reason to
exist: under skewed demand, following it beats the static split.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (
    BudgetLedger,
    FleetConfig,
    FleetCoordinator,
    LedgerError,
    RowBudget,
)
from repro.fleet.config import POLICY_NAMES
from repro.fleet.ledger import LEDGER_RTOL
from repro.fleet.policy import (
    DemandFollowingPolicy,
    ProportionalPolicy,
    RowDemand,
    StaticPolicy,
    make_policy,
    sanitize_allocations,
)
from repro.monitor.power_monitor import PowerMonitor
from repro.monitor.tsdb import TimeSeriesDatabase
from repro.sim.engine import Engine
from repro.sim.fleet_experiment import (
    FleetExperiment,
    FleetExperimentConfig,
    FleetRowSpec,
    run_fleet_ab,
)
from repro.sim.testbed import WorkloadSpec

RATING_HEADROOM = 1.25


def make_rows(statics, headroom=RATING_HEADROOM):
    return [
        RowBudget(
            name=f"row-{i}", rating_watts=s * headroom, static_watts=s
        )
        for i, s in enumerate(statics)
    ]


def make_ledger(statics, budget=None, headroom=RATING_HEADROOM):
    budget = sum(statics) if budget is None else budget
    return BudgetLedger(budget, make_rows(statics, headroom))


def demand_of(name, watts, pressure=0.0, samples=100):
    return RowDemand(
        name=name,
        p_demand_watts=watts,
        mean_watts=watts * 0.9,
        freeze_pressure=pressure,
        samples=samples,
    )


# ---------------------------------------------------------------------------
# Ledger invariants
# ---------------------------------------------------------------------------


class TestBudgetLedger:
    def test_allocations_default_to_static(self):
        ledger = make_ledger([1000.0, 3000.0])
        assert ledger.allocations() == {"row-0": 1000.0, "row-1": 3000.0}
        assert ledger.total_allocated() == pytest.approx(4000.0)

    def test_duplicate_rows_rejected(self):
        rows = make_rows([1000.0]) + make_rows([1000.0])
        with pytest.raises(ValueError, match="duplicate"):
            BudgetLedger(4000.0, rows)

    def test_oversubscribed_statics_rejected(self):
        with pytest.raises(ValueError, match="above the facility budget"):
            make_ledger([1000.0, 3000.0], budget=3500.0)

    def test_apply_conserves_or_raises(self):
        ledger = make_ledger([1000.0, 1000.0])
        with pytest.raises(LedgerError, match="above the facility"):
            ledger.apply({"row-0": 1200.0, "row-1": 900.0})
        # a rejected assignment changes nothing
        assert ledger.allocations() == {"row-0": 1000.0, "row-1": 1000.0}
        assert ledger.stats.rejected == 1

    def test_apply_respects_floor(self):
        ledger = make_ledger([1000.0, 1000.0])
        ledger.set_floor("row-0", 800.0)
        with pytest.raises(LedgerError, match="below the safety floor"):
            ledger.apply({"row-0": 700.0, "row-1": 1000.0})

    def test_apply_respects_rating(self):
        ledger = make_ledger([1000.0, 1000.0], budget=3000.0)
        with pytest.raises(LedgerError, match="exceeds the feed rating"):
            ledger.apply({"row-0": 1300.0, "row-1": 1000.0})

    def test_apply_requires_complete_assignment(self):
        ledger = make_ledger([1000.0, 1000.0])
        with pytest.raises(LedgerError, match="assignment names"):
            ledger.apply({"row-0": 1000.0})

    def test_frozen_ledger_refuses_moves(self):
        ledger = make_ledger([1000.0, 1000.0])
        ledger.freeze(now=42.0)
        assert ledger.frozen and ledger.frozen_since == 42.0
        with pytest.raises(LedgerError, match="frozen"):
            ledger.apply({"row-0": 900.0, "row-1": 1100.0})
        ledger.thaw()
        moved = ledger.apply({"row-0": 900.0, "row-1": 1100.0})
        assert moved == pytest.approx(100.0)

    def test_moved_is_half_l1_distance(self):
        ledger = make_ledger([1000.0, 1000.0, 1000.0])
        moved = ledger.apply(
            {"row-0": 900.0, "row-1": 1050.0, "row-2": 1050.0}
        )
        assert moved == pytest.approx(100.0)
        assert ledger.stats.reallocations == 1
        assert ledger.stats.watts_moved == pytest.approx(100.0)

    def test_floor_above_rating_rejected(self):
        ledger = make_ledger([1000.0])
        with pytest.raises(LedgerError, match="exceeds the feed rating"):
            ledger.set_floor("row-0", 1500.0)

    def test_scale_floors_to_fit(self):
        ledger = make_ledger([1000.0, 1000.0])
        ledger.set_floor("row-0", 1200.0)
        ledger.set_floor("row-1", 1200.0)
        assert ledger.scale_floors_to_fit()
        total = sum(r.floor_watts for r in ledger.rows())
        assert total == pytest.approx(ledger.facility_budget_watts)
        # relative protection preserved
        assert ledger.row("row-0").floor_watts == pytest.approx(
            ledger.row("row-1").floor_watts
        )
        assert not ledger.scale_floors_to_fit()

    def test_snapshot_is_json_safe(self):
        ledger = make_ledger([1000.0, 2000.0])
        doc = json.loads(json.dumps(ledger.snapshot()))
        assert doc["facility_budget_watts"] == 3000.0
        assert [r["name"] for r in doc["rows"]] == ["row-0", "row-1"]


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


class TestPolicies:
    def test_registry_covers_all_names(self):
        config = FleetConfig()
        for name in POLICY_NAMES:
            assert make_policy(name, config).name == name
        with pytest.raises(ValueError, match="unknown fleet policy"):
            make_policy("nope", config)

    def test_static_policy_proposes_statics(self):
        rows = make_rows([1000.0, 2000.0])
        rows[0].allocation_watts = 1400.0  # drifted
        proposal = StaticPolicy().propose(rows, {}, 3000.0)
        assert proposal == {"row-0": 1000.0, "row-1": 2000.0}

    def test_proportional_idle_fleet_keeps_static_split(self):
        rows = make_rows([1000.0, 3000.0])
        demands = {
            "row-0": demand_of("row-0", 0.0, samples=0),
            "row-1": demand_of("row-1", 0.0, samples=0),
        }
        proposal = ProportionalPolicy(FleetConfig()).propose(
            rows, demands, 4000.0
        )
        assert proposal["row-0"] == pytest.approx(1000.0, rel=1e-6)
        assert proposal["row-1"] == pytest.approx(3000.0, rel=1e-6)

    def test_proportional_follows_demand_and_conserves(self):
        rows = make_rows([2000.0, 2000.0])
        demands = {
            "row-0": demand_of("row-0", 2200.0),
            "row-1": demand_of("row-1", 1100.0),
        }
        proposal = ProportionalPolicy(FleetConfig()).propose(
            rows, demands, 4000.0
        )
        assert proposal["row-0"] > proposal["row-1"]
        assert sum(proposal.values()) == pytest.approx(4000.0, rel=1e-6)
        assert proposal["row-0"] <= rows[0].rating_watts

    def test_demand_following_dead_band_holds(self):
        config = FleetConfig(policy="demand-following")
        policy = DemandFollowingPolicy(config)
        rows = make_rows([2000.0, 2000.0])
        mid = 0.5 * (config.pressure_low + config.pressure_high)
        demands = {
            "row-0": demand_of("row-0", 1500.0, pressure=mid),
            "row-1": demand_of("row-1", 1500.0, pressure=mid),
        }
        proposal = policy.propose(rows, demands, 4000.0)
        assert proposal == {"row-0": 2000.0, "row-1": 2000.0}

    def test_demand_following_moves_toward_pressure(self):
        config = FleetConfig(policy="demand-following")
        policy = DemandFollowingPolicy(config)
        rows = make_rows([2000.0, 2000.0])
        demands = {
            "row-0": demand_of("row-0", 2400.0, pressure=0.5),
            "row-1": demand_of("row-1", 500.0, pressure=0.0),
        }
        proposal = policy.propose(rows, demands, 4000.0)
        assert proposal["row-0"] > 2000.0
        assert proposal["row-1"] < 2000.0
        assert sum(proposal.values()) == pytest.approx(4000.0)

    def test_demand_following_ema_smooths_pressure(self):
        config = FleetConfig(policy="demand-following")
        policy = DemandFollowingPolicy(config)
        rows = make_rows([2000.0])
        demands = {"row-0": demand_of("row-0", 1500.0, pressure=1.0)}
        policy.propose(rows, demands, 2000.0)
        assert policy.smoothed_pressure("row-0") == pytest.approx(1.0)
        demands = {"row-0": demand_of("row-0", 1500.0, pressure=0.0)}
        policy.propose(rows, demands, 2000.0)
        rho = config.pressure_ema_rho
        assert policy.smoothed_pressure("row-0") == pytest.approx(1.0 - rho)

    def test_sanitize_rate_limits_each_step(self):
        rows = make_rows([1000.0, 1000.0])
        out = sanitize_allocations(
            {"row-0": 1250.0, "row-1": 750.0}, rows, 2000.0, 0.10
        )
        assert out["row-0"] == pytest.approx(1100.0)
        assert out["row-1"] == pytest.approx(900.0)

    def test_sanitize_scales_oversubscription_down(self):
        rows = make_rows([1000.0, 1000.0])
        out = sanitize_allocations(
            {"row-0": 1100.0, "row-1": 1100.0}, rows, 2000.0, 0.5
        )
        assert sum(out.values()) <= 2000.0 * (1 + LEDGER_RTOL)


# ---------------------------------------------------------------------------
# Property: the policy -> sanitize -> ledger pipeline never breaks an
# invariant, for any policy and any randomized demand
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    statics=st.lists(
        st.floats(100.0, 10_000.0, allow_nan=False), min_size=1, max_size=6
    ),
    demand_fracs=st.lists(
        st.floats(0.0, 2.0, allow_nan=False), min_size=6, max_size=6
    ),
    pressures=st.lists(
        st.floats(0.0, 1.0, allow_nan=False), min_size=6, max_size=6
    ),
    policy_name=st.sampled_from(POLICY_NAMES),
    steps=st.integers(1, 4),
)
def test_pipeline_never_violates_ledger_invariants(
    statics, demand_fracs, pressures, policy_name, steps
):
    config = FleetConfig(policy=policy_name)
    ledger = make_ledger(statics)
    policy = make_policy(policy_name, config)
    budget = ledger.facility_budget_watts
    slack = budget * LEDGER_RTOL
    for step in range(steps):
        demands = {}
        for i, name in enumerate(ledger.row_names):
            row = ledger.row(name)
            watts = demand_fracs[(i + step) % len(demand_fracs)] * row.static_watts
            demands[name] = demand_of(
                name, watts, pressure=pressures[(i + step) % len(pressures)]
            )
            # floors the way the coordinator derives them: demand with
            # margin, never above rating or the current allocation
            floor = max(
                config.min_allocation_fraction * row.static_watts,
                watts * config.floor_margin,
            )
            ledger.set_floor(
                name, min(floor, row.rating_watts, row.allocation_watts)
            )
        ledger.scale_floors_to_fit()
        proposal = policy.propose(ledger.rows(), demands, budget)
        assignment = sanitize_allocations(
            proposal, ledger.rows(), budget, config.max_step_fraction
        )
        ledger.apply(assignment)  # must not raise
        total = ledger.total_allocated()
        assert total <= budget + slack
        for name in ledger.row_names:
            row = ledger.row(name)
            assert row.allocation_watts <= row.rating_watts + slack
            assert row.allocation_watts >= row.floor_watts - slack


@settings(max_examples=40, deadline=None)
@given(
    statics=st.lists(
        st.floats(100.0, 10_000.0, allow_nan=False), min_size=1, max_size=5
    ),
    wanted_fracs=st.lists(
        st.floats(-0.5, 3.0, allow_nan=False), min_size=5, max_size=5
    ),
)
def test_sanitize_output_always_admissible(statics, wanted_fracs):
    """Even a hostile proposal (negative, above rating, conjured watts)
    sanitizes into the ledger's admissible region."""
    ledger = make_ledger(statics)
    budget = ledger.facility_budget_watts
    proposal = {
        name: wanted_fracs[i % len(wanted_fracs)] * ledger.row(name).static_watts
        for i, name in enumerate(ledger.row_names)
    }
    assignment = sanitize_allocations(
        proposal, ledger.rows(), budget, max_step_fraction=0.10
    )
    ledger.apply(assignment)  # must not raise


# ---------------------------------------------------------------------------
# Coordinator unit behaviour (stub plumbing, no full experiment)
# ---------------------------------------------------------------------------


class _StubController:
    """Duck-typed stand-in for AmpereController in coordinator tests."""

    def __init__(self):
        self.pushed = []

    def state_of(self, name):
        raise KeyError(name)

    def update_budget(self, name, watts):
        self.pushed.append((name, watts))
        return True


def make_coordinator(policy="demand-following"):
    engine = Engine()
    monitor = PowerMonitor(
        engine, db=TimeSeriesDatabase(), rng=np.random.default_rng(0)
    )
    ledger = make_ledger([1000.0, 1000.0])
    controllers = {name: _StubController() for name in ledger.row_names}
    coordinator = FleetCoordinator(
        engine,
        monitor,
        ledger,
        controllers,
        config=FleetConfig(policy=policy),
    )
    return coordinator


class TestCoordinator:
    def test_requires_controller_per_row(self):
        engine = Engine()
        monitor = PowerMonitor(
            engine, db=TimeSeriesDatabase(), rng=np.random.default_rng(0)
        )
        ledger = make_ledger([1000.0, 1000.0])
        with pytest.raises(ValueError, match="no controller"):
            FleetCoordinator(
                engine, monitor, ledger, {"row-0": _StubController()}
            )

    def test_no_monitor_data_means_stale_hold(self):
        coordinator = make_coordinator()
        coordinator.tick()
        assert coordinator.stats.ticks == 1
        assert coordinator.stats.stale_holds == 1
        assert coordinator.stats.reallocations == 0

    def test_blackout_freezes_ledger_and_skips_ticks(self):
        coordinator = make_coordinator()
        coordinator.blackout_begin()
        assert coordinator.ledger.frozen
        coordinator.tick()
        assert coordinator.stats.blackout_ticks == 1
        coordinator.blackout_end()
        assert not coordinator.ledger.frozen
        coordinator.tick()
        assert coordinator.stats.blackout_ticks == 1  # only during blackout


# ---------------------------------------------------------------------------
# Fleet experiment: integration and the pinned A/B acceptance result
# ---------------------------------------------------------------------------


def small_fleet_config(policy="static", **overrides):
    """Hot row + cold donor row; shows clear policy separation in ~1.5h."""
    kwargs = dict(
        rows=(
            FleetRowSpec(
                n_servers=40,
                workload=WorkloadSpec(
                    target_utilization=0.40,
                    bursts_per_day=4.0,
                    burst_factor=1.3,
                ),
            ),
            FleetRowSpec(
                n_servers=40,
                workload=WorkloadSpec(target_utilization=0.06),
            ),
        ),
        duration_hours=1.5,
        warmup_hours=0.375,
        over_provision_ratio=0.25,
        seed=7,
        fleet=FleetConfig(policy=policy),
    )
    kwargs.update(overrides)
    return FleetExperimentConfig(**kwargs)


class TestFleetExperiment:
    def test_static_policy_is_identical_to_no_coordinator(self):
        """The `static` policy must be a pure no-op: the same fleet with
        the coordinator disabled produces bit-identical trajectories."""
        with_coord = FleetExperiment(small_fleet_config("static"))
        result_a = with_coord.run()
        without = FleetExperiment(
            small_fleet_config("static", coordinator_enabled=False)
        )
        result_b = without.run()
        assert result_a.coordinator_stats.watts_moved == 0.0
        assert result_a.coordinator_stats.reallocations == 0
        for name in ("row-0", "row-1"):
            times_a, watts_a = with_coord.monitor.power_series(name)
            times_b, watts_b = without.monitor.power_series(name)
            assert np.array_equal(times_a, times_b)
            assert np.array_equal(watts_a, watts_b)
        for row_a, row_b in zip(result_a.rows, result_b.rows):
            assert row_a.summary == row_b.summary
            assert row_a.frozen_server_minutes == row_b.frozen_server_minutes
            assert row_a.final_allocation_watts == row_b.static_budget_watts

    def test_ab_demand_following_beats_static(self):
        """The subsystem's reason to exist, pinned: under skewed demand
        the demand-following policy strictly reduces frozen capacity at
        equal-or-lower violations, with zero breaker trips either way."""
        results = run_fleet_ab(small_fleet_config())
        static = results["static"]
        dynamic = results["demand-following"]
        assert dynamic.total_frozen_server_minutes < (
            static.total_frozen_server_minutes
        )
        assert dynamic.total_violations <= static.total_violations
        assert static.total_breaker_trips == 0
        assert dynamic.total_breaker_trips == 0
        assert dynamic.total_throughput >= static.total_throughput
        assert dynamic.coordinator_stats.reallocations > 0
        assert dynamic.coordinator_stats.watts_moved > 0.0
        # seeded regression pins (bit-for-bit determinism contract, under
        # Testbed's seed contract and the v2 workload draw order)
        assert static.total_frozen_server_minutes == pytest.approx(1800.0)
        assert dynamic.total_frozen_server_minutes == pytest.approx(290.0)
        assert static.total_violations == 78
        assert dynamic.total_violations == 3

    def test_allocations_never_exceed_ratings(self):
        for policy in ("proportional", "demand-following"):
            result = FleetExperiment(small_fleet_config(policy)).run()
            for row in result.ledger["rows"]:
                assert row["allocation_watts"] <= row["rating_watts"] * (
                    1 + LEDGER_RTOL
                )
            assert result.total_breaker_trips == 0

    def test_facility_budget_is_conserved(self):
        result = FleetExperiment(
            small_fleet_config("demand-following")
        ).run()
        total = sum(
            row["allocation_watts"] for row in result.ledger["rows"]
        )
        budget = result.ledger["facility_budget_watts"]
        assert total <= budget * (1 + LEDGER_RTOL)

    def test_coordinator_blackout_scenario(self):
        from repro.faults.scenario import builtin_scenarios

        scenario = builtin_scenarios()["fleet-blackout"]
        result = FleetExperiment(
            small_fleet_config("demand-following", faults=scenario)
        ).run()
        assert result.fault_stats.coordinator_blackouts_injected == 1
        assert result.coordinator_stats.blackout_ticks > 0
        assert result.ledger["frozen"] is False  # thawed by run end
        assert result.total_breaker_trips == 0

    def test_result_serializes_to_json(self):
        from repro.analysis.serialize import fleet_result_to_dict

        result = FleetExperiment(
            small_fleet_config("demand-following")
        ).run()
        doc = json.loads(json.dumps(fleet_result_to_dict(result)))
        assert [r["name"] for r in doc["rows"]] == ["row-0", "row-1"]
        assert doc["facility"]["budget_watts"] > 0
        assert doc["coordinator"]["reallocations"] >= 0
        assert doc["config"]["fleet"]["policy"] == "demand-following"

    def test_telemetry_exposes_fleet_metrics(self):
        from repro.telemetry import render_prometheus

        result = FleetExperiment(
            small_fleet_config("demand-following", telemetry_enabled=True)
        ).run()
        text = render_prometheus(result.telemetry)
        assert "repro_fleet_ticks_total" in text
        assert "repro_fleet_allocation_watts" in text
        assert "repro_monitor_facility_power_watts" in text


# ---------------------------------------------------------------------------
# Fleet campaign cells: serial == parallel, byte for byte
# ---------------------------------------------------------------------------


def fleet_campaign():
    from repro.sim.campaign import Campaign

    return Campaign(
        ratios=(0.25,),
        workloads={
            "hot": WorkloadSpec(
                target_utilization=0.40, bursts_per_day=4.0, burst_factor=1.3
            )
        },
        seeds=(7,),
        n_servers=80,
        duration_hours=1.0,
        warmup_hours=0.25,
        fleet=FleetConfig(policy="demand-following"),
    )


def test_fleet_campaign_serial_parallel_identical():
    from repro.analysis.serialize import campaign_rows_to_dicts

    serial = fleet_campaign().run()
    parallel = fleet_campaign().run_parallel(max_workers=2)
    a = json.dumps(campaign_rows_to_dicts(serial.rows), sort_keys=True)
    b = json.dumps(campaign_rows_to_dicts(parallel.rows), sort_keys=True)
    assert a == b
    row = serial.rows[0]
    assert row.error is None
    assert np.isnan(row.r_t) and np.isnan(row.g_tpw)  # no control group
    assert row.frozen_server_minutes >= 0.0
