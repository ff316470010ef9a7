"""Tests for the PCP/SPCP receding-horizon control math (Section 3.6)."""

import itertools

import numpy as np
import pytest

from repro.core.rhc import pcp_optimal_sequence, spcp_optimal_ratio, threshold_ratio
from tests.oracles import (
    pcp_cost,
    simulate_power_trajectory,
    spcp_optimal_ratio_nonlinear,
)


class TestSpcpClosedForm:
    def test_no_control_needed_below_threshold(self):
        # P_t + E_t <= P_M: freezing nothing is optimal.
        assert spcp_optimal_ratio(0.90, 0.05, k_r=0.1) == 0.0

    def test_exact_eq13_value(self):
        # u = (P + E - 1) / k_r
        u = spcp_optimal_ratio(0.99, 0.03, k_r=0.1)
        assert u == pytest.approx(0.2)

    def test_clamped_at_u_max(self):
        assert spcp_optimal_ratio(1.05, 0.05, k_r=0.02) == 1.0
        assert spcp_optimal_ratio(1.05, 0.05, k_r=0.02, u_max=0.5) == 0.5

    def test_boundary_at_threshold(self):
        e_t = 0.025
        threshold = threshold_ratio(e_t)
        assert spcp_optimal_ratio(threshold, e_t, k_r=0.1) == pytest.approx(0.0)
        assert spcp_optimal_ratio(threshold + 0.001, e_t, k_r=0.1) > 0.0

    def test_scaled_power_limit(self):
        # With a lower control target the controller engages earlier.
        assert spcp_optimal_ratio(0.93, 0.02, k_r=0.1, p_m=0.9) == pytest.approx(0.5)

    @pytest.mark.parametrize("k_r", [0.0, -0.1])
    def test_invalid_k_r(self, k_r):
        with pytest.raises(ValueError):
            spcp_optimal_ratio(0.9, 0.02, k_r=k_r)

    @pytest.mark.parametrize("u_max", [0.0, 1.5])
    def test_invalid_u_max(self, u_max):
        with pytest.raises(ValueError):
            spcp_optimal_ratio(0.9, 0.02, k_r=0.1, u_max=u_max)

    def test_threshold_ratio_definition(self):
        assert threshold_ratio(0.025) == pytest.approx(0.975)
        assert threshold_ratio(0.025, p_m=0.95) == pytest.approx(0.925)


class TestPcpSequence:
    def test_trajectory_stays_under_limit(self):
        e = [0.02, 0.03, 0.01, 0.04]
        controls = pcp_optimal_sequence(0.97, e, k_r=0.1)
        trajectory = simulate_power_trajectory(0.97, e, controls, k_r=0.1)
        assert all(p <= 1.0 + 1e-9 for p in trajectory)

    def test_zero_demand_needs_no_control(self):
        controls = pcp_optimal_sequence(0.95, [0.0, 0.0, 0.0], k_r=0.1)
        assert controls == [0.0, 0.0, 0.0]

    def test_infeasible_raises(self):
        with pytest.raises(ValueError, match="infeasible"):
            pcp_optimal_sequence(1.0, [0.5], k_r=0.1)

    def test_lemma_31_optimality_against_brute_force(self):
        """Iterated SPCP matches exhaustive search on a discretized grid.

        Lemma 3.1 says solving the one-step problem greedily is optimal
        for the full horizon. We verify on small instances by enumerating
        all control sequences on a fine grid.
        """
        k_r = 0.1
        grid = np.linspace(0.0, 1.0, 21)
        cases = [
            (0.97, [0.03, 0.02]),
            (0.99, [0.02, 0.04]),
            (0.95, [0.06, 0.0]),
        ]
        for p0, e in cases:
            controls = pcp_optimal_sequence(p0, e, k_r=k_r)
            best_cost = np.inf
            for candidate in itertools.product(grid, repeat=len(e)):
                trajectory = simulate_power_trajectory(p0, e, list(candidate), k_r)
                if all(p <= 1.0 + 1e-9 for p in trajectory):
                    best_cost = min(best_cost, sum(candidate))
            # The greedy solution must be within one grid step per stage.
            assert pcp_cost(controls) <= best_cost + 1e-9

    def test_cost_is_sum(self):
        assert pcp_cost([0.1, 0.2, 0.3]) == pytest.approx(0.6)


class TestTrajectory:
    def test_dynamics_eq8(self):
        trajectory = simulate_power_trajectory(0.9, [0.05], [0.2], k_r=0.1)
        assert trajectory == [pytest.approx(0.9 + 0.05 - 0.02)]

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            simulate_power_trajectory(0.9, [0.1, 0.2], [0.1], k_r=0.1)

    def test_control_out_of_range_raises(self):
        with pytest.raises(ValueError):
            simulate_power_trajectory(0.9, [0.1], [1.5], k_r=0.1)


class TestNonlinearSpcp:
    def test_matches_linear_case(self):
        linear = spcp_optimal_ratio(0.99, 0.03, k_r=0.1)
        nonlinear = spcp_optimal_ratio_nonlinear(0.99, 0.03, lambda u: 0.1 * u)
        assert nonlinear == pytest.approx(linear, abs=1e-6)

    def test_quadratic_effect(self):
        # f(u) = 0.1 u^2: required 0.025 -> u = 0.5
        u = spcp_optimal_ratio_nonlinear(1.0, 0.025, lambda u: 0.1 * u * u)
        assert u == pytest.approx(0.5, abs=1e-6)

    def test_no_control_when_safe(self):
        assert spcp_optimal_ratio_nonlinear(0.9, 0.05, lambda u: 0.1 * u) == 0.0

    def test_saturates_when_infeasible(self):
        u = spcp_optimal_ratio_nonlinear(1.2, 0.1, lambda u: 0.1 * u, u_max=0.5)
        assert u == 0.5

    def test_constraint_satisfied_at_solution(self):
        f = lambda u: 0.08 * np.sqrt(u)
        p_t, e_t = 1.0, 0.02
        u = spcp_optimal_ratio_nonlinear(p_t, e_t, f)
        assert p_t + e_t - f(u) <= 1.0 + 1e-6
