"""Tests for Algorithm 1's freeze-set selection (plan_freeze_set)."""

import numpy as np
import pytest

from repro.core.policy import plan_freeze_set
from tests.conftest import plan_ids


def powers(n, base=100.0, step=10.0):
    """Server id i draws base + i*step watts (higher id = hotter)."""
    return {i: base + i * step for i in range(n)}


def plan(server_powers, n_freeze, currently_frozen, r_stable=0.8):
    return plan_ids(plan_freeze_set, server_powers, n_freeze, currently_frozen, r_stable)


class TestBasicSelection:
    def test_freezes_hottest_servers(self):
        assert plan(powers(10), n_freeze=3, currently_frozen=set()) == {7, 8, 9}

    def test_zero_target_unfreezes_all(self):
        assert plan(powers(5), n_freeze=0, currently_frozen={1, 2}) == set()

    def test_target_larger_than_row_clamped(self):
        assert plan(powers(4), n_freeze=10, currently_frozen=set()) == {0, 1, 2, 3}

    def test_plan_sizes_consistent(self):
        planned = plan(powers(10), n_freeze=4, currently_frozen={0, 9})
        assert len(planned) == 4
        assert 9 in planned and 0 not in planned

    def test_noop_when_already_correct(self):
        assert plan(powers(10), n_freeze=2, currently_frozen={8, 9}) == {8, 9}

    def test_plan_is_a_mask_in_member_order(self):
        ids = np.array([5, 3, 9])
        mask = plan_freeze_set(
            np.array([10.0, 30.0, 20.0]), ids, 2, np.zeros(3, dtype=bool)
        )
        assert mask.tolist() == [False, True, True]


class TestStability:
    def test_frozen_server_in_band_is_kept(self):
        """A frozen server slightly colder than the top-N is kept (r_stable)."""
        server_powers = {0: 100.0, 1: 96.0, 2: 99.0, 3: 50.0}
        # Top-1 is server 0; server 1 is within 0.8 * 100 and stays frozen.
        assert plan(server_powers, 1, currently_frozen={1}, r_stable=0.8) == {1}

    def test_frozen_server_below_band_is_swapped(self):
        server_powers = {0: 100.0, 1: 70.0, 2: 99.0, 3: 50.0}
        # 0.8 * 100 = 80 > 70: server 1 fell out of the band.
        assert plan(server_powers, 1, currently_frozen={1}, r_stable=0.8) == {0}

    def test_surplus_releases_coldest(self):
        assert plan(powers(10), n_freeze=2, currently_frozen={7, 8, 9}) == {8, 9}

    def test_tight_band_with_r_stable_one(self):
        server_powers = {0: 100.0, 1: 99.9, 2: 50.0}
        # Band is (>100): server 1 at 99.9 falls out, hottest takes over.
        assert plan(server_powers, 1, currently_frozen={1}, r_stable=1.0) == {0}


class TestValidation:
    def test_negative_target_raises(self):
        with pytest.raises(ValueError):
            plan(powers(3), -1, set())

    @pytest.mark.parametrize("r_stable", [0.0, 1.5])
    def test_invalid_r_stable(self, r_stable):
        with pytest.raises(ValueError):
            plan(powers(3), 1, set(), r_stable=r_stable)

    def test_deterministic_on_ties(self):
        server_powers = {i: 100.0 for i in range(6)}
        plan_a = plan(server_powers, 3, set())
        plan_b = plan(server_powers, 3, set())
        assert plan_a == plan_b
        assert plan_a == {0, 1, 2}  # tie-break by id
