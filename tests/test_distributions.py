"""Tests for the workload distributions (calibrated to Figure 7)."""

import numpy as np
import pytest

from repro.workload.distributions import (
    JobDurationDistribution,
    ResourceDemandDistribution,
    empirical_cdf,
    rate_for_target_utilization,
)


class TestJobDurations:
    def test_mean_matches_paper(self, rng):
        """Figure 7: average job duration is about 9 minutes."""
        dist = JobDurationDistribution()
        mean_minutes = dist.mean_seconds(rng) / 60.0
        assert 8.2 <= mean_minutes <= 9.8

    def test_forty_percent_under_two_minutes(self, rng):
        """Figure 7: ~40% of jobs finish within 2 minutes."""
        dist = JobDurationDistribution()
        samples = dist.sample(rng, 100_000)
        fraction = np.mean(samples <= 120.0)
        assert 0.31 <= fraction <= 0.43

    def test_clipped_at_fifty_minutes(self, rng):
        dist = JobDurationDistribution()
        samples = dist.sample(rng, 100_000)
        assert samples.max() <= 50.0 * 60.0
        assert samples.min() >= dist.min_seconds

    def test_cdf_anchors(self):
        dist = JobDurationDistribution()
        assert dist.cdf(0.0) == 0.0
        assert dist.cdf(50 * 60.0) == 1.0
        assert 0.31 <= dist.cdf(120.0) <= 0.43
        assert dist.cdf(600.0) > dist.cdf(120.0)

    def test_cdf_monotonic(self):
        dist = JobDurationDistribution()
        points = [dist.cdf(x) for x in np.linspace(5, 3000, 100)]
        assert points == sorted(points)

    def test_sample_one(self, rng):
        dist = JobDurationDistribution()
        value = dist.sample_one(rng)
        assert dist.min_seconds <= value <= dist.max_seconds


class TestResourceDemand:
    def test_mean_cores(self):
        demand = ResourceDemandDistribution()
        assert demand.mean_cores == pytest.approx(
            1.0 * 0.5 + 2.0 * 0.35 + 4.0 * 0.15
        )

    def test_sample_in_choices(self, rng):
        demand = ResourceDemandDistribution()
        for _ in range(100):
            cores, memory = demand.sample(rng)
            assert cores in demand.core_choices
            assert memory == cores * demand.memory_per_core_gb

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ResourceDemandDistribution(core_weights=(0.5, 0.3, 0.1))

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            ResourceDemandDistribution(core_choices=(1.0, 2.0), core_weights=(1.0,))

    def test_negative_weights_rejected_at_build(self):
        # numpy's choice() used to reject these on every draw.
        with pytest.raises(ValueError, match="non-negative"):
            ResourceDemandDistribution(core_weights=(1.2, -0.2, 0.0))

    def test_empirical_mean_matches(self, rng):
        demand = ResourceDemandDistribution()
        samples = [demand.sample(rng)[0] for _ in range(20_000)]
        assert np.mean(samples) == pytest.approx(demand.mean_cores, rel=0.05)


DRAWS = 100_000


def assert_same_stream(reference, fast, seed=2024):
    """``fast`` yields the values ``reference`` does, leaving the rng where it does."""
    expected_rng = np.random.default_rng(seed)
    actual_rng = np.random.default_rng(seed)
    expected = [reference(expected_rng) for _ in range(DRAWS)]
    actual = [fast(actual_rng) for _ in range(DRAWS)]
    assert actual == expected
    assert actual_rng.bit_generator.state == expected_rng.bit_generator.state


class TestDrawExact:
    """The scalar samplers consume the bit stream exactly as numpy's calls did."""

    @pytest.mark.parametrize(
        "choices, weights",
        [
            ((1.0, 2.0, 4.0), (0.50, 0.35, 0.15)),
            ((1.0, 2.0, 4.0), (0.1, 0.2, 0.7)),
            ((0.5, 1.0, 2.0, 8.0), (0.3, 0.0, 0.45, 0.25)),
        ],
    )
    def test_demand_matches_rng_choice(self, choices, weights):
        demand = ResourceDemandDistribution(core_choices=choices, core_weights=weights)

        def reference(rng):
            cores = float(rng.choice(choices, p=weights))
            return cores, cores * demand.memory_per_core_gb

        assert_same_stream(reference, demand.sample)

    @pytest.mark.parametrize(
        "dist",
        [
            JobDurationDistribution(),
            # Both clips active: short median, wide spread, tight bounds.
            JobDurationDistribution(
                log_mu_minutes=0.0, log_sigma=2.5, max_seconds=600.0, min_seconds=30.0
            ),
        ],
    )
    def test_duration_matches_clipped_lognormal(self, dist):
        def reference(rng):
            seconds = rng.lognormal(dist.log_mu_minutes, dist.log_sigma, size=1) * 60
            return float(np.clip(seconds, dist.min_seconds, dist.max_seconds)[0])

        assert_same_stream(reference, dist.sample_one)


class TestRateCalibration:
    def test_littles_law_round_trip(self, rng):
        """The computed rate actually produces the target utilization."""
        demand = ResourceDemandDistribution()
        duration = JobDurationDistribution()
        mean_duration = duration.mean_seconds(rng)
        rate = rate_for_target_utilization(
            100, 16, 0.3, demand=demand, mean_duration_seconds=mean_duration
        )
        offered_core_seconds = rate * demand.mean_cores * mean_duration
        assert offered_core_seconds / (100 * 16) == pytest.approx(0.3)

    def test_rate_scales_linearly(self):
        low = rate_for_target_utilization(100, 16, 0.1)
        high = rate_for_target_utilization(100, 16, 0.2)
        assert high == pytest.approx(2 * low)

    @pytest.mark.parametrize("target", [0.0, 1.1])
    def test_invalid_target(self, target):
        with pytest.raises(ValueError):
            rate_for_target_utilization(100, 16, target)


class TestEmpiricalCdf:
    def test_sorted_output(self):
        values, probs = empirical_cdf([3.0, 1.0, 2.0])
        assert values.tolist() == [1.0, 2.0, 3.0]
        assert probs.tolist() == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            empirical_cdf([])
