"""Tests for the over-provisioning advisor (Section 4.4 reasoning)."""

import numpy as np
import pytest

from repro.core.advisor import (
    assess_ratio,
    recommend_over_provision_ratio,
)


def history(mean=0.70, std=0.02, n=5000, rng=None):
    rng = rng if rng is not None else np.random.default_rng(0)
    return np.clip(rng.normal(mean, std, size=n), 0.0, 1.5)


class TestAssessRatio:
    def test_scaling_math(self):
        samples = np.full(1000, 0.8)
        assessment = assess_ratio(samples, 0.25)
        assert assessment.scaled_percentile_power == pytest.approx(1.0)
        assert assessment.fraction_time_over_budget == 0.0
        assert assessment.fraction_time_over_threshold == 1.0  # 1.0 > 0.975
        assert assessment.expected_min_gain == pytest.approx(0.0)

    def test_idle_history_gives_full_gain(self):
        samples = np.full(1000, 0.70)
        assessment = assess_ratio(samples, 0.17)
        assert assessment.fraction_time_over_threshold == 0.0
        assert assessment.expected_min_gain == pytest.approx(0.17)

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError):
            assess_ratio(history(), -0.1)


class TestRecommendation:
    def test_low_power_history_supports_large_ratio(self):
        advice = recommend_over_provision_ratio(history(mean=0.65, std=0.01))
        assert advice.recommended_ratio == 0.25

    def test_hot_history_forces_small_ratio(self):
        advice = recommend_over_provision_ratio(history(mean=0.84, std=0.01))
        assert advice.recommended_ratio == 0.13

    def test_paper_like_history_picks_middle(self):
        """A history whose 95th percentile sits near the paper's 0.924/1.17
        lands on the paper's choice region (0.17-0.21)."""
        advice = recommend_over_provision_ratio(history(mean=0.77, std=0.015))
        assert advice.recommended_ratio in (0.17, 0.21)

    def test_assessments_cover_all_candidates(self):
        advice = recommend_over_provision_ratio(history(), candidate_ratios=(0.1, 0.2))
        assert {a.ratio for a in advice.assessments} == {0.1, 0.2}

    def test_larger_ratio_never_safer(self):
        advice = recommend_over_provision_ratio(history(mean=0.78))
        over = [a.fraction_time_over_budget for a in advice.assessments]
        assert over == sorted(over)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"candidate_ratios": ()},
            {"percentile_headroom": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            recommend_over_provision_ratio(history(), **kwargs)

    def test_short_history_rejected(self):
        with pytest.raises(ValueError, match="history"):
            recommend_over_provision_ratio([0.7] * 10)

    def test_end_to_end_with_simulated_history(self):
        """Feed the advisor a real simulated history and check the chosen
        ratio survives a controlled experiment without violations."""
        from repro.sim.experiment import ControlledExperiment, ExperimentConfig
        from repro.sim.testbed import WorkloadSpec

        base = ControlledExperiment(
            ExperimentConfig(
                n_servers=80,
                duration_hours=3.0,
                warmup_hours=0.5,
                over_provision_ratio=0.0,
                ampere_enabled=False,
                workload=WorkloadSpec(target_utilization=0.17, modulation_sigma=0.05),
                seed=4,
            )
        ).run()
        advice = recommend_over_provision_ratio(base.control.normalized_power)
        assert 0.13 <= advice.recommended_ratio <= 0.25

        check = ControlledExperiment(
            ExperimentConfig(
                n_servers=80,
                duration_hours=3.0,
                warmup_hours=0.5,
                over_provision_ratio=advice.recommended_ratio,
                workload=WorkloadSpec(target_utilization=0.17, modulation_sigma=0.05),
                seed=5,
            )
        ).run()
        assert check.experiment.summary.violations == 0
