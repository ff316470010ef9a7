"""Tests for bootstrap confidence intervals."""

import numpy as np
import pytest

from repro.analysis.bootstrap import (
    ConfidenceInterval,
    gtpw_ci,
    throughput_ratio_ci,
)


class TestThroughputRatioCi:
    def test_point_estimate_is_total_ratio(self, rng):
        experiment = rng.poisson(90, size=500)
        control = rng.poisson(100, size=500)
        ci = throughput_ratio_ci(experiment, control, rng=rng)
        assert ci.point == pytest.approx(experiment.sum() / control.sum())
        assert 0.9 == pytest.approx(ci.point, abs=0.05)
        assert ci.low < ci.point < ci.high

    def test_identical_series_tight_around_one(self, rng):
        counts = rng.poisson(100, size=400)
        ci = throughput_ratio_ci(counts, counts, rng=rng)
        assert ci.point == 1.0
        assert ci.width < 1e-9  # paired resampling: ratio is exactly 1

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            throughput_ratio_ci([1, 2], [1, 2, 3], rng=rng)
        with pytest.raises(ValueError):
            throughput_ratio_ci([1, 2], [0, 0], rng=rng)


class TestGtpwCi:
    def test_transforms_ratio_interval(self, rng):
        experiment = rng.poisson(95, size=500)
        control = rng.poisson(100, size=500)
        ci = gtpw_ci(experiment, control, r_o=0.25, rng=np.random.default_rng(3))
        ratio = throughput_ratio_ci(
            experiment, control, rng=np.random.default_rng(3)
        )
        assert ci.point == pytest.approx(ratio.point * 1.25 - 1.0)
        assert ci.low <= ci.point <= ci.high


class TestContains:
    def test_membership(self):
        ci = ConfidenceInterval(0.5, 0.4, 0.6, 0.95)
        assert 0.5 in ci
        assert 0.39 not in ci
        assert ci.width == pytest.approx(0.2)
