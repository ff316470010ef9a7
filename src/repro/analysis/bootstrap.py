"""Bootstrap confidence intervals for the capacity metrics.

The paper reports point estimates of r_T and G_TPW per day; with the
simulator we can quantify their sampling uncertainty by resampling the
paired per-minute throughput series (paired, because both groups see the
same demand minute by minute -- resampling minutes keeps that coupling).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.analysis.metrics import gain_in_tpw


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided bootstrap percentile interval."""

    point: float
    low: float
    high: float
    confidence: float

    def __contains__(self, value: float) -> bool:
        return self.low <= value <= self.high

    @property
    def width(self) -> float:
        return self.high - self.low


def throughput_ratio_ci(
    per_minute_experiment: Sequence[int],
    per_minute_control: Sequence[int],
    n_resamples: int = 2000,
    confidence: float = 0.95,
    rng: Optional[np.random.Generator] = None,
) -> ConfidenceInterval:
    """Bootstrap CI for r_T from paired per-minute placement counts.

    Minutes are resampled jointly so the demand coupling between the
    groups is preserved.
    """
    experiment = np.asarray(per_minute_experiment, dtype=float)
    control = np.asarray(per_minute_control, dtype=float)
    if experiment.shape != control.shape:
        raise ValueError("paired series must have equal length")
    if experiment.size < 2:
        raise ValueError("need at least two minutes")
    if control.sum() <= 0:
        raise ValueError("control group accepted no jobs")
    rng = rng if rng is not None else np.random.default_rng(0)
    n = experiment.size
    ratios = np.empty(n_resamples)
    for i in range(n_resamples):
        idx = rng.integers(0, n, size=n)
        denom = control[idx].sum()
        ratios[i] = experiment[idx].sum() / denom if denom > 0 else np.nan
    ratios = ratios[~np.isnan(ratios)]
    alpha = (1.0 - confidence) / 2.0
    return ConfidenceInterval(
        point=float(experiment.sum() / control.sum()),
        low=float(np.percentile(ratios, 100 * alpha)),
        high=float(np.percentile(ratios, 100 * (1 - alpha))),
        confidence=confidence,
    )


def gtpw_ci(
    per_minute_experiment: Sequence[int],
    per_minute_control: Sequence[int],
    r_o: float,
    **kwargs,
) -> ConfidenceInterval:
    """Bootstrap CI for G_TPW = r_T * (1 + r_O) - 1 (Eq. 18)."""
    r_t = throughput_ratio_ci(per_minute_experiment, per_minute_control, **kwargs)
    return ConfidenceInterval(
        point=gain_in_tpw(r_t.point, r_o),
        low=gain_in_tpw(max(0.0, r_t.low), r_o),
        high=gain_in_tpw(r_t.high, r_o),
        confidence=r_t.confidence,
    )


__all__ = ["ConfidenceInterval", "throughput_ratio_ci", "gtpw_ci"]
