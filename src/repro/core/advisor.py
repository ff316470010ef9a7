"""Choosing the over-provisioning ratio from power history (Section 4.4).

The paper picks its production ratio from monitoring data: "From our
observation over a month, the 85th and the 95th percentile power is
0.909 and 0.924 (scaled to match r_O), which means most of the time
G_TPW will be at least 15%. ... In conclusion, we choose 0.17 as our
over-provisioning ratio considering safety, G_TPW and efficiency."

This module is that reasoning as a function. Given a power history
recorded under rated-power provisioning (r_O = 0), scaling the budget by
``1/(1 + r_O)`` multiplies every normalized sample by ``(1 + r_O)``, so:

- *safety*: the fraction of time the scaled power would exceed the
  budget is the upper tail of the history above ``1/(1 + r_O)``;
- *gain*: whenever scaled power stays below the control threshold,
  r_T ~ 1 and G_TPW ~ r_O.

The advisor picks the largest candidate ratio whose scaled
``target_percentile`` power still leaves the configured head-room.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class RatioAssessment:
    """How one candidate ratio looks against the history."""

    ratio: float
    scaled_percentile_power: float
    fraction_time_over_threshold: float
    fraction_time_over_budget: float
    expected_min_gain: float

    def is_safe(self, max_fraction_over_budget: float) -> bool:
        return self.fraction_time_over_budget <= max_fraction_over_budget


@dataclass(frozen=True)
class ProvisioningAdvice:
    """The advisor's output: the chosen ratio plus the full assessment."""

    recommended_ratio: float
    assessments: Tuple[RatioAssessment, ...]


def assess_ratio(
    normalized_power_history: np.ndarray,
    ratio: float,
    target_percentile: float = 95.0,
    control_threshold: float = 0.975,
) -> RatioAssessment:
    """Evaluate one candidate r_O against a rated-provisioning history."""
    if ratio < 0:
        raise ValueError(f"ratio must be non-negative, got {ratio}")
    scaled = normalized_power_history * (1.0 + ratio)
    percentile_power = float(np.percentile(scaled, target_percentile))
    over_threshold = float(np.mean(scaled > control_threshold))
    over_budget = float(np.mean(scaled > 1.0))
    # While under the threshold the controller is idle, r_T ~ 1 and the
    # gain is the full r_O; the paper's "most of the time G_TPW will be at
    # least" number is the gain discounted by the time spent controlled.
    expected_min_gain = (1.0 - over_threshold) * ratio
    return RatioAssessment(
        ratio=ratio,
        scaled_percentile_power=percentile_power,
        fraction_time_over_threshold=over_threshold,
        fraction_time_over_budget=over_budget,
        expected_min_gain=expected_min_gain,
    )


def recommend_over_provision_ratio(
    normalized_power_history: Sequence[float],
    candidate_ratios: Sequence[float] = (0.13, 0.17, 0.21, 0.25),
    target_percentile: float = 95.0,
    percentile_headroom: float = 0.97,
    max_fraction_over_budget: float = 0.002,
    control_threshold: float = 0.975,
) -> ProvisioningAdvice:
    """Pick the largest safe candidate r_O for this power history.

    A candidate is *safe* when (a) its scaled ``target_percentile`` power
    stays below ``percentile_headroom`` (the paper's "85th/95th percentile
    power is 0.909/0.924" check) and (b) the scaled history exceeds the
    budget at most ``max_fraction_over_budget`` of the time. Among safe
    candidates the largest ratio wins (gain is upper-bounded by r_O);
    if none is safe, the smallest candidate is returned as the
    conservative fallback.
    """
    history = np.asarray(normalized_power_history, dtype=float)
    if history.size < 100:
        raise ValueError(
            f"need a meaningful history (>= 100 samples), got {history.size}"
        )
    if not candidate_ratios:
        raise ValueError("need at least one candidate ratio")
    if not 0.0 < percentile_headroom <= 1.0:
        raise ValueError(
            f"percentile_headroom must be in (0, 1], got {percentile_headroom}"
        )
    assessments: List[RatioAssessment] = [
        assess_ratio(history, r, target_percentile, control_threshold)
        for r in sorted(candidate_ratios)
    ]
    safe = [
        a
        for a in assessments
        if a.scaled_percentile_power <= percentile_headroom
        and a.is_safe(max_fraction_over_budget)
    ]
    chosen = safe[-1].ratio if safe else min(candidate_ratios)
    return ProvisioningAdvice(
        recommended_ratio=chosen, assessments=tuple(assessments)
    )


__all__ = [
    "RatioAssessment",
    "ProvisioningAdvice",
    "assess_ratio",
    "recommend_over_provision_ratio",
]
