"""The freeze-effect model f(u): how freezing reduces row power.

Section 3.4 of the paper identifies f(u) empirically: run a controlled
experiment where the experiment group is frozen at ratio ``u`` for one
interval, and record the power gap that opens against the (statistically
identical) control group, ``f(u_t) = P^C_{t+1} - P^E_{t+1}`` normalized to
the budget. Figure 5 shows the 25th/50th/75th percentiles of those samples
by ``u``; the median is close to linear, ``f(u) = k_r * u``, which is what
lets the RHC reduce to the closed-form SPCP.

This module provides the sample store, the through-the-origin least-squares
fit for ``k_r``, and the binned percentile summary that regenerates
Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Default slope of f(u) = k_r * u, calibrated on this repository's
#: simulator via the Figure 5 experiment (``ampere-repro calibrate`` runs
#: it). Normalized power reduction per unit freezing ratio per
#: one-minute interval. The paper's production fit is larger (~0.1-0.2)
#: because its job churn is faster; only the feedback loop's gain depends
#: on it, and RHC absorbs the difference.
DEFAULT_K_R = 0.02


@dataclass(frozen=True)
class FreezeEffectSample:
    """One observation: freezing ratio applied, power gap observed."""

    u: float
    effect: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.u <= 1.0:
            raise ValueError(f"freezing ratio must be in [0, 1], got {self.u}")


class FreezeEffectModel:
    """Data-driven model of the freeze effect, f(u) ~= k_r * u.

    The model tolerates the high per-sample variance the paper reports
    ("we observe high variations on the effects of the control input"):
    the RHC loop corrects residual error every interval, so only the slope
    needs to be roughly right.
    """

    def __init__(self, k_r: float = DEFAULT_K_R) -> None:
        if k_r <= 0:
            raise ValueError(f"k_r must be positive, got {k_r}")
        self._k_r = k_r
        self._samples: List[FreezeEffectSample] = []

    @property
    def k_r(self) -> float:
        """Current slope estimate."""
        return self._k_r

    @property
    def sample_count(self) -> int:
        return len(self._samples)

    def predict(self, u: float) -> float:
        """Predicted normalized power reduction for freezing ratio ``u``."""
        if not 0.0 <= u <= 1.0:
            raise ValueError(f"freezing ratio must be in [0, 1], got {u}")
        return self._k_r * u

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def add_sample(self, u: float, effect: float) -> None:
        """Record one ``(u, f(u))`` observation from a controlled run."""
        self._samples.append(FreezeEffectSample(u, effect))

    def add_samples(self, pairs: Sequence[Tuple[float, float]]) -> None:
        for u, effect in pairs:
            self.add_sample(u, effect)

    def fit(self, min_samples: int = 10) -> float:
        """Refit ``k_r`` by least squares through the origin.

        ``k_r = sum(u_i * f_i) / sum(u_i^2)`` over samples with ``u > 0``.
        Keeps the previous slope when there is too little data or the fit
        would be non-positive (a controller must never divide by a
        non-positive slope).
        """
        informative = [s for s in self._samples if s.u > 0]
        if len(informative) < min_samples:
            return self._k_r
        u = np.array([s.u for s in informative])
        effect = np.array([s.effect for s in informative])
        slope = float(np.dot(u, effect) / np.dot(u, u))
        if slope > 0:
            self._k_r = slope
        return self._k_r

    # ------------------------------------------------------------------
    # Figure 5 summary
    # ------------------------------------------------------------------
    def binned_percentiles(
        self,
        bin_width: float = 0.1,
        percentiles: Sequence[float] = (25.0, 50.0, 75.0),
    ) -> Dict[float, Dict[float, float]]:
        """Percentiles of observed f(u) per freezing-ratio bin.

        Returns ``{bin_center: {percentile: value}}`` -- the data behind
        Figure 5. Empty bins are omitted.
        """
        if bin_width <= 0:
            raise ValueError(f"bin_width must be positive, got {bin_width}")
        bins: Dict[float, List[float]] = {}
        for sample in self._samples:
            center = (int(sample.u / bin_width) + 0.5) * bin_width
            bins.setdefault(round(center, 10), []).append(sample.effect)
        summary: Dict[float, Dict[float, float]] = {}
        for center in sorted(bins):
            values = np.asarray(bins[center])
            summary[center] = {
                p: float(np.percentile(values, p)) for p in percentiles
            }
        return summary


__all__ = ["FreezeEffectModel", "FreezeEffectSample", "DEFAULT_K_R"]
