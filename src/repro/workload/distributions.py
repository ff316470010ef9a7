"""Statistical distributions calibrated to the paper's published workload.

Figure 7 of the paper gives the CDF of batch-job durations in the
production cluster: the mean is about 9 minutes, roughly 40% of jobs
finish within 2 minutes, and the CDF reaches ~1.0 at 50 minutes. A
clipped lognormal with ``sigma = 1.6`` and median ~3.5 minutes matches
those anchors (clipped mean 9.0 min, P(<=2 min) = 0.36); the calibration
is locked in by tests.

Draw-order contract: every trajectory is pinned by the order in which a
batch generator consumes its rng. Per candidate arrival it draws one
exponential (the thinning gap), then one uniform (acceptance); per
accepted job, one uniform (cores, ``ResourceDemandDistribution.sample``)
then one lognormal (duration, ``JobDurationDistribution.sample_one``).
Both scalar samplers use the bit stream exactly as
``rng.choice(choices, p=weights)`` and
``np.clip(rng.lognormal(mu, sigma, size=1) * 60, lo, hi)`` did.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

#: Lognormal parameters for job duration in MINUTES (see module docstring).
#: With mu = 1.25, sigma = 1.6 and the 50-minute clip, the clipped mean is
#: ~9.0 minutes and P(duration <= 2 min) ~ 0.36, matching Figure 7's
#: anchors (mean ~9 min, ~40% within 2 min, CDF reaching 1.0 at 50 min).
DURATION_LOG_MU_MINUTES = 1.25
DURATION_LOG_SIGMA = 1.6
DURATION_MAX_MINUTES = 50.0

#: Monte-Carlo clipped mean of the default distribution, used by the
#: arrival-rate calibration (Little's law).
DEFAULT_MEAN_DURATION_SECONDS = 540.0


@dataclass(frozen=True)
class JobDurationDistribution:
    """Truncated lognormal batch-job duration distribution (Figure 7).

    Durations are sampled in seconds. Samples above ``max_seconds`` are
    clipped, matching the paper's CDF reaching 1.0 at 50 minutes (long
    MapReduce stages are checkpoint-bounded in production).
    """

    log_mu_minutes: float = DURATION_LOG_MU_MINUTES
    log_sigma: float = DURATION_LOG_SIGMA
    max_seconds: float = DURATION_MAX_MINUTES * 60.0
    min_seconds: float = 5.0

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` durations in seconds."""
        minutes = rng.lognormal(self.log_mu_minutes, self.log_sigma, size=size)
        seconds = minutes * 60.0
        return np.clip(seconds, self.min_seconds, self.max_seconds)

    def sample_one(self, rng: np.random.Generator) -> float:
        """Draw one duration: the same value and rng use as ``sample(rng, 1)``."""
        seconds = rng.lognormal(self.log_mu_minutes, self.log_sigma) * 60.0
        return min(max(seconds, self.min_seconds), self.max_seconds)

    def cdf(self, seconds: float) -> float:
        """Analytic CDF of the (clipped) distribution."""
        if seconds < self.min_seconds:
            return 0.0
        if seconds >= self.max_seconds:
            return 1.0
        z = (math.log(seconds / 60.0) - self.log_mu_minutes) / self.log_sigma
        return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

    def mean_seconds(self, rng: np.random.Generator, n: int = 200_000) -> float:
        """Monte-Carlo mean of the clipped distribution."""
        return float(np.mean(self.sample(rng, n)))

    def mean_analytic(self) -> float:
        """Analytic clipped-lognormal mean in seconds.

        E[min(X, b)] for X ~ LN(mu, sigma) via the partial-expectation
        formula; the lower clip's effect is negligible for realistic
        minima and is ignored.
        """
        mu, sigma = self.log_mu_minutes, self.log_sigma
        b = self.max_seconds / 60.0
        z = (math.log(b) - mu) / sigma

        def phi(x: float) -> float:
            return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

        body = math.exp(mu + sigma * sigma / 2.0) * phi(z - sigma)
        tail = b * (1.0 - phi(z))
        return (body + tail) * 60.0


@dataclass(frozen=True)
class ResourceDemandDistribution:
    """Per-job CPU/memory demand.

    Default mix: mostly small one- or two-core tasks with a tail of
    four-core tasks, memory proportional to cores -- representative of the
    mixed MapReduce workload the paper describes. ``mean_cores`` is used by
    the load calibration helper.
    """

    core_choices: Tuple[float, ...] = (1.0, 2.0, 4.0)
    core_weights: Tuple[float, ...] = (0.50, 0.35, 0.15)
    memory_per_core_gb: float = 2.0

    def __post_init__(self) -> None:
        if len(self.core_choices) != len(self.core_weights):
            raise ValueError("core_choices and core_weights must have equal length")
        if any(w < 0 for w in self.core_weights):
            raise ValueError(f"core_weights must be non-negative, got {self.core_weights}")
        total = sum(self.core_weights)
        if not math.isclose(total, 1.0, rel_tol=1e-9):
            raise ValueError(f"core_weights must sum to 1.0, got {total}")
        # The CDF exactly as ``Generator.choice`` builds it on every call.
        cdf = np.asarray(self.core_weights, dtype=float).cumsum()
        cdf /= cdf[-1]
        object.__setattr__(self, "_cdf", cdf.tolist())
        object.__setattr__(self, "_choices", tuple(float(c) for c in self.core_choices))

    @property
    def mean_cores(self) -> float:
        return sum(c * w for c, w in zip(self.core_choices, self.core_weights))

    def sample(self, rng: np.random.Generator) -> Tuple[float, float]:
        """Draw one ``(cores, memory_gb)`` demand, exactly as
        ``rng.choice(core_choices, p=core_weights)`` would."""
        cores = self._choices[bisect_right(self._cdf, rng.random())]
        return cores, cores * self.memory_per_core_gb


def rate_for_target_utilization(
    n_servers: int,
    cores_per_server: int,
    target_utilization: float,
    demand: ResourceDemandDistribution = ResourceDemandDistribution(),
    mean_duration_seconds: float = DEFAULT_MEAN_DURATION_SECONDS,
) -> float:
    """Arrival rate (jobs/second) that drives mean core utilization to target.

    Little's law: offered core-seconds per second = rate * mean_cores *
    mean_duration; setting that equal to ``target * total_cores`` gives the
    rate. The default ``mean_duration_seconds`` is the clipped-lognormal
    mean of :class:`JobDurationDistribution` (~9 minutes).
    """
    if not 0.0 < target_utilization <= 1.0:
        raise ValueError(
            f"target_utilization must be in (0, 1], got {target_utilization}"
        )
    total_cores = n_servers * cores_per_server
    return target_utilization * total_cores / (demand.mean_cores * mean_duration_seconds)


def empirical_cdf(samples: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(sorted_values, cumulative_probabilities)`` for plotting."""
    values = np.sort(np.asarray(samples, dtype=float))
    if values.size == 0:
        raise ValueError("empirical_cdf requires at least one sample")
    probs = np.arange(1, values.size + 1) / values.size
    return values, probs


__all__ = [
    "JobDurationDistribution",
    "ResourceDemandDistribution",
    "rate_for_target_utilization",
    "empirical_cdf",
    "DURATION_LOG_MU_MINUTES",
    "DURATION_LOG_SIGMA",
    "DURATION_MAX_MINUTES",
    "DEFAULT_MEAN_DURATION_SECONDS",
]
