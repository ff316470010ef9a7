"""Batch workload generation: arrival-rate profiles and the generator process.

Arrivals follow a non-homogeneous Poisson process realized by thinning.
Rate profiles compose a deterministic shape (constant or diurnal) with an
optional mean-reverting AR(1) modulation that reproduces the minute-scale
spikes and valleys of Figure 8 / Figure 9: smooth on the hour scale, with
occasional several-percent power jumps within a single minute.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

import numpy as np

from repro.sim.engine import Engine
from repro.sim.events import EventPriority
from repro.workload.distributions import (
    JobDurationDistribution,
    ResourceDemandDistribution,
)
from repro.workload.job import Job

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scheduler.base import SchedulerInterface

SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0


class RateProfile:
    """Interface: instantaneous arrival rate in jobs/second at time ``t``."""

    def rate(self, t: float) -> float:
        raise NotImplementedError

    @property
    def max_rate(self) -> float:
        """An upper bound on ``rate`` over all t, used for Poisson thinning."""
        raise NotImplementedError


class ConstantRateProfile(RateProfile):
    """Fixed arrival rate."""

    def __init__(self, jobs_per_second: float) -> None:
        if jobs_per_second < 0:
            raise ValueError(f"rate must be non-negative, got {jobs_per_second}")
        self._rate = jobs_per_second

    def rate(self, t: float) -> float:
        return self._rate

    @property
    def max_rate(self) -> float:
        return self._rate


class DiurnalRateProfile(RateProfile):
    """Sinusoidal day/night swing around a base rate (Figure 8's hour scale).

    ``rate(t) = base * (1 + amplitude * sin(2*pi*(t - phase)/period))``.
    """

    def __init__(
        self,
        base_jobs_per_second: float,
        amplitude: float = 0.15,
        period_seconds: float = SECONDS_PER_DAY,
        phase_seconds: float = 0.0,
    ) -> None:
        if base_jobs_per_second < 0:
            raise ValueError(f"base rate must be non-negative, got {base_jobs_per_second}")
        if not 0.0 <= amplitude < 1.0:
            raise ValueError(f"amplitude must be in [0, 1), got {amplitude}")
        if period_seconds <= 0:
            raise ValueError(f"period must be positive, got {period_seconds}")
        self.base = base_jobs_per_second
        self.amplitude = amplitude
        self.period = period_seconds
        self.phase = phase_seconds

    def rate(self, t: float) -> float:
        swing = self.amplitude * math.sin(2.0 * math.pi * (t - self.phase) / self.period)
        return self.base * (1.0 + swing)

    @property
    def max_rate(self) -> float:
        return self.base * (1.0 + self.amplitude)


class ModulatedRateProfile(RateProfile):
    """A base profile multiplied by mean-reverting AR(1) noise.

    The multiplier is piecewise-constant on a grid of ``step_seconds`` and
    follows ``x_{k+1} = 1 + rho * (x_k - 1) + sigma * eps_k`` clipped to
    ``[floor, ceil]``. The grid is pre-generated from an explicit seed so a
    profile is a pure, reproducible function of time -- two groups reading
    the same profile see identical demand, which the controlled-experiment
    harness relies on.
    """

    def __init__(
        self,
        base: RateProfile,
        horizon_seconds: float,
        seed: int,
        step_seconds: float = 120.0,
        rho: float = 0.85,
        sigma: float = 0.06,
        floor: float = 0.55,
        ceil: float = 1.45,
    ) -> None:
        if horizon_seconds <= 0:
            raise ValueError(f"horizon must be positive, got {horizon_seconds}")
        if step_seconds <= 0:
            raise ValueError(f"step must be positive, got {step_seconds}")
        if not 0.0 <= rho < 1.0:
            raise ValueError(f"rho must be in [0, 1), got {rho}")
        if floor <= 0 or ceil < floor:
            raise ValueError(f"invalid clip range [{floor}, {ceil}]")
        self.base = base
        self.step = step_seconds
        self.floor = floor
        self.ceil = ceil
        rng = np.random.default_rng(seed)
        n_steps = int(math.ceil(horizon_seconds / step_seconds)) + 2
        multipliers: List[float] = []
        x = 1.0
        for _ in range(n_steps):
            x = 1.0 + rho * (x - 1.0) + sigma * rng.standard_normal()
            multipliers.append(float(min(ceil, max(floor, x))))
        self._multipliers = multipliers

    def rate(self, t: float) -> float:
        index = min(len(self._multipliers) - 1, max(0, int(t / self.step)))
        return self.base.rate(t) * self._multipliers[index]

    @property
    def max_rate(self) -> float:
        return self.base.max_rate * self.ceil


class BurstyRateProfile(RateProfile):
    """A base profile with randomly timed multiplicative bursts.

    Production row power shows occasional sharp excursions on top of the
    diurnal swing (Figure 8, Figure 10a): a product launches a backfill,
    a pipeline re-runs. Bursts arrive as a Poisson process with
    exponential durations; inside a burst the rate is multiplied by
    ``burst_factor``. Burst windows are pre-generated from the seed, so
    the profile is a pure function of time.
    """

    def __init__(
        self,
        base: RateProfile,
        horizon_seconds: float,
        seed: int,
        bursts_per_day: float = 4.0,
        burst_factor: float = 2.0,
        mean_burst_seconds: float = 1800.0,
    ) -> None:
        if horizon_seconds <= 0:
            raise ValueError(f"horizon must be positive, got {horizon_seconds}")
        if bursts_per_day < 0:
            raise ValueError(f"bursts_per_day must be non-negative, got {bursts_per_day}")
        if burst_factor < 1.0:
            raise ValueError(f"burst_factor must be >= 1.0, got {burst_factor}")
        if mean_burst_seconds <= 0:
            raise ValueError(f"mean_burst_seconds must be positive, got {mean_burst_seconds}")
        self.base = base
        self.burst_factor = burst_factor
        rng = np.random.default_rng(seed)
        windows: List[tuple] = []
        if bursts_per_day > 0:
            t = 0.0
            mean_gap = SECONDS_PER_DAY / bursts_per_day
            while True:
                t += rng.exponential(mean_gap)
                if t >= horizon_seconds:
                    break
                windows.append((t, t + rng.exponential(mean_burst_seconds)))
        self._windows = [(float(start), float(end)) for start, end in windows]

    def rate(self, t: float) -> float:
        base_rate = self.base.rate(t)
        # A handful of windows per day: a plain scan beats array compares.
        for start, end in self._windows:
            if start <= t < end:
                return base_rate * self.burst_factor
        return base_rate

    @property
    def max_rate(self) -> float:
        return self.base.max_rate * (self.burst_factor if self._windows else 1.0)

    def burst_windows(self) -> List[tuple]:
        """The generated ``(start, end)`` burst windows (for inspection)."""
        return list(self._windows)


class ScaledRateProfile(RateProfile):
    """A base profile multiplied by a constant factor.

    Used to carve one row-level demand curve into per-tenant slices:
    each tenant's generator reads the *same* shaped profile scaled by
    its share, so the sum of tenant arrivals reproduces the untenanted
    rate exactly and per-tenant demand stays a pure function of time.
    """

    def __init__(self, base: RateProfile, factor: float) -> None:
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        self.base = base
        self.factor = float(factor)

    def rate(self, t: float) -> float:
        return self.base.rate(t) * self.factor

    @property
    def max_rate(self) -> float:
        return self.base.max_rate * self.factor


class SurgeRateProfile(RateProfile):
    """Declared multiplicative step windows on top of a base profile.

    Unlike :class:`BurstyRateProfile` (random bursts drawn from a seed),
    the windows here are *scheduled*: the fault plane injects a demand
    surge at a known instant (a launch, a retry storm) so chaos runs can
    assert on exactly when the hazard was active. Windows are pure
    functions of time; overlapping windows are rejected upstream
    (scenario validation), so ``max_rate`` is exact.
    """

    def __init__(
        self,
        base: RateProfile,
        windows: Sequence[tuple],
    ) -> None:
        self.base = base
        self.windows = tuple(
            (float(s), float(d), float(f)) for s, d, f in windows
        )
        for start, duration, factor in self.windows:
            if start < 0 or duration <= 0 or factor <= 0:
                raise ValueError(
                    "surge windows need start >= 0, duration > 0, factor > 0, "
                    f"got ({start}, {duration}, {factor})"
                )

    def rate(self, t: float) -> float:
        rate = self.base.rate(t)
        for start, duration, factor in self.windows:
            if start <= t < start + duration:
                rate *= factor
        return rate

    @property
    def max_rate(self) -> float:
        peak = max((f for _, _, f in self.windows), default=1.0)
        return self.base.max_rate * max(peak, 1.0)


class BatchWorkloadGenerator:
    """Simulation process that submits batch jobs to the scheduler.

    Parameters
    ----------
    engine / scheduler:
        Simulation engine and the scheduler receiving jobs.
    rate_profile:
        Arrival intensity over time.
    rng:
        Explicit random generator -- all stochasticity is seeded.
    duration / demand:
        Job duration and resource-demand distributions.
    product / allowed_rows:
        Tag and optional row affinity attached to every generated job
        (drives the spatial imbalance of Figure 2 in multi-row setups).
    job_id_offset:
        First job id; lets several generators coexist without collisions.
    tenant:
        Tenant name stamped on every generated job (``None`` when
        multi-tenancy is off).
    """

    def __init__(
        self,
        engine: Engine,
        scheduler: "SchedulerInterface",
        rate_profile: RateProfile,
        rng: np.random.Generator,
        duration: JobDurationDistribution = JobDurationDistribution(),
        demand: ResourceDemandDistribution = ResourceDemandDistribution(),
        product: str = "batch",
        allowed_rows: Optional[Sequence[int]] = None,
        job_id_offset: int = 0,
        tenant: Optional[str] = None,
    ) -> None:
        self.engine = engine
        self.scheduler = scheduler
        self.rate_profile = rate_profile
        self.rng = rng
        self.duration = duration
        self.demand = demand
        self.product = product
        self.allowed_rows = frozenset(allowed_rows) if allowed_rows is not None else None
        self.tenant = tenant
        self._next_job_id = job_id_offset
        self._until: Optional[float] = None
        self._max_rate = 0.0
        self.jobs_generated = 0
        #: optional observers called with each generated Job
        self.listeners: List[Callable[[Job], None]] = []

    def start(self, until: float) -> None:
        """Begin generating arrivals until simulated time ``until``."""
        # Profiles are pure functions of time: read the bound once.
        self._max_rate = self.rate_profile.max_rate
        if self._max_rate <= 0:
            return
        self._until = until
        self._schedule_next_candidate()

    # ------------------------------------------------------------------
    def _schedule_next_candidate(self) -> None:
        """Thinning step: candidate arrivals come at the max rate."""
        gap = self.rng.exponential(1.0 / self._max_rate)
        t = self.engine.now + gap
        if self._until is not None and t >= self._until:
            return
        self.engine.schedule(t, EventPriority.JOB_ARRIVAL, self._candidate_arrival)

    def _candidate_arrival(self) -> None:
        now = self.engine.now
        accept_probability = self.rate_profile.rate(now) / self._max_rate
        if self.rng.random() < accept_probability:
            self._emit_job(now)
        self._schedule_next_candidate()

    def _emit_job(self, now: float) -> None:
        cores, memory_gb = self.demand.sample(self.rng)
        job = Job(
            job_id=self._next_job_id,
            work_seconds=self.duration.sample_one(self.rng),
            cores=cores,
            memory_gb=memory_gb,
            arrival_time=now,
            product=self.product,
            allowed_rows=self.allowed_rows,
            tenant=self.tenant,
        )
        self._next_job_id += 1
        self.jobs_generated += 1
        for listener in self.listeners:
            listener(job)
        self.scheduler.submit(job)


__all__ = [
    "RateProfile",
    "ConstantRateProfile",
    "DiurnalRateProfile",
    "ModulatedRateProfile",
    "BurstyRateProfile",
    "ScaledRateProfile",
    "SurgeRateProfile",
    "BatchWorkloadGenerator",
    "SECONDS_PER_HOUR",
    "SECONDS_PER_DAY",
]
