"""Batch workload generation: arrival-rate profiles and the generator process.

Arrivals follow a non-homogeneous Poisson process realized by thinning,
drawn one minute of the absolute time grid at a time by an
:class:`ArrivalStream`: one engine arrival-queue entry per accepted job,
none per rejected candidate.
Rate profiles compose a deterministic shape (diurnal) with an optional
mean-reverting AR(1) modulation that reproduces the minute-scale spikes
and valleys of Figure 8 / Figure 9: smooth on the hour scale, with
occasional several-percent power jumps within a single minute. Each
profile evaluates a whole array of instants in one call
(:meth:`RateProfile.rates`).
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

#: Arrivals are drawn one window of this absolute grid at a time.
ARRIVAL_WINDOW_SECONDS = 60.0


class RateProfile:
    """Interface: arrival rate in jobs/second as a pure function of time."""

    def rates(self, times: np.ndarray) -> np.ndarray:
        """The rate at each instant of ``times`` (seconds), elementwise."""
        raise NotImplementedError

    def rate(self, t: float) -> float:
        """The rate at one instant: a scalar view of :meth:`rates`."""
        return float(self.rates(np.array([t], dtype=float))[0])

    @property
    def max_rate(self) -> float:
        """An upper bound on ``rate`` over all t, used for Poisson thinning."""
        raise NotImplementedError


class DiurnalRateProfile(RateProfile):
    """Sinusoidal day/night swing around a base rate (Figure 8's hour scale).

    ``rate(t) = base * (1 + amplitude * sin(2*pi*(t - phase)/period))``;
    ``amplitude=0.0`` is a constant rate.
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

    def rates(self, times: np.ndarray) -> np.ndarray:
        swing = self.amplitude * np.sin(2.0 * math.pi * (times - self.phase) / self.period)
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
    harness relies on. Instants before the grid read its first step and
    instants past it its last.
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
        self._multipliers = np.array(multipliers)

    def rates(self, times: np.ndarray) -> np.ndarray:
        # Truncating toward zero, then clamping: int(t / step) per element.
        index = (times / self.step).astype(np.intp)
        np.clip(index, 0, len(self._multipliers) - 1, out=index)
        return self.base.rates(times) * self._multipliers[index]

    @property
    def max_rate(self) -> float:
        return self.base.max_rate * self.ceil


class BurstyRateProfile(RateProfile):
    """A base profile with randomly timed multiplicative bursts.

    Production row power shows occasional sharp excursions on top of the
    diurnal swing (Figure 8, Figure 10a): a product launches a backfill,
    a pipeline re-runs. Bursts arrive as a Poisson process with
    exponential durations; inside a burst the rate is multiplied by
    ``burst_factor`` (once, however many bursts overlap). Burst windows
    are pre-generated from the seed, so the profile is a pure function of
    time.
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
        # Starts ascend, so t is inside a burst exactly when the furthest
        # end among the windows started by t lies beyond it.
        self._starts = np.array([start for start, _ in self._windows])
        self._reach = np.maximum.accumulate([end for _, end in self._windows] or [0.0])

    def rates(self, times: np.ndarray) -> np.ndarray:
        base_rates = self.base.rates(times)
        if not self._windows:
            return base_rates
        latest = np.searchsorted(self._starts, times, side="right") - 1
        inside = (latest >= 0) & (self._reach[latest] > times)
        return np.where(inside, base_rates * self.burst_factor, base_rates)

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

    def rates(self, times: np.ndarray) -> np.ndarray:
        return self.base.rates(times) * self.factor

    @property
    def max_rate(self) -> float:
        return self.base.max_rate * self.factor


class SurgeRateProfile(RateProfile):
    """Declared multiplicative step windows on top of a base profile.

    Unlike :class:`BurstyRateProfile` (random bursts drawn from a seed),
    the windows here are *scheduled*: the fault plane injects a demand
    surge at a known instant (a launch, a retry storm) so chaos runs can
    assert on exactly when the hazard was active. Windows are pure
    functions of time and must not overlap, so at most one factor applies
    at any instant and ``max_rate`` is exact.
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
        ordered = sorted(self.windows)
        for (s0, d0, _), (s1, _, _) in zip(ordered, ordered[1:]):
            if s1 < s0 + d0:
                raise ValueError(
                    f"surge windows overlap: ({s0}, {d0}) and ({s1}, ...); "
                    "their product would exceed max_rate"
                )

    def rates(self, times: np.ndarray) -> np.ndarray:
        rates = self.base.rates(times)
        for start, duration, factor in self.windows:
            inside = (start <= times) & (times < start + duration)
            rates = np.where(inside, rates * factor, rates)
        return rates

    @property
    def max_rate(self) -> float:
        peak = max((f for _, _, f in self.windows), default=1.0)
        return self.base.max_rate * max(peak, 1.0)


class ArrivalStream:
    """The arrival stream of every generator drawing from one rng.

    Draw-order contract (v2). The stream draws arrivals one window of the
    absolute :data:`ARRIVAL_WINDOW_SECONDS` grid at a time, each window
    clipped to ``[join, until)`` of each member generator. Per window,
    for each member in join order whose clipped window ``[t0, t1)`` is
    not empty:

    1. ``n = rng.poisson(max_rate * (t1 - t0))`` candidates;
    2. their times, ``np.sort(rng.uniform(t0, t1, n))``;
    3. one thinning vector ``u = rng.random(n)``, keeping the candidates
       where ``u * max_rate < rates(times)``;
    4. the ``k`` accepted jobs' demands,
       ``ResourceDemandDistribution.sample(rng, k)``;
    5. their durations, ``JobDurationDistribution.sample(rng, k)``.

    ``max_rate`` is the member profile's bound, read once in ``start()``.
    The members' accepted jobs merge stably by time, ties going to join
    order. The stream keeps exactly one pending ``JOB_ARRIVAL`` event: a
    start event on the engine's event heap at the instant its first
    generator joins (which draws the first window), then the next job of
    the drawn window, queued on the engine's arrival queue
    (:meth:`Engine.queue_arrival`), whose :meth:`fire` submits it. When a
    window's last job fires, the stream draws the following windows
    inline until one holds a job, or every member has reached its
    ``until``. Rate profiles are pure functions of time and nothing else
    draws from a workload rng, so the jobs are a function of the seed
    alone.

    A generator may join only while the stream has drawn nothing past
    ``now``: after the start event has drawn a window, a later join
    would reorder the draws, so it raises. A stream whose members have
    all finished accepts new members again.
    """

    def __init__(self, engine: Engine, rng: np.random.Generator) -> None:
        self.engine = engine
        self.rng = rng
        #: generators with windows left to draw, in join order
        self._members: List["BatchWorkloadGenerator"] = []
        #: every window before this instant has been drawn
        self._drawn_to = -math.inf
        #: the drawn window's accepted jobs in emission order, as
        #: ``(time, member, cores, memory_gb, work_seconds)``
        self._jobs: List[tuple] = []
        #: index in ``_jobs`` of the next job to schedule
        self._next = 0

    def join(self, generator: "BatchWorkloadGenerator") -> None:
        """Add ``generator``; its windows start at ``now``."""
        now = self.engine.now
        if self._drawn_to > now:
            raise RuntimeError(
                f"arrival stream has drawn ahead to t={self._drawn_to:.3f}; "
                f"a generator joining at t={now:.3f} would reorder its draws"
            )
        if not self._members:
            self._drawn_to = now
            self.engine.schedule(now, EventPriority.JOB_ARRIVAL, self._draw)
        self._members.append(generator)

    def advance(self) -> None:
        """Queue the window's next job, or draw on when it is spent."""
        if self._next < len(self._jobs):
            time = self._jobs[self._next][0]
            self._next += 1
            self.engine.queue_arrival(time, self)
        else:
            self._draw()

    def fire(self) -> None:
        """The queued job's arrival (the one :meth:`advance` queued last):
        its member submits it and calls :meth:`advance` again."""
        time, member, cores, memory_gb, work_seconds = self._jobs[self._next - 1]
        member._candidate_arrival(time, cores, memory_gb, work_seconds)

    def _draw(self) -> None:
        """Draw windows until one holds a job, then schedule that job."""
        rng = self.rng
        members = self._members
        while members:
            t0 = self._drawn_to
            t1 = (math.floor(t0 / ARRIVAL_WINDOW_SECONDS) + 1.0) * ARRIVAL_WINDOW_SECONDS
            blocks = []
            for member in members:
                end = min(t1, member._until)
                max_rate = member._max_rate
                n = rng.poisson(max_rate * (end - t0))
                times = np.sort(rng.uniform(t0, end, n))
                times = times[rng.random(n) * max_rate < member.rate_profile.rates(times)]
                k = len(times)
                cores, memory_gb = member.demand.sample(rng, k)
                work_seconds = member.duration.sample(rng, k)
                if k:
                    blocks.append((member, times, cores, memory_gb, work_seconds))
            self._drawn_to = min(t1, max(member._until for member in members))
            self._members = members = [m for m in members if m._until > t1]
            if blocks:
                self._emit_window(blocks)
                return

    def _emit_window(self, blocks: list) -> None:
        """Merge the members' accepted jobs by time, ties in join order
        (``blocks`` is in join order), and schedule the first."""
        members = [block[0] for block in blocks]
        owner = np.repeat(np.arange(len(blocks)), [len(block[1]) for block in blocks])
        times = np.concatenate([block[1] for block in blocks])
        merged = np.argsort(times, kind="stable")
        columns = [
            np.concatenate([block[column] for block in blocks])[merged].tolist()
            for column in (2, 3, 4)  # cores, memory_gb, work_seconds
        ]
        owners = [members[index] for index in owner[merged].tolist()]
        self._jobs = list(zip(times[merged].tolist(), owners, *columns))
        self._next = 0
        self.advance()


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
    stream:
        The :class:`ArrivalStream` on ``rng`` this generator joins.
        Generators that share an rng must share its stream; by default
        the generator has a stream of its own.
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
        stream: Optional[ArrivalStream] = None,
    ) -> None:
        if stream is None:
            stream = ArrivalStream(engine, rng)
        elif stream.rng is not rng or stream.engine is not engine:
            raise ValueError("a shared arrival stream must be on the same engine and rng")
        self.engine = engine
        self.scheduler = scheduler
        self.rate_profile = rate_profile
        self.rng = rng
        self.stream = stream
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
        if self._max_rate <= 0 or until <= self.engine.now:
            return
        self._until = until
        self.stream.join(self)

    # ------------------------------------------------------------------
    def _candidate_arrival(
        self, time: float, cores: float, memory_gb: float, work_seconds: float
    ) -> None:
        """An accepted job's arrival at ``time`` (the engine's now):
        submit it, queue the stream's next."""
        # Positional: binding eight keywords cost more than the Job itself.
        job = Job(
            self._next_job_id, work_seconds, cores, memory_gb, time,
            self.product, self.allowed_rows, 0, self.tenant,
        )
        self._next_job_id += 1
        self.jobs_generated += 1
        for listener in self.listeners:
            listener(job)
        self.scheduler.submit(job)
        self.stream.advance()


__all__ = [
    "RateProfile",
    "DiurnalRateProfile",
    "ModulatedRateProfile",
    "BurstyRateProfile",
    "ScaledRateProfile",
    "SurgeRateProfile",
    "ArrivalStream",
    "BatchWorkloadGenerator",
    "ARRIVAL_WINDOW_SECONDS",
    "SECONDS_PER_HOUR",
    "SECONDS_PER_DAY",
]
