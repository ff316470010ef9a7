"""Testbed: the one topology builder of every experiment shape.

Reproduces the paper's evaluation environment (Section 4.1): a row of
400+ homogeneous servers in a shared scheduling pool, a per-minute power
monitor, a batch workload with the published duration/arrival statistics,
and the virtual experiment/control split by server-id parity. A fleet is
the same shape with several rows, each its own scheduling pool, under
the one monitor.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.datacenter import build_row
from repro.cluster.group import ServerGroup
from repro.cluster.row import Row
from repro.cluster.state import ClusterState
from repro.monitor.power_monitor import PowerMonitor
from repro.monitor.tsdb import TimeSeriesDatabase
from repro.scheduler.omega import OmegaScheduler
from repro.scheduler.policies import PlacementPolicy
from repro.sim.engine import Engine
from repro.telemetry import Telemetry
from repro.workload.distributions import (
    JobDurationDistribution,
    ResourceDemandDistribution,
    rate_for_target_utilization,
)
from repro.workload.generator import (
    ArrivalStream,
    BatchWorkloadGenerator,
    BurstyRateProfile,
    DiurnalRateProfile,
    ModulatedRateProfile,
    RateProfile,
)
from repro.workload.job import Job

#: rack size of every testbed row and fleet row
SERVERS_PER_RACK = 40


@dataclass(frozen=True)
class WorkloadSpec:
    """Batch-workload intensity and variability.

    ``target_utilization`` is the mean fraction of cluster cores occupied
    by tasks (production CPU utilization is modest; the paper's row power
    figures back out to task utilization around 0.05-0.35 depending on
    workload level -- see DESIGN.md).
    """

    target_utilization: float = 0.18
    diurnal_amplitude: float = 0.15
    diurnal_phase_seconds: float = 0.0
    modulation_sigma: float = 0.06
    modulation_step_seconds: float = 120.0
    modulation_rho: float = 0.85
    bursts_per_day: float = 0.0
    burst_factor: float = 2.0
    mean_burst_minutes: float = 30.0

    def __post_init__(self) -> None:
        if not 0.0 < self.target_utilization <= 1.0:
            raise ValueError(
                f"target_utilization must be in (0, 1], got {self.target_utilization}"
            )

    @staticmethod
    def light() -> "WorkloadSpec":
        """Power mostly well under the limit, with occasional excursions
        toward it (Figure 10a conditions: u_mean ~1.5% but u_max ~44%)."""
        return WorkloadSpec(
            target_utilization=0.08,
            diurnal_amplitude=0.10,
            bursts_per_day=3.0,
            burst_factor=3.4,
            mean_burst_minutes=75.0,
        )

    @staticmethod
    def typical() -> "WorkloadSpec":
        """The representative production mix (Table 3 bold rows)."""
        return WorkloadSpec(
            target_utilization=0.17,
            bursts_per_day=2.0,
            burst_factor=1.6,
        )

    @staticmethod
    def heavy() -> "WorkloadSpec":
        """Demand that would breach the budget without control (Fig 10b)."""
        return WorkloadSpec(
            target_utilization=0.31,
            diurnal_amplitude=0.12,
            bursts_per_day=5.0,
            burst_factor=1.25,
            mean_burst_minutes=45.0,
        )

    def scaled(self, factor: float) -> "WorkloadSpec":
        return replace(self, target_utilization=self.target_utilization * factor)


@dataclass
class ThroughputRecord:
    """Per-group placement counting with a per-minute series.

    Also accumulates scheduling *wait times* (placement minus arrival):
    freezing servers makes jobs wait in the queue rather than hurting
    running jobs, so queue wait is where Ampere's cost shows up for batch
    work.
    """

    total: int = 0
    minute_bins: Dict[int, int] = field(default_factory=dict)
    wait_times: List[float] = field(default_factory=list)

    def record(self, minute: int, wait_seconds: float = 0.0) -> None:
        self.total += 1
        self.minute_bins[minute] = self.minute_bins.get(minute, 0) + 1
        self.wait_times.append(wait_seconds)

    def waits(self, window: Optional[Tuple[int, int]] = None) -> List[float]:
        """The recorded waits, or those of the placements in the minutes
        ``[start, end)`` of ``window``. Waits are appended in time order,
        so a window's waits are one slice: it starts after the placements
        of the minutes before ``start``."""
        if window is None:
            return self.wait_times
        start, end = window
        first = sum(count for minute, count in self.minute_bins.items() if minute < start)
        return self.wait_times[first : first + int(self.series(start, end).sum())]

    def mean_wait(self, window: Optional[Tuple[int, int]] = None) -> float:
        waits = self.waits(window)
        return float(np.mean(waits)) if waits else 0.0

    def wait_percentile(
        self, percentile: float, window: Optional[Tuple[int, int]] = None
    ) -> float:
        waits = self.waits(window)
        if not waits:
            return 0.0
        return float(np.percentile(np.asarray(waits), percentile))

    def series(self, start_minute: int, end_minute: int) -> np.ndarray:
        """Jobs placed in each minute of ``[start, end)``."""
        return np.array(
            [self.minute_bins.get(m, 0) for m in range(start_minute, end_minute)],
            dtype=int,
        )


class ThroughputTracker:
    """Counts job placements per named server group.

    Throughput in the paper is "the number of jobs accepted during the
    time period"; a job is accepted by a group when it is placed on one of
    the group's servers.
    """

    def __init__(self) -> None:
        self._group_of_server: Dict[int, str] = {}
        self.records: Dict[str, ThroughputRecord] = {}

    def track(self, group: ServerGroup) -> None:
        self.records[group.name] = ThroughputRecord()
        for server in group.servers:
            self._group_of_server[server.server_id] = group.name

    def on_placement(self, job: Job, server) -> None:
        """A placement listener: ``ThroughputRecord.record`` inlined, at
        the job's start time (the engine's now)."""
        group_name = self._group_of_server.get(server.server_id)
        if group_name is not None:
            record = self.records[group_name]
            now = job.start_time
            minute = int(now // 60.0)
            record.total += 1
            bins = record.minute_bins
            bins[minute] = bins.get(minute, 0) + 1
            record.wait_times.append(now - job.arrival_time)

    def total(self, group_name: str) -> int:
        return self.records[group_name].total

    def window_total(self, group_name: str, start_seconds: float, end_seconds: float) -> int:
        record = self.records[group_name]
        return int(
            record.series(int(start_seconds // 60), int(end_seconds // 60)).sum()
        )


class Testbed:
    """The topology every experiment shape builds on.

    One engine, one columnar :class:`~repro.cluster.state.ClusterState`,
    one power monitor with its TSDB and one throughput tracker serve
    every row. Each row is a scheduling pool of its own: its own
    :class:`~repro.scheduler.omega.OmegaScheduler`, its own workload rng
    with its one arrival stream, and its own rate-profile modulation
    seed. Row ``i`` is ``row-i``; its server ids start where row
    ``i - 1``'s end. The servers are
    :func:`~repro.cluster.datacenter.build_row`'s standard SKU (16 cores,
    64 GB, the default power model) and the monitor samples every 60 s
    with 1% noise, like the paper's.

    Seed contract: ``SeedSequence(seed).spawn(1 + 3 * len(rows))``. The
    monitor takes child 1; the rows take the remaining children in
    order, three each (scheduler, workload, modulation). A one-row
    testbed therefore draws children 0-3 as (scheduler, monitor,
    workload, modulation).

    Parameters
    ----------
    rows:
        Server count of each row; each must be divisible by
        :data:`SERVERS_PER_RACK`.
    seed:
        Master seed; all component generators derive from it.
    """

    __test__ = False  # not a pytest test class despite the name

    def __init__(
        self,
        rows: Sequence[int] = (400,),
        seed: int = 0,
        placement_policy: Optional[PlacementPolicy] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if not rows:
            raise ValueError("a testbed needs at least one row")
        for n_servers in rows:
            if n_servers <= 0 or n_servers % SERVERS_PER_RACK != 0:
                raise ValueError(
                    f"row sizes must be positive multiples of {SERVERS_PER_RACK}, "
                    f"got {n_servers}"
                )
        self.telemetry = telemetry if telemetry is not None else Telemetry.disabled()
        self.engine = Engine(telemetry=self.telemetry)
        #: the columnar store every row's servers share, so facility
        #: roll-ups vectorize over one slice
        self.state = ClusterState(capacity=sum(rows))
        self.rows: List[Row] = []
        first_id = 0
        for index, n_servers in enumerate(rows):
            self.rows.append(
                build_row(
                    index,
                    racks=n_servers // SERVERS_PER_RACK,
                    servers_per_rack=SERVERS_PER_RACK,
                    first_server_id=first_id,
                    state=self.state,
                )
            )
            first_id += n_servers
        children = np.random.SeedSequence(seed).spawn(1 + 3 * len(rows))
        monitor_seed = children.pop(1)
        self.db = TimeSeriesDatabase()
        self.monitor = PowerMonitor(
            self.engine,
            db=self.db,
            rng=np.random.default_rng(monitor_seed),
            telemetry=self.telemetry,
        )
        self.throughput = ThroughputTracker()
        self.schedulers: List[OmegaScheduler] = []
        self._workload_rngs: List[np.random.Generator] = []
        #: per row, the one arrival stream every generator on its rng joins
        self._arrivals: List[ArrivalStream] = []
        self._modulation_seeds: List[int] = []
        for index, row in enumerate(self.rows):
            sched_seed, workload_seed, modulation_seed = children[3 * index : 3 * index + 3]
            scheduler = OmegaScheduler(
                self.engine,
                row.servers,
                rng=np.random.default_rng(sched_seed),
                default_policy=placement_policy,
            )
            scheduler.placement_listeners.append(self.throughput.on_placement)
            self.schedulers.append(scheduler)
            rng = np.random.default_rng(workload_seed)
            self._workload_rngs.append(rng)
            self._arrivals.append(ArrivalStream(self.engine, rng))
            self._modulation_seeds.append(int(modulation_seed.generate_state(1)[0]))
        self.generators: List[BatchWorkloadGenerator] = []
        self.duration_distribution = JobDurationDistribution()
        self.demand_distribution = ResourceDemandDistribution()

    @property
    def row(self) -> Row:
        """The row of a single-row testbed."""
        (row,) = self.rows
        return row

    @property
    def scheduler(self) -> OmegaScheduler:
        """The scheduler of a single-row testbed."""
        (scheduler,) = self.schedulers
        return scheduler

    # ------------------------------------------------------------------
    # Groups
    # ------------------------------------------------------------------
    def split_by_parity(self) -> Tuple[ServerGroup, ServerGroup]:
        """The paper's A/B split of a single row: even ids -> experiment,
        odd -> control."""
        experiment = ServerGroup(
            "experiment", [s for s in self.row.servers if s.server_id % 2 == 0]
        )
        control = ServerGroup(
            "control", [s for s in self.row.servers if s.server_id % 2 == 1]
        )
        return experiment, control

    # ------------------------------------------------------------------
    # Workload
    # ------------------------------------------------------------------
    def build_rate_profile(
        self, spec: WorkloadSpec, horizon_seconds: float, row: int = 0
    ) -> RateProfile:
        """Deterministic arrival-rate profile for ``spec`` over the
        horizon, sized to row ``row`` and seeded by its modulation seed."""
        servers = self.rows[row].servers
        base_rate = rate_for_target_utilization(
            len(servers),
            servers[0].cores,
            spec.target_utilization,
            demand=self.demand_distribution,
        )
        modulation_seed = self._modulation_seeds[row]
        profile: RateProfile = DiurnalRateProfile(
            base_rate,
            amplitude=spec.diurnal_amplitude,
            phase_seconds=spec.diurnal_phase_seconds,
        )
        if spec.bursts_per_day > 0:
            profile = BurstyRateProfile(
                profile,
                horizon_seconds=horizon_seconds,
                seed=modulation_seed + 1,
                bursts_per_day=spec.bursts_per_day,
                burst_factor=spec.burst_factor,
                mean_burst_seconds=spec.mean_burst_minutes * 60.0,
            )
        if spec.modulation_sigma > 0:
            profile = ModulatedRateProfile(
                profile,
                horizon_seconds=horizon_seconds,
                seed=modulation_seed,
                step_seconds=spec.modulation_step_seconds,
                rho=spec.modulation_rho,
                sigma=spec.modulation_sigma,
            )
        return profile

    def add_batch_workload(
        self,
        spec: WorkloadSpec,
        horizon_seconds: float,
        product: str = "batch",
        profile: Optional[RateProfile] = None,
        tenant: Optional[str] = None,
        row: int = 0,
    ) -> BatchWorkloadGenerator:
        """Attach (but do not start) a batch workload generator on row
        ``row``'s scheduler.

        ``profile`` overrides the spec-derived rate profile -- the seam
        the fault injector uses to layer demand surges over the standard
        workload without disturbing its RNG stream. ``tenant`` stamps
        every generated job with an owning tenant name (multi-tenant
        runs attach one generator per tenant, all sharing the row's
        single workload RNG and its one arrival stream, so the merged
        stream stays a deterministic function of the seed). Every
        generator must join before the stream thins past the instant it
        starts at (:class:`~repro.workload.generator.ArrivalStream`).
        """
        generator = BatchWorkloadGenerator(
            self.engine,
            self.schedulers[row],
            profile
            if profile is not None
            else self.build_rate_profile(spec, horizon_seconds, row=row),
            rng=self._workload_rngs[row],
            stream=self._arrivals[row],
            duration=self.duration_distribution,
            demand=self.demand_distribution,
            product=product,
            job_id_offset=len(self.generators) * 10_000_000,
            tenant=tenant,
        )
        self.generators.append(generator)
        return generator


__all__ = [
    "SERVERS_PER_RACK",
    "Testbed",
    "WorkloadSpec",
    "ThroughputTracker",
    "ThroughputRecord",
]
