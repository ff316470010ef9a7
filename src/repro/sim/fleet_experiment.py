"""Multi-row fleet experiment: the facility-level A/B harness.

The single-row :class:`~repro.sim.experiment.ControlledExperiment`
answers the paper's question (does Ampere hold one row under one
budget?). This harness answers the next one: with several rows under
*one facility budget*, does re-dividing that budget between rows beat
the paper's static per-row split?

Layout: each row is an independent cluster -- its own scheduler,
workload stream and Ampere controller -- because demand skew between
rows is exactly the phenomenon budget reallocation exploits; a shared
scheduling pool would arbitrage the skew away before the power plane
ever saw it. The rows share three things: the simulation engine, the
monitoring plane (one sweep covers every row plus the facility
roll-up), and the facility budget divided by the
:class:`~repro.fleet.ledger.BudgetLedger`.

Physical ratings: every row's feed is rated at ``rating_headroom``
times its static budget (the static split deliberately leaves headroom
below the hardware limit -- that headroom is what the coordinator is
allowed to hand out). Breakers are always armed and pinned to the
rating, so a coordinator bug that over-allocates a row shows up as a
trip, not as a silently absorbed error.

Fault support: monitor blackouts, demand surges and coordinator
blackouts compose with the fleet harness. Controller-crash and
scheduler-RPC hazards remain single-row-harness features (they attach
to exactly one controller/scheduler).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.metrics import (
    FacilitySummary,
    GroupRunSummary,
    summarize_facility_series,
    summarize_power_series,
)
from repro.cluster.breaker import BreakerCurve, BreakerStats, RowBreaker
from repro.cluster.capping import CappingEngine
from repro.cluster.datacenter import DataCenter, build_row
from repro.cluster.row import Row
from repro.core.config import AmpereConfig
from repro.core.controller import AmpereController
from repro.core.demand import ConstantDemandEstimator
from repro.core.freeze_model import DEFAULT_K_R, FreezeEffectModel
from repro.core.safety import SafetyConfig, SafetySupervisor
from repro.faults.injector import FaultInjector, FaultStats
from repro.faults.scenario import FaultScenario
from repro.fleet import BudgetLedger, FleetConfig, FleetCoordinator, RowBudget
from repro.fleet.coordinator import CoordinatorStats
from repro.monitor.power_monitor import PowerMonitor
from repro.monitor.tsdb import TimeSeriesDatabase
from repro.scheduler.base import InstrumentedScheduler
from repro.scheduler.omega import OmegaScheduler
from repro.sim.audit import AuditStats, AuditorConfig, StateAuditor
from repro.sim.engine import Engine
from repro.sim.eventlog import ControlEventLog
from repro.sim.testbed import (
    ThroughputTracker,
    WorkloadSpec,
    build_rate_profile,
)
from repro.telemetry import MetricsRegistry, Telemetry
from repro.tenancy import (
    TenancyAccountant,
    TenancyConfig,
    TenancyStats,
    assign_to_tenants,
)
from repro.workload.distributions import (
    JobDurationDistribution,
    ResourceDemandDistribution,
)
from repro.workload.generator import BatchWorkloadGenerator

SECONDS_PER_HOUR = 3600.0


@dataclass(frozen=True)
class FleetRowSpec:
    """Size and workload of one row in a fleet experiment."""

    n_servers: int = 200
    workload: WorkloadSpec = WorkloadSpec()

    def __post_init__(self) -> None:
        if self.n_servers <= 0:
            raise ValueError(f"n_servers must be positive, got {self.n_servers}")


@dataclass(frozen=True)
class FleetExperimentConfig:
    """Configuration of one multi-row fleet run."""

    rows: Tuple[FleetRowSpec, ...] = (FleetRowSpec(), FleetRowSpec())
    duration_hours: float = 8.0
    warmup_hours: float = 1.0
    over_provision_ratio: float = 0.25
    fleet: FleetConfig = FleetConfig()
    ampere: AmpereConfig = AmpereConfig()
    k_r: float = DEFAULT_K_R
    monitor_noise_sigma: float = 0.01
    seed: int = 0
    #: emergency-ladder config; breakers are armed regardless, this adds
    #: the supervisor (and its curve/interval overrides) when set
    safety: Optional[SafetyConfig] = None
    faults: Optional[FaultScenario] = None
    servers_per_rack: int = 40
    telemetry_enabled: bool = False
    #: False runs the same fleet with no coordinator at all -- the
    #: reference the `static` policy must be bit-identical to
    coordinator_enabled: bool = True
    #: online state-invariant auditor (None = off); fleet runs audit the
    #: budget ledger in addition to the single-row checks
    auditor: Optional[AuditorConfig] = None
    #: multi-tenant mix (None = untenanted). Rows are assigned to
    #: tenants by position via the share-weighted interleave; the
    #: ``fair`` fleet policy then water-fills tenant entitlements
    #: before rows.
    tenancy: Optional[TenancyConfig] = None

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("fleet experiment needs at least one row")
        object.__setattr__(self, "rows", tuple(self.rows))
        if self.duration_hours <= 0:
            raise ValueError(
                f"duration_hours must be positive, got {self.duration_hours}"
            )
        if self.warmup_hours < 0:
            raise ValueError(
                f"warmup_hours must be non-negative, got {self.warmup_hours}"
            )
        if self.over_provision_ratio < 0:
            raise ValueError(
                "over_provision_ratio must be non-negative, got "
                f"{self.over_provision_ratio}"
            )
        for spec in self.rows:
            if spec.n_servers % self.servers_per_rack != 0:
                raise ValueError(
                    f"row sizes must be multiples of {self.servers_per_rack}, "
                    f"got {spec.n_servers}"
                )

    @property
    def warmup_seconds(self) -> float:
        return self.warmup_hours * SECONDS_PER_HOUR

    @property
    def end_seconds(self) -> float:
        return (self.warmup_hours + self.duration_hours) * SECONDS_PER_HOUR


@dataclass
class FleetRowOutcome:
    """Measured behaviour of one row during the measurement window."""

    name: str
    summary: GroupRunSummary
    static_budget_watts: float
    final_allocation_watts: float
    rating_watts: float
    #: server-minutes of frozen capacity commanded by the row controller
    #: (exact over the full run even with a bounded history window)
    frozen_server_minutes: float
    breaker_trips: int
    mean_wait_seconds: float
    p99_wait_seconds: float


@dataclass
class FleetResult:
    """Everything the fleet evaluation needs from one run (picklable)."""

    config: FleetExperimentConfig
    rows: List[FleetRowOutcome]
    facility: FacilitySummary
    ledger: Dict[str, object]
    coordinator_stats: Optional[CoordinatorStats] = None
    fault_stats: Optional[FaultStats] = None
    breaker_stats: Dict[str, BreakerStats] = field(default_factory=dict)
    telemetry: Optional[MetricsRegistry] = None
    #: what the online auditor saw (None when the auditor was off)
    audit_stats: Optional[AuditStats] = None
    #: per-tenant fairness accounting (None for untenanted runs)
    tenancy: Optional[TenancyStats] = None

    @property
    def total_throughput(self) -> int:
        return sum(row.summary.throughput for row in self.rows)

    @property
    def total_violations(self) -> int:
        return sum(row.summary.violations for row in self.rows)

    @property
    def total_frozen_server_minutes(self) -> float:
        return sum(row.frozen_server_minutes for row in self.rows)

    @property
    def total_breaker_trips(self) -> int:
        return sum(row.breaker_trips for row in self.rows)

    def without_series(self) -> "FleetResult":
        """Alias for campaign symmetry (rows carry no bulky series)."""
        return self


class FleetExperiment:
    """Build, run and summarize one multi-row fleet experiment."""

    def __init__(self, config: FleetExperimentConfig = FleetExperimentConfig()):
        self.config = config
        self.telemetry = (
            Telemetry.create() if config.telemetry_enabled else Telemetry.disabled()
        )
        self.engine = Engine(telemetry=self.telemetry)
        root = np.random.SeedSequence(config.seed)
        children = root.spawn(1 + 3 * len(config.rows))
        monitor_seed = children[0]

        # --- topology: one row per spec, ids globally unique ----------
        # All rows share one columnar store, so facility-level rollups
        # vectorize across the whole fleet in a single slice.
        from repro.cluster.state import ClusterState

        self.state = ClusterState(capacity=sum(spec.n_servers for spec in config.rows))
        self.rows: List[Row] = []
        first_id = 0
        for index, spec in enumerate(config.rows):
            row = build_row(
                index,
                racks=spec.n_servers // config.servers_per_rack,
                servers_per_rack=config.servers_per_rack,
                first_server_id=first_id,
                state=self.state,
            )
            row.set_over_provision_ratio(config.over_provision_ratio)
            self.rows.append(row)
            first_id += spec.n_servers
        self.datacenter = DataCenter(self.rows)

        # --- shared monitoring plane ----------------------------------
        self.db = TimeSeriesDatabase()
        self.monitor = PowerMonitor(
            self.engine,
            db=self.db,
            noise_sigma=config.monitor_noise_sigma,
            rng=np.random.default_rng(monitor_seed),
            telemetry=self.telemetry,
        )
        self.monitor.register_groups(self.rows)
        self.monitor.set_facility_budget(self.datacenter.power_budget_watts)

        self.event_log = ControlEventLog(self.engine, telemetry=self.telemetry)
        self.throughput = ThroughputTracker(self.engine)

        self.injector: Optional[FaultInjector] = None
        if config.faults is not None:
            self.injector = FaultInjector(self.engine, config.faults)
            self.injector.attach_monitor(self.monitor)

        # --- per-row control planes -----------------------------------
        self.schedulers: List[OmegaScheduler] = []
        self.controllers: Dict[str, AmpereController] = {}
        self.breakers: Dict[str, RowBreaker] = {}
        self.supervisors: Dict[str, SafetySupervisor] = {}
        self._workload_rngs: List[np.random.Generator] = []
        self._modulation_seeds: List[int] = []
        ledger_rows: List[RowBudget] = []
        for index, (row, spec) in enumerate(zip(self.rows, config.rows)):
            sched_seed = children[1 + 3 * index]
            workload_seed = children[2 + 3 * index]
            modulation_seed = children[3 + 3 * index]
            scheduler = OmegaScheduler(
                self.engine, row.servers, rng=np.random.default_rng(sched_seed)
            )
            self.schedulers.append(scheduler)
            self._workload_rngs.append(np.random.default_rng(workload_seed))
            self._modulation_seeds.append(
                int(modulation_seed.generate_state(1)[0])
            )
            self.throughput.track(row)
            scheduler.placement_listeners.append(self.throughput.on_placement)
            self.event_log.attach_scheduler(scheduler)
            controller = AmpereController(
                self.engine,
                InstrumentedScheduler(scheduler, self.telemetry),
                self.monitor,
                [row],
                config=config.ampere,
                freeze_model=FreezeEffectModel(config.k_r),
                demand_estimator=ConstantDemandEstimator(
                    config.ampere.default_e_t
                ),
                telemetry=self.telemetry,
            )
            self.controllers[row.name] = controller

            rating = row.power_budget_watts * config.fleet.rating_headroom
            ledger_rows.append(
                RowBudget(
                    name=row.name,
                    rating_watts=rating,
                    static_watts=row.power_budget_watts,
                )
            )
            safety = config.safety
            self.breakers[row.name] = RowBreaker(
                row,
                self.engine,
                scheduler,
                curve=safety.breaker if safety is not None else BreakerCurve(),
                interval=(
                    safety.breaker_interval_seconds if safety is not None else 5.0
                ),
                reset_delay_seconds=(
                    safety.breaker_reset_minutes * 60.0
                    if safety is not None
                    else 900.0
                ),
                event_log=self.event_log,
                telemetry=self.telemetry,
                rating_watts=rating,
            )
            if safety is not None and safety.supervisor_enabled:
                self.supervisors[row.name] = SafetySupervisor(
                    self.engine,
                    row,
                    scheduler,
                    CappingEngine(row, self.engine),
                    config=safety,
                    breaker=self.breakers[row.name],
                    event_log=self.event_log,
                    telemetry=self.telemetry,
                    rating_watts=rating,
                )

        # --- multi-tenancy: rows -> tenants, tagged down to servers ----
        # Rows are assigned by position with the same share-weighted
        # interleave used for servers in the single-row harness; every
        # server inherits its row's tenant. Pure bookkeeping (no RNG).
        self.tenant_of_row: Dict[str, str] = {}
        self.tenant_of: Dict[int, str] = {}
        self.accountant: Optional[TenancyAccountant] = None
        if config.tenancy is not None:
            ordinal = {
                name: index + 1 for index, name in enumerate(config.tenancy.names)
            }
            self.tenant_of_row = assign_to_tenants(
                [row.name for row in self.rows], config.tenancy
            )
            for row in self.rows:
                tenant = self.tenant_of_row[row.name]
                for server in row.servers:
                    self.tenant_of[server.server_id] = tenant
                    server.tenant_id = ordinal[tenant]
            self.accountant = TenancyAccountant(
                self.engine,
                config.tenancy,
                self.tenant_of,
                telemetry=self.telemetry,
            )
            for scheduler in self.schedulers:
                scheduler.control_listeners.append(
                    self.accountant.on_control_event
                )
            self.event_log.attach_tenant_resolver(self.accountant.resolve)

        # --- the facility budget plane --------------------------------
        self.ledger = BudgetLedger(
            self.datacenter.power_budget_watts, ledger_rows
        )
        self.coordinator: Optional[FleetCoordinator] = None
        if config.coordinator_enabled:
            self.coordinator = FleetCoordinator(
                self.engine,
                self.monitor,
                self.ledger,
                self.controllers,
                config=config.fleet,
                telemetry=self.telemetry,
                event_log=self.event_log,
                tenancy=config.tenancy,
                tenant_of_row=self.tenant_of_row or None,
            )
            if self.injector is not None:
                self.injector.attach_coordinator(self.coordinator)
        self.auditor: Optional[StateAuditor] = None
        if config.auditor is not None:
            self.auditor = self.build_auditor(config.auditor)
        self._started = False
        self._ran = False
        self._result: Optional[FleetResult] = None

    # ------------------------------------------------------------------
    # Staged execution (mirrors ControlledExperiment: start/advance/finish
    # compose into run(), and any advance() boundary is snapshotable).
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm workload, monitoring, control and safety services."""
        if self._started:
            raise RuntimeError("experiment already started")
        self._started = True
        config = self.config
        end = config.end_seconds
        warmup = config.warmup_seconds
        interval = config.ampere.control_interval

        for index, (row, spec) in enumerate(zip(self.rows, config.rows)):
            profile = build_rate_profile(
                spec.n_servers,
                row.servers[0].cores,
                spec.workload,
                end,
                self._modulation_seeds[index],
            )
            tenant = self.tenant_of_row.get(row.name)
            if self.injector is not None:
                profile = self.injector.wrap_rate_profile(profile)
                if tenant is not None:
                    profile = self.injector.wrap_rate_profile_for_tenant(
                        profile, tenant
                    )
            generator = BatchWorkloadGenerator(
                self.engine,
                self.schedulers[index],
                profile,
                rng=self._workload_rngs[index],
                duration=JobDurationDistribution(),
                demand=ResourceDemandDistribution(),
                job_id_offset=index * 10_000_000,
                tenant=tenant,
            )
            generator.start(end)
        self.monitor.start(end, first_at=warmup)
        for controller in self.controllers.values():
            controller.start(end, first_at=warmup)
        for breaker in self.breakers.values():
            breaker.start(end, first_at=warmup)
        for supervisor in self.supervisors.values():
            supervisor.start(end, first_at=warmup)
        if self.auditor is not None:
            self.auditor.start(end, first_at=warmup)
        if self.coordinator is not None:
            # First tick one full cadence after control begins, so the
            # demand window has data before the first reallocation.
            self.coordinator.start(
                end,
                interval,
                first_at=warmup + config.fleet.cadence_intervals * interval,
            )
        if self.injector is not None:
            self.injector.arm(end)

    def advance(self, until: Optional[float] = None) -> None:
        """Run simulated time forward to ``until`` (default: the horizon)."""
        if not self._started:
            self.start()
        end = self.config.end_seconds
        target = end if until is None else min(float(until), end)
        self.engine.run(until=target)

    def finish(self) -> FleetResult:
        """Run any remaining simulated time and collect the outcomes.

        Idempotent like :meth:`ControlledExperiment.finish`: repeated
        calls return the cached result without re-collecting.
        """
        if self._ran:
            return self._result
        self.advance()
        self._ran = True
        self._result = self._collect(
            self.config.warmup_seconds, self.config.end_seconds
        )
        return self._result

    def run(self) -> FleetResult:
        """Execute the fleet experiment and return measured outcomes."""
        if self._ran or self._started:
            raise RuntimeError("experiment already ran; build a new instance")
        self.start()
        return self.finish()

    # ------------------------------------------------------------------
    # Durable snapshots (see repro.durability for the frame format)
    # ------------------------------------------------------------------
    SNAPSHOT_KIND = "fleet"

    def _snapshot_meta(self) -> dict:
        return {
            "sim_now": self.engine.now,
            "n_rows": len(self.rows),
            "seed": self.config.seed,
            "started": self._started,
        }

    def snapshot(self) -> bytes:
        """Serialize the complete live fleet run into a versioned frame."""
        if self.engine._running:
            raise RuntimeError(
                "cannot snapshot while the engine is running; snapshot "
                "between advance() calls"
            )
        from repro.durability import encode_snapshot

        return encode_snapshot(self, self.SNAPSHOT_KIND, self._snapshot_meta())

    def save_snapshot(self, path: Union[str, Path]) -> int:
        """Atomically write :meth:`snapshot` to ``path``; returns bytes."""
        from repro.durability import atomic_write_bytes

        frame = self.snapshot()
        atomic_write_bytes(path, frame)
        return len(frame)

    @classmethod
    def restore(cls, source: Union[bytes, str, Path]) -> "FleetExperiment":
        """Rebuild a live fleet experiment from a snapshot."""
        from repro.durability import SnapshotError, decode_snapshot, read_snapshot

        if isinstance(source, (bytes, bytearray)):
            obj, _ = decode_snapshot(bytes(source), expected_kind=cls.SNAPSHOT_KIND)
        else:
            obj, _ = read_snapshot(source, expected_kind=cls.SNAPSHOT_KIND)
        if not isinstance(obj, cls):
            raise SnapshotError(
                f"snapshot payload is {type(obj).__name__}, not {cls.__name__}"
            )
        return obj

    # ------------------------------------------------------------------
    def build_auditor(self, config: Optional[AuditorConfig] = None) -> StateAuditor:
        """A :class:`StateAuditor` wired to every fleet surface."""
        return StateAuditor(
            self.engine,
            state=self.state,
            schedulers=list(self.schedulers),
            ledger=self.ledger,
            supervisors=[self.supervisors[name] for name in sorted(self.supervisors)],
            config=config if config is not None else AuditorConfig(),
            telemetry=self.telemetry,
        )

    # ------------------------------------------------------------------
    def _collect(self, warmup: float, end: float) -> FleetResult:
        config = self.config
        interval = config.ampere.control_interval
        outcomes: List[FleetRowOutcome] = []
        breaker_stats: Dict[str, BreakerStats] = {}
        for row, spec in zip(self.rows, config.rows):
            times, norm = self.monitor.normalized_power_series(
                row.name, start=warmup, end=end
            )
            throughput = self.throughput.window_total(row.name, warmup, end)
            state = self.controllers[row.name].state_of(row.name)
            summary = summarize_power_series(
                row.name,
                norm,
                u_history=np.asarray(state.u_history),
                throughput=throughput,
                budget=1.0,
            )
            record = self.throughput.records[row.name]
            stats = self.breakers[row.name].stats_snapshot()
            breaker_stats[row.name] = stats
            outcomes.append(
                FleetRowOutcome(
                    name=row.name,
                    summary=summary,
                    static_budget_watts=self.ledger.row(row.name).static_watts,
                    final_allocation_watts=self.ledger.row(
                        row.name
                    ).allocation_watts,
                    rating_watts=self.ledger.row(row.name).rating_watts,
                    frozen_server_minutes=(
                        state.u_integral * spec.n_servers * interval / 60.0
                    ),
                    breaker_trips=stats.trips,
                    mean_wait_seconds=record.mean_wait(),
                    p99_wait_seconds=record.wait_percentile(99.0),
                )
            )
        _, facility_power = self.monitor.facility_power_series(
            start=warmup, end=end
        )
        facility = summarize_facility_series(
            self.monitor.facility_budget_watts, facility_power
        )
        return FleetResult(
            config=config,
            rows=outcomes,
            facility=facility,
            ledger=self.ledger.snapshot(),
            coordinator_stats=(
                self.coordinator.stats_snapshot()
                if self.coordinator is not None
                else None
            ),
            fault_stats=(
                self.injector.stats_snapshot()
                if self.injector is not None
                else None
            ),
            breaker_stats=breaker_stats,
            telemetry=self.telemetry.registry if self.telemetry.enabled else None,
            audit_stats=(
                self.auditor.stats_snapshot() if self.auditor is not None else None
            ),
            tenancy=(
                self.accountant.stats_snapshot()
                if self.accountant is not None
                else None
            ),
        )


def run_fleet_ab(
    config: FleetExperimentConfig,
    policies: Sequence[str] = ("static", "demand-following"),
) -> Dict[str, FleetResult]:
    """Run the same seeded fleet under each policy (the A/B harness).

    Every run shares the seed, topology and workload; only the
    coordinator's policy differs, so any divergence in frozen
    server-minutes, violations or trips is the policy's doing.
    """
    results: Dict[str, FleetResult] = {}
    for policy in policies:
        cell = replace(config, fleet=replace(config.fleet, policy=policy))
        results[policy] = FleetExperiment(cell).run()
    return results


__all__ = [
    "FleetExperiment",
    "FleetExperimentConfig",
    "FleetResult",
    "FleetRowOutcome",
    "FleetRowSpec",
    "run_fleet_ab",
]
