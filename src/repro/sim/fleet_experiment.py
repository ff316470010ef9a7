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
from typing import Dict, List, Optional, Sequence, Tuple

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
from repro.sim.audit import AuditStats, AuditorConfig
from repro.sim.engine import Engine
from repro.sim.eventlog import ControlEventLog
from repro.sim.staged import RunWindow, StagedRun
from repro.sim.testbed import (
    ThroughputTracker,
    WorkloadSpec,
    build_rate_profile,
)
from repro.telemetry import MetricsRegistry
from repro.tenancy import TenancyConfig, TenancyStats, assign_to_tenants
from repro.workload.distributions import (
    JobDurationDistribution,
    ResourceDemandDistribution,
)
from repro.workload.generator import BatchWorkloadGenerator


@dataclass(frozen=True)
class FleetRowSpec:
    """Size and workload of one row in a fleet experiment."""

    n_servers: int = 200
    workload: WorkloadSpec = WorkloadSpec()

    def __post_init__(self) -> None:
        if self.n_servers <= 0:
            raise ValueError(f"n_servers must be positive, got {self.n_servers}")


@dataclass(frozen=True)
class FleetExperimentConfig(RunWindow):
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
        self._check_window()
        for spec in self.rows:
            if spec.n_servers % self.servers_per_rack != 0:
                raise ValueError(
                    f"row sizes must be multiples of {self.servers_per_rack}, "
                    f"got {spec.n_servers}"
                )


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

    def to_dict(self) -> dict:
        """The result's JSON document."""
        from repro.analysis.serialize import fleet_result_to_dict

        return fleet_result_to_dict(self)


class FleetExperiment(StagedRun):
    """Build, run and summarize one multi-row fleet experiment.

    The lifecycle, the snapshot frame, the auditor and the service
    surface are :class:`~repro.sim.staged.StagedRun`'s; this class builds
    the rows, their control planes and the budget plane, and arms and
    collects them.
    """

    SNAPSHOT_KIND = "fleet"
    #: perfbench/tracer.py wraps ``FleetExperiment.__dict__["snapshot"]``;
    #: this alias keeps the name on the class without a second body
    snapshot = StagedRun.snapshot

    def __init__(self, config: FleetExperimentConfig = FleetExperimentConfig()):
        super().__init__(config)
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
            self._groups[row.name] = row
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

        if config.faults is not None:
            self.injector = FaultInjector(self.engine, config.faults)
            self.injector.attach_monitor(self.monitor)

        # --- per-row control planes -----------------------------------
        self._workload_rngs: List[np.random.Generator] = []
        self._modulation_seeds: List[int] = []
        ledger_rows: List[RowBudget] = []
        for index, row in enumerate(self.rows):
            sched_seed = children[1 + 3 * index]
            workload_seed = children[2 + 3 * index]
            modulation_seed = children[3 + 3 * index]
            scheduler = OmegaScheduler(
                self.engine, row.servers, rng=np.random.default_rng(sched_seed)
            )
            self._schedulers[row.name] = scheduler
            self._workload_rngs.append(np.random.default_rng(workload_seed))
            self._modulation_seeds.append(
                int(modulation_seed.generate_state(1)[0])
            )
            self.throughput.track(row)
            scheduler.placement_listeners.append(self.throughput.on_placement)
            self.event_log.attach_scheduler(scheduler)
            self._controllers[row.name] = AmpereController(
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

            rating = row.power_budget_watts * config.fleet.rating_headroom
            ledger_rows.append(
                RowBudget(
                    name=row.name,
                    rating_watts=rating,
                    static_watts=row.power_budget_watts,
                )
            )
            safety = config.safety
            self._breakers[row.name] = RowBreaker(
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
                self._supervisors[row.name] = SafetySupervisor(
                    self.engine,
                    row,
                    scheduler,
                    CappingEngine(row, self.engine),
                    config=safety,
                    breaker=self._breakers[row.name],
                    event_log=self.event_log,
                    telemetry=self.telemetry,
                    rating_watts=rating,
                )

        # --- multi-tenancy: rows -> tenants, tagged down to servers ----
        # Rows are assigned by position with the same share-weighted
        # interleave used for servers in the single-row harness; every
        # server inherits its row's tenant.
        self.tenant_of_row: Dict[str, str] = {}
        if config.tenancy is not None:
            self.tenant_of_row = assign_to_tenants(
                [row.name for row in self.rows], config.tenancy
            )
            self._wire_tenancy(
                (server, self.tenant_of_row[row.name])
                for row in self.rows
                for server in row.servers
            )

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
                self._controllers,
                config=config.fleet,
                telemetry=self.telemetry,
                event_log=self.event_log,
                tenancy=config.tenancy,
                tenant_of_row=self.tenant_of_row or None,
            )
            if self.injector is not None:
                self.injector.attach_coordinator(self.coordinator)
        if config.auditor is not None:
            self.auditor = self.build_auditor(config.auditor)

    def _arm(self, end: float, warmup: float) -> None:
        config = self.config
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
                self._schedulers[row.name],
                profile,
                rng=self._workload_rngs[index],
                duration=JobDurationDistribution(),
                demand=ResourceDemandDistribution(),
                job_id_offset=index * 10_000_000,
                tenant=tenant,
            )
            generator.start(end)
        self.monitor.start(end, first_at=warmup)
        for controller in self._controllers.values():
            controller.start(end, first_at=warmup)
        for breaker in self._breakers.values():
            breaker.start(end, first_at=warmup)
        for supervisor in self._supervisors.values():
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
            state = self._controllers[row.name].state_of(row.name)
            summary = summarize_power_series(
                row.name,
                norm,
                u_history=np.asarray(state.u_history),
                throughput=throughput,
                budget=1.0,
            )
            record = self.throughput.records[row.name]
            stats = self._breakers[row.name].stats_snapshot()
            breaker_stats[row.name] = stats
            budget = self.ledger.row(row.name)
            outcomes.append(
                FleetRowOutcome(
                    name=row.name,
                    summary=summary,
                    static_budget_watts=budget.static_watts,
                    final_allocation_watts=budget.allocation_watts,
                    rating_watts=budget.rating_watts,
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
            breaker_stats=breaker_stats,
            **self._shared_result_fields(),
        )

    def _attach_runtime_injector(self, injector: FaultInjector) -> None:
        injector.attach_monitor(self.monitor)
        if self.coordinator is not None:
            injector.attach_coordinator(self.coordinator)


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
