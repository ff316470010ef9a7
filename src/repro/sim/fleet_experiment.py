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
ever saw it. The rows share what :class:`~repro.sim.testbed.Testbed`
shares -- the simulation engine, the columnar store and the monitoring
plane (one sweep covers every row plus the facility roll-up) -- and the
facility budget divided by the :class:`~repro.fleet.ledger.BudgetLedger`.

Physical ratings: every row's feed is rated at ``rating_headroom``
times its static budget (the static split deliberately leaves headroom
below the hardware limit -- that headroom is what the coordinator is
allowed to hand out). Breakers are always armed and pinned to the
rating, so a coordinator bug that over-allocates a row shows up as a
trip, not as a silently absorbed error.

Fault support: monitor blackouts, sensor bias, demand surges and
coordinator blackouts compose with the fleet harness. Controller
crashes, flaky RPCs and server failures attach to exactly one controller
or scheduler, so they stay single-row features: a fleet scenario with
them (or with coordinator blackouts but no coordinator) raises
``ValueError`` naming the seams, and ``arm_faults`` reports them as
``ignored``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import (
    FacilitySummary,
    GroupRunSummary,
    summarize_facility_series,
)
from repro.cluster.breaker import BreakerStats
# perfbench's tracer patches ``build_row`` by name on this module too;
# every row is built through ``repro.sim.testbed``'s global
from repro.cluster.datacenter import build_row  # noqa: F401
from repro.cluster.row import Row
from repro.faults.injector import FaultInjector, FaultStats
from repro.fleet import BudgetLedger, FleetConfig, FleetCoordinator, RowBudget
from repro.fleet.coordinator import CoordinatorStats
from repro.sim.audit import AuditStats
from repro.sim.eventlog import ControlEventLog
from repro.sim.staged import RunWindow, StagedRun
from repro.sim.testbed import Testbed, WorkloadSpec
from repro.telemetry import MetricsRegistry
from repro.tenancy import TenancyStats, assign_to_tenants


@dataclass(frozen=True)
class FleetRowSpec:
    """Size and workload of one row in a fleet experiment (the size is
    checked where :class:`~repro.sim.testbed.Testbed` builds the row)."""

    n_servers: int = 200
    workload: WorkloadSpec = WorkloadSpec()


@dataclass(frozen=True)
class FleetExperimentConfig(RunWindow):
    """Configuration of one multi-row fleet run.

    Breakers are armed regardless of ``safety``; setting it adds the
    supervisor and its curve/interval overrides. With ``tenancy`` set,
    rows are assigned to tenants by position via the share-weighted
    interleave, and the ``fair`` fleet policy water-fills tenant
    entitlements before rows. The auditor checks the budget ledger in
    addition to the single-row checks.
    """

    rows: Tuple[FleetRowSpec, ...] = (FleetRowSpec(), FleetRowSpec())
    fleet: FleetConfig = FleetConfig()
    #: False runs the same fleet with no coordinator at all -- the
    #: reference the `static` policy must be bit-identical to
    coordinator_enabled: bool = True

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("fleet experiment needs at least one row")
        object.__setattr__(self, "rows", tuple(self.rows))
        super().__post_init__()


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
    #: copy of the run's metrics registry at collect time (None unless
    #: ``telemetry_enabled``)
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

    The lifecycle, the control-plane builders, the snapshot frame and
    the service surface are :class:`~repro.sim.staged.StagedRun`'s; this
    class takes its rows, schedulers and workload streams from a
    multi-row :class:`~repro.sim.testbed.Testbed` (and so its seed
    contract), builds the budget plane, and collects.
    """

    SNAPSHOT_KIND = "fleet"
    #: perfbench/tracer.py wraps ``FleetExperiment.__dict__["snapshot"]``;
    #: this alias keeps the name on the class without a second body
    snapshot = StagedRun.snapshot

    def __init__(self, config: FleetExperimentConfig = FleetExperimentConfig()):
        super().__init__(config)
        self.testbed = Testbed(
            rows=[spec.n_servers for spec in config.rows],
            seed=config.seed,
            telemetry=self.telemetry,
        )
        self.engine = self.testbed.engine
        self.state = self.testbed.state
        self.monitor = self.testbed.monitor
        self.throughput = self.testbed.throughput
        self.rows: List[Row] = self.testbed.rows
        for row in self.rows:
            row.set_over_provision_ratio(config.over_provision_ratio)
            self._groups[row.name] = row
        facility_budget = sum(row.power_budget_watts for row in self.rows)
        self.monitor.register_groups(self.rows)
        self.monitor.set_facility_budget(facility_budget)

        self.event_log = ControlEventLog(self.engine, telemetry=self.telemetry)

        if config.faults is not None:
            self.injector = FaultInjector(self.engine, config.faults)

        # --- per-row control planes -----------------------------------
        ledger_rows: List[RowBudget] = []
        for row, scheduler in zip(self.rows, self.testbed.schedulers):
            self._schedulers[row.name] = scheduler
            self.throughput.track(row)
            self.event_log.attach_scheduler(scheduler)
            self._build_controller(row, scheduler)

            rating = row.power_budget_watts * config.fleet.rating_headroom
            ledger_rows.append(
                RowBudget(
                    name=row.name,
                    rating_watts=rating,
                    static_watts=row.power_budget_watts,
                )
            )
            self._build_breaker(row, scheduler, rating_watts=rating)
            self._build_supervisor(row, scheduler, rating_watts=rating)

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
        self.ledger = BudgetLedger(facility_budget, ledger_rows)
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
        self._finish_build()

    def _attach_injector(self, injector: FaultInjector) -> None:
        injector.attach_monitor(self.monitor)
        if self.coordinator is not None:
            injector.attach_coordinator(self.coordinator)

    def _start_workload(self, end: float) -> None:
        for index, (row, spec) in enumerate(zip(self.rows, self.config.rows)):
            profile = self.testbed.build_rate_profile(spec.workload, end, row=index)
            tenant = self.tenant_of_row.get(row.name)
            if self.injector is not None:
                profile = self.injector.wrap_rate_profile(profile)
                if tenant is not None:
                    profile = self.injector.wrap_rate_profile_for_tenant(
                        profile, tenant
                    )
            self.testbed.add_batch_workload(
                spec.workload, end, profile=profile, tenant=tenant, row=index
            ).start(end)

    def _start_extras(self, end: float, warmup: float) -> None:
        if self.coordinator is not None:
            # First tick one full cadence after control begins, so the
            # demand window has data before the first reallocation.
            interval = self.config.ampere.control_interval
            self.coordinator.start(
                end,
                interval,
                first_at=warmup + self.config.fleet.cadence_intervals * interval,
            )

    def _collect(self, warmup: float, end: float) -> FleetResult:
        config = self.config
        interval = config.ampere.control_interval
        outcomes: List[FleetRowOutcome] = []
        breaker_stats: Dict[str, BreakerStats] = {}
        for row, spec in zip(self.rows, config.rows):
            outcome = self._window_outcome(row.name, warmup, end)
            stats = self._breakers[row.name].stats_snapshot()
            breaker_stats[row.name] = stats
            budget = self.ledger.row(row.name)
            u_integral = self._controllers[row.name].state_of(row.name).u_integral
            outcomes.append(
                FleetRowOutcome(
                    name=row.name,
                    summary=outcome.summary,
                    static_budget_watts=budget.static_watts,
                    final_allocation_watts=budget.allocation_watts,
                    rating_watts=budget.rating_watts,
                    frozen_server_minutes=u_integral * spec.n_servers * interval / 60.0,
                    breaker_trips=stats.trips,
                    mean_wait_seconds=outcome.mean_wait_seconds,
                    p99_wait_seconds=outcome.p99_wait_seconds,
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
