"""The controlled A/B experiment of Section 4.1.2.

Servers are split into an *experiment* group and a *control* group by the
parity of their ids, both fed by the same scheduler, so the groups see
statistically identical workload. Over-provisioning is emulated by scaling
the power budget down (Eq. 16): with budget ``P'_M = rated/(1 + r_O)`` the
group behaves exactly as if ``r_O`` extra servers had been packed into a
fixed budget. Ampere controls only the experiment group; any divergence
between the groups is therefore the effect of the control.

Two scaling modes match the paper's two uses of the harness:

- ``scale_control_budget=True`` (Section 4.2): both groups' budgets are
  scaled, so violation counts can be compared like-for-like.
- ``scale_control_budget=False`` (Section 4.4): only the experiment
  group's budget is scaled; the control group represents conservative
  rated-power provisioning and the throughput ratio ``r_T`` feeds the
  G_TPW estimate of Eq. 18.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.analysis.metrics import (
    FacilitySummary,
    GroupRunSummary,
    gain_in_tpw,
    summarize_facility_series,
    summarize_power_series,
    throughput_ratio,
)
from repro.cluster.breaker import BreakerStats, RowBreaker
from repro.cluster.capping import CappingEngine, CappingStats
from repro.cluster.group import ServerGroup
from repro.core.config import AmpereConfig
from repro.core.controller import AmpereController, ControllerHealth
from repro.core.demand import ConstantDemandEstimator, DemandEstimator
from repro.core.freeze_model import DEFAULT_K_R, FreezeEffectModel
from repro.core.safety import SafetyConfig, SafetyStats, SafetySupervisor
from repro.faults.injector import FaultInjector, FaultStats
from repro.faults.scenario import FaultScenario
from repro.scheduler.base import InstrumentedScheduler, SchedulerInterface
from repro.scheduler.policies import PlacementPolicy
from repro.sim.audit import AuditStats, AuditorConfig, StateAuditor
from repro.sim.eventlog import ControlEventLog
from repro.sim.testbed import Testbed, WorkloadSpec
from repro.telemetry import MetricsRegistry, Telemetry
from repro.tenancy import (
    FairShareFreezePolicy,
    TenancyAccountant,
    TenancyConfig,
    TenancyStats,
    assign_to_tenants,
)
from repro.workload.generator import ScaledRateProfile

SECONDS_PER_HOUR = 3600.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of one controlled experiment run."""

    n_servers: int = 400
    duration_hours: float = 24.0
    warmup_hours: float = 1.0
    over_provision_ratio: float = 0.25
    scale_control_budget: bool = True
    workload: WorkloadSpec = WorkloadSpec()
    ampere_enabled: bool = True
    capping_enabled: bool = False
    ampere: AmpereConfig = AmpereConfig()
    k_r: float = DEFAULT_K_R
    capping_interval_seconds: float = 5.0
    monitor_noise_sigma: float = 0.01
    placement_policy: Optional[PlacementPolicy] = None
    seed: int = 0
    #: control-plane fault schedule (None = the perfect control plane)
    faults: Optional[FaultScenario] = None
    #: breaker physics + emergency ladder (None = no breaker model, the
    #: pre-PR-4 behaviour where overload is only counted, never punished)
    safety: Optional[SafetyConfig] = None
    #: collect metrics and spans for this run (off by default; the
    #: disabled path is a shared no-op and never perturbs trajectories)
    telemetry_enabled: bool = False
    #: online state-invariant auditor (None = off). The auditor observes
    #: only -- enabling it at any sampling rate leaves trajectories
    #: byte-identical (see tests/test_auditor.py).
    auditor: Optional[AuditorConfig] = None
    #: multi-tenant mix and freeze-fairness policy (None = untenanted;
    #: the legacy single-tenant path stays bit-identical, see
    #: tests/test_tenancy.py)
    tenancy: Optional[TenancyConfig] = None

    def __post_init__(self) -> None:
        if self.duration_hours <= 0:
            raise ValueError(f"duration_hours must be positive, got {self.duration_hours}")
        if self.warmup_hours < 0:
            raise ValueError(f"warmup_hours must be non-negative, got {self.warmup_hours}")
        if self.over_provision_ratio < 0:
            raise ValueError(
                f"over_provision_ratio must be non-negative, got {self.over_provision_ratio}"
            )

    @property
    def warmup_seconds(self) -> float:
        return self.warmup_hours * SECONDS_PER_HOUR

    @property
    def end_seconds(self) -> float:
        return (self.warmup_hours + self.duration_hours) * SECONDS_PER_HOUR


@dataclass
class GroupOutcome:
    """Measured behaviour of one group during the measurement window.

    Plain dataclass of scalars and numpy arrays, so it pickles and can
    cross a process boundary; :meth:`without_series` drops the bulky
    arrays when only the summary needs to travel (the campaign worker
    boundary ships rows, not series).
    """

    summary: GroupRunSummary
    power_times: np.ndarray
    normalized_power: np.ndarray
    throughput: int
    u_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    u_values: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: scheduling-queue wait of jobs accepted by this group (seconds);
    #: freezing shows up here, never in running jobs
    mean_wait_seconds: float = 0.0
    p99_wait_seconds: float = 0.0

    def without_series(self) -> "GroupOutcome":
        """A copy with the per-sample series dropped (cheap to pickle)."""
        return replace(
            self,
            power_times=np.empty(0),
            normalized_power=np.empty(0),
            u_times=np.empty(0),
            u_values=np.empty(0),
        )


@dataclass
class ExperimentResult:
    """Everything the evaluation needs from one run.

    Both the config and the result are built purely from dataclasses,
    scalars and numpy arrays, so they round-trip through ``pickle`` --
    the contract the parallel campaign runner relies on. Workers should
    still prefer :meth:`without_series` (or campaign rows) to keep the
    inter-process payload small.
    """

    config: ExperimentConfig
    experiment: GroupOutcome
    control: GroupOutcome
    r_t: float
    g_tpw: float
    capping_stats: Optional[CappingStats] = None
    #: what the fault injector actually did (None for fault-free runs)
    fault_stats: Optional[FaultStats] = None
    #: breaker activity (None when no safety config was set)
    breaker_stats: Optional[BreakerStats] = None
    #: what the emergency ladder did (None when the supervisor was off)
    safety_stats: Optional[SafetyStats] = None
    #: the controller's defensive-action telemetry (None when disabled)
    controller_health: Optional[ControllerHealth] = None
    #: metrics registry of the run (None unless ``telemetry_enabled``);
    #: holds only sim-deterministic series, so it pickles and merges
    telemetry: Optional[MetricsRegistry] = None
    #: facility-level power vs the summed group budgets (additive field;
    #: None only for results deserialized from older payloads)
    facility: Optional[FacilitySummary] = None
    #: what the online auditor saw (None when the auditor was off)
    audit_stats: Optional[AuditStats] = None
    #: per-tenant fairness accounting (None for untenanted runs)
    tenancy: Optional[TenancyStats] = None

    def violations(self) -> dict:
        return {
            "experiment": self.experiment.summary.violations,
            "control": self.control.summary.violations,
        }

    def without_series(self) -> "ExperimentResult":
        """A lightweight copy for process boundaries: summaries and
        scalar metrics survive, the per-sample series are dropped."""
        return replace(
            self,
            experiment=self.experiment.without_series(),
            control=self.control.without_series(),
        )


class ControlledExperiment:
    """Build, run and summarize one controlled experiment."""

    def __init__(
        self,
        config: ExperimentConfig = ExperimentConfig(),
        demand_estimator: Optional[DemandEstimator] = None,
    ) -> None:
        self.config = config
        self.telemetry = (
            Telemetry.create() if config.telemetry_enabled else Telemetry.disabled()
        )
        self.testbed = Testbed(
            n_servers=config.n_servers,
            seed=config.seed,
            monitor_noise_sigma=config.monitor_noise_sigma,
            placement_policy=config.placement_policy,
            telemetry=self.telemetry,
        )
        self.experiment_group, self.control_group = self.testbed.split_by_parity()
        self.experiment_group.set_over_provision_ratio(config.over_provision_ratio)
        if config.scale_control_budget:
            self.control_group.set_over_provision_ratio(config.over_provision_ratio)
        self.testbed.monitor.register_groups(
            [self.experiment_group, self.control_group]
        )
        self.testbed.throughput.track(self.experiment_group)
        self.testbed.throughput.track(self.control_group)

        # Multi-tenancy: tag servers with owning tenants (per group, so
        # each group's tenant mix matches the configured shares exactly
        # -- assigning across the parity split would alias the share
        # interleave against even/odd ids) and attach the accountant.
        # Pure bookkeeping: no RNG, no scheduled events.
        self.tenant_of: Dict[int, str] = {}
        self.accountant: Optional[TenancyAccountant] = None
        freeze_policy: Optional[FairShareFreezePolicy] = None
        if config.tenancy is not None:
            ordinal = {
                name: index + 1 for index, name in enumerate(config.tenancy.names)
            }
            for group in (self.experiment_group, self.control_group):
                servers = sorted(group.servers, key=lambda s: s.server_id)
                assigned = assign_to_tenants(
                    [s.server_id for s in servers], config.tenancy
                )
                for server in servers:
                    tenant = assigned[server.server_id]
                    self.tenant_of[server.server_id] = tenant
                    server.tenant_id = ordinal[tenant]
            self.accountant = TenancyAccountant(
                self.testbed.engine,
                config.tenancy,
                self.tenant_of,
                telemetry=self.telemetry,
            )
            self.testbed.scheduler.control_listeners.append(
                self.accountant.on_control_event
            )
            if config.tenancy.policy == "fair":
                freeze_policy = FairShareFreezePolicy(
                    self.tenant_of,
                    config.tenancy.weights(),
                    config.tenancy.names,
                )

        # The controller talks to the scheduler through the fault layer
        # when a scenario is configured; everything else (workload
        # submission, completion events) uses the real scheduler, since
        # the injected faults model the *control* path.
        self.injector: Optional[FaultInjector] = None
        controller_scheduler: SchedulerInterface = self.testbed.scheduler
        if config.faults is not None:
            self.injector = FaultInjector(self.testbed.engine, config.faults)
            controller_scheduler = self.injector.wrap_scheduler(
                self.testbed.scheduler
            )
            self.injector.attach_monitor(self.testbed.monitor)
            # Data-plane hazards (server failures) act on the real
            # scheduler: hardware does not fail "in transit".
            self.injector.attach_cluster(self.testbed.scheduler)
        # Instrumentation wraps the fault layer so the RPC metrics see
        # exactly what the controller experiences, including injected
        # failures. A no-op when telemetry is disabled.
        controller_scheduler = InstrumentedScheduler(
            controller_scheduler, self.telemetry
        )

        self.controller: Optional[AmpereController] = None
        if config.ampere_enabled:
            self.controller = AmpereController(
                self.testbed.engine,
                controller_scheduler,
                self.testbed.monitor,
                [self.experiment_group],
                config=config.ampere,
                freeze_model=FreezeEffectModel(config.k_r),
                demand_estimator=(
                    demand_estimator
                    if demand_estimator is not None
                    else ConstantDemandEstimator(config.ampere.default_e_t)
                ),
                telemetry=self.telemetry,
                freeze_policy=freeze_policy,
            )
        if self.injector is not None and self.controller is not None:
            self.injector.attach_controller(self.controller)
        self.capping: Optional[CappingEngine] = None
        if config.capping_enabled:
            self.capping = CappingEngine(
                self.experiment_group,
                self.testbed.engine,
                interval=config.capping_interval_seconds,
            )

        # The audit trail: control actions (freeze/fail/shed/...) plus
        # breaker trips, timestamped on the simulation clock. Listeners
        # consume no randomness, so attaching it never perturbs runs.
        self.event_log = ControlEventLog(
            self.testbed.engine, telemetry=self.telemetry
        )
        self.event_log.attach_scheduler(self.testbed.scheduler)
        if self.accountant is not None:
            self.event_log.attach_tenant_resolver(self.accountant.resolve)

        # Breaker physics + the emergency ladder protect the experiment
        # group only: it is the one whose scaled budget emulates the row
        # feed Ampere controls; the control group is the measurement
        # baseline and must stay consequence-free to remain comparable.
        self.breaker: Optional[RowBreaker] = None
        self.safety: Optional[SafetySupervisor] = None
        if config.safety is not None:
            self.breaker = RowBreaker(
                self.experiment_group,
                self.testbed.engine,
                self.testbed.scheduler,
                curve=config.safety.breaker,
                interval=config.safety.breaker_interval_seconds,
                reset_delay_seconds=config.safety.breaker_reset_minutes * 60.0,
                event_log=self.event_log,
                telemetry=self.telemetry,
            )
            if config.safety.supervisor_enabled:
                # The supervisor needs a capping engine for its CRITICAL
                # slam even when reactive capping is not running; an
                # unstarted engine provides slam/restore surfaces only.
                emergency_capping = self.capping or CappingEngine(
                    self.experiment_group,
                    self.testbed.engine,
                    interval=config.capping_interval_seconds,
                )
                self.safety = SafetySupervisor(
                    self.testbed.engine,
                    self.experiment_group,
                    self.testbed.scheduler,
                    emergency_capping,
                    config=config.safety,
                    breaker=self.breaker,
                    event_log=self.event_log,
                    telemetry=self.telemetry,
                )
        # The online auditor is built here (not lazily) so a durable
        # snapshot carries it like every other component.
        self.auditor: Optional[StateAuditor] = None
        if config.auditor is not None:
            self.auditor = self.build_auditor(config.auditor)
        self._started = False
        self._ran = False
        self._result: Optional[ExperimentResult] = None

    # ------------------------------------------------------------------
    # Staged execution: start() arms everything, advance() moves simulated
    # time, finish() collects. run() composes the three; the split exists
    # so a run can be snapshotted at any advance() boundary and resumed
    # byte-identically (see repro.durability).
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm workload, monitoring, control and safety services.

        Consumes no simulated time; call :meth:`advance` to move the
        clock. Idempotence is refused -- services must not double-arm.
        """
        if self._started:
            raise RuntimeError("experiment already started")
        self._started = True
        config = self.config
        end = config.end_seconds
        warmup = config.warmup_seconds

        profile = self.testbed.build_rate_profile(config.workload, end)
        if self.injector is not None:
            # Demand surges wrap the profile (pure, RNG-free): without
            # surges in the scenario the workload stream is bit-identical
            # to a fault-free run.
            profile = self.injector.wrap_rate_profile(profile)
        if config.tenancy is None:
            generators = [
                self.testbed.add_batch_workload(config.workload, end, profile=profile)
            ]
        else:
            # One generator per tenant, each reading the same shaped
            # profile scaled by the tenant's entitlement: the summed
            # arrival rate matches the untenanted run, and because every
            # profile is a pure function of time, both A/B arms (blind
            # vs fair) see the exact same job stream.
            entitlements = config.tenancy.entitlements()
            generators = []
            for spec in config.tenancy.tenants:
                tenant_profile: object = ScaledRateProfile(
                    profile, entitlements[spec.name]
                )
                if self.injector is not None:
                    tenant_profile = self.injector.wrap_rate_profile_for_tenant(
                        tenant_profile, spec.name
                    )
                generators.append(
                    self.testbed.add_batch_workload(
                        config.workload,
                        end,
                        profile=tenant_profile,
                        tenant=spec.name,
                    )
                )
        for generator in generators:
            generator.start(end)
        # Monitoring, control, safety and capping begin after warm-up so
        # the measurement window starts from steady state.
        self.testbed.monitor.start(end, first_at=warmup)
        if self.controller is not None:
            self.controller.start(end, first_at=warmup)
        if self.safety is not None:
            self.safety.start(end, first_at=warmup)
        if self.capping is not None:
            self.capping.start(end, first_at=warmup)
        if self.breaker is not None:
            self.breaker.start(end, first_at=warmup)
        if self.auditor is not None:
            self.auditor.start(end, first_at=warmup)
        if self.injector is not None:
            self.injector.arm(end)

    def advance(self, until: Optional[float] = None) -> None:
        """Run simulated time forward to ``until`` (default: the horizon).

        Consecutive calls compose exactly (events *at* the boundary stay
        pending), so ``advance(T); advance(end)`` is byte-identical to
        ``advance(end)`` -- the property snapshots rely on.
        """
        if not self._started:
            self.start()
        end = self.config.end_seconds
        target = end if until is None else min(float(until), end)
        self.testbed.engine.run(until=target)

    def finish(self) -> ExperimentResult:
        """Run any remaining simulated time and collect the outcomes.

        Idempotent: repeated calls return the same cached result without
        re-collecting (no double-emitted report rows), so a graceful
        shutdown can always call ``finish()`` regardless of whether the
        run already completed. Works from any :meth:`advance` point.
        """
        if self._ran:
            return self._result
        self.advance()
        self._ran = True
        self._result = self._collect(
            self.config.warmup_seconds, self.config.end_seconds
        )
        return self._result

    def run(self) -> ExperimentResult:
        """Execute the experiment and return measured outcomes."""
        if self._ran or self._started:
            raise RuntimeError("experiment already ran; build a new instance")
        self.start()
        return self.finish()

    # ------------------------------------------------------------------
    # Durable snapshots (see repro.durability for the frame format)
    # ------------------------------------------------------------------
    #: frame kind tag; restore() refuses frames of any other kind
    SNAPSHOT_KIND = "experiment"

    def _snapshot_meta(self) -> dict:
        # Deterministic descriptors only -- no wall-clock -- so the same
        # state always frames to the same bytes.
        return {
            "sim_now": self.testbed.engine.now,
            "n_servers": self.config.n_servers,
            "seed": self.config.seed,
            "started": self._started,
        }

    def snapshot(self) -> bytes:
        """Serialize the complete live run into a versioned frame.

        Captures everything: cluster-state columns, RNG streams, the
        event heap, controller/supervisor state and telemetry. Restoring
        and running to the horizon is byte-identical to never having
        stopped (proven in tests/test_durability.py, under chaos). Must
        be called between :meth:`advance` calls, not from inside an event
        callback.
        """
        if self.testbed.engine._running:
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
    def restore(cls, source: Union[bytes, str, Path]) -> "ControlledExperiment":
        """Rebuild a live experiment from a snapshot (bytes or a path).

        The result continues exactly where the original stood: call
        :meth:`advance`/:meth:`finish` to complete the run.
        """
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
        """A :class:`StateAuditor` wired to this run's surfaces.

        Used both for the in-run auditor (``config.auditor``) and by
        ``repro verify-snapshot`` to audit a restored run on demand.
        """
        return StateAuditor(
            self.testbed.engine,
            state=self.testbed.state,
            schedulers=[self.testbed.scheduler],
            supervisors=[self.safety] if self.safety is not None else [],
            config=config if config is not None else AuditorConfig(),
            telemetry=self.telemetry,
        )

    # ------------------------------------------------------------------
    def _collect(self, warmup: float, end: float) -> ExperimentResult:
        experiment = self._collect_group(self.experiment_group, warmup, end)
        control = self._collect_group(self.control_group, warmup, end)
        r_t = throughput_ratio(experiment.throughput, control.throughput)
        g_tpw = gain_in_tpw(r_t, self.config.over_provision_ratio)
        facility: Optional[FacilitySummary] = None
        try:
            _, facility_power = self.testbed.monitor.facility_power_series(
                start=warmup, end=end
            )
        except KeyError:
            facility_power = np.empty(0)
        if len(facility_power):
            facility = summarize_facility_series(
                self.testbed.monitor.facility_budget_watts, facility_power
            )
        return ExperimentResult(
            config=self.config,
            experiment=experiment,
            control=control,
            r_t=r_t,
            g_tpw=g_tpw,
            capping_stats=self.capping.stats if self.capping is not None else None,
            fault_stats=(
                self.injector.stats_snapshot() if self.injector is not None else None
            ),
            breaker_stats=(
                self.breaker.stats_snapshot() if self.breaker is not None else None
            ),
            safety_stats=(
                self.safety.stats_snapshot() if self.safety is not None else None
            ),
            controller_health=(
                self.controller.health if self.controller is not None else None
            ),
            telemetry=self.telemetry.registry if self.telemetry.enabled else None,
            facility=facility,
            audit_stats=(
                self.auditor.stats_snapshot() if self.auditor is not None else None
            ),
            tenancy=(
                self.accountant.stats_snapshot()
                if self.accountant is not None
                else None
            ),
        )

    def _collect_group(
        self, group: ServerGroup, warmup: float, end: float
    ) -> GroupOutcome:
        times, norm = self.testbed.monitor.normalized_power_series(
            group.name, start=warmup, end=end
        )
        throughput = self.testbed.throughput.window_total(group.name, warmup, end)
        u_times = np.empty(0)
        u_values = np.empty(0)
        if self.controller is not None and group.name in self.controller.states:
            state = self.controller.state_of(group.name)
            u_times = np.asarray(state.u_times)
            u_values = np.asarray(state.u_history)
        summary = summarize_power_series(
            group.name,
            norm,
            u_history=u_values,
            throughput=throughput,
            budget=1.0,
        )
        record = self.testbed.throughput.records[group.name]
        return GroupOutcome(
            summary=summary,
            power_times=times,
            normalized_power=norm,
            throughput=throughput,
            u_times=u_times,
            u_values=u_values,
            mean_wait_seconds=record.mean_wait(),
            p99_wait_seconds=record.wait_percentile(99.0),
        )


def run_tenancy_ab(
    config: ExperimentConfig,
    policies: tuple = ("blind", "fair"),
) -> Dict[str, ExperimentResult]:
    """Run the same tenancy-enabled experiment once per freeze policy.

    All arms share the seed, the tenant mix and therefore (because
    arrivals are policy-independent) the exact same job stream -- the
    only difference is how the controller picks freeze victims. Returns
    ``{policy: result}``; compare ``result.tenancy.jain_index`` across
    arms for the fairness effect and ``result.g_tpw`` to check the
    capacity gain was not traded away.
    """
    if config.tenancy is None:
        raise ValueError("run_tenancy_ab needs config.tenancy set")
    results: Dict[str, ExperimentResult] = {}
    for policy in policies:
        cell = replace(config, tenancy=replace(config.tenancy, policy=policy))
        results[policy] = ControlledExperiment(cell).run()
    return results


__all__ = [
    "ExperimentConfig",
    "ControlledExperiment",
    "ExperimentResult",
    "GroupOutcome",
    "run_tenancy_ab",
]
