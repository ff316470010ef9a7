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

from dataclasses import dataclass, replace
from typing import Dict, Optional

import numpy as np

from repro.analysis.metrics import (
    FacilitySummary,
    gain_in_tpw,
    summarize_facility_series,
    throughput_ratio,
)
from repro.cluster.breaker import BreakerStats, RowBreaker
from repro.cluster.capping import CappingEngine, CappingStats
from repro.core.controller import AmpereController, ControllerHealth
from repro.core.demand import DemandEstimator
from repro.core.safety import SafetyStats, SafetySupervisor
from repro.faults.injector import FaultInjector, FaultStats
from repro.scheduler.policies import PlacementPolicy
from repro.sim.audit import AuditStats
from repro.sim.eventlog import ControlEventLog
from repro.sim.staged import CAPPING_INTERVAL_SECONDS, GroupOutcome, RunWindow, StagedRun
from repro.sim.testbed import Testbed, WorkloadSpec
from repro.telemetry import MetricsRegistry
from repro.tenancy import FairShareFreezePolicy, TenancyStats, assign_to_tenants
from repro.workload.generator import ScaledRateProfile


@dataclass(frozen=True)
class ExperimentConfig(RunWindow):
    """Configuration of one controlled experiment run.

    Without ``safety`` no breaker model is armed: overload is only
    counted, never punished.
    """

    duration_hours: float = 24.0
    n_servers: int = 400
    scale_control_budget: bool = True
    workload: WorkloadSpec = WorkloadSpec()
    ampere_enabled: bool = True
    capping_enabled: bool = False
    placement_policy: Optional[PlacementPolicy] = None


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
    #: copy of the run's metrics registry at collect time (None unless
    #: ``telemetry_enabled``); plain sim-deterministic series, so it
    #: pickles and merges without the run
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

    def to_dict(self) -> dict:
        """The result's JSON document without the per-sample series."""
        from repro.analysis.serialize import result_to_dict

        return result_to_dict(self, include_series=False)


class ControlledExperiment(StagedRun):
    """Build, run and summarize one controlled experiment.

    The lifecycle, the control-plane builders, the snapshot frame and
    the service surface are :class:`~repro.sim.staged.StagedRun`'s; this
    class builds the parity-split testbed, its workload and its collect.
    """

    SNAPSHOT_KIND = "experiment"
    #: perfbench/tracer.py wraps ``ControlledExperiment.__dict__["snapshot"]``;
    #: this alias keeps the name on the class without a second body
    snapshot = StagedRun.snapshot

    def __init__(
        self,
        config: ExperimentConfig = ExperimentConfig(),
        demand_estimator: Optional[DemandEstimator] = None,
    ) -> None:
        super().__init__(config)
        self.testbed = Testbed(
            rows=(config.n_servers,),
            seed=config.seed,
            placement_policy=config.placement_policy,
            telemetry=self.telemetry,
        )
        self.engine = self.testbed.engine
        self.state = self.testbed.state
        self.monitor = self.testbed.monitor
        self.throughput = self.testbed.throughput
        scheduler = self.testbed.scheduler
        self.experiment_group, self.control_group = self.testbed.split_by_parity()
        self.experiment_group.set_over_provision_ratio(config.over_provision_ratio)
        if config.scale_control_budget:
            self.control_group.set_over_provision_ratio(config.over_provision_ratio)
        groups = (self.experiment_group, self.control_group)
        self.monitor.register_groups(list(groups))
        for group in groups:
            self.throughput.track(group)
            self._groups[group.name] = group
            self._schedulers[group.name] = scheduler

        # The audit trail: control actions (freeze/fail/shed/...) plus
        # breaker trips, timestamped on the simulation clock. Listeners
        # consume no randomness, so attaching it never perturbs runs.
        self.event_log = ControlEventLog(self.engine, telemetry=self.telemetry)
        self.event_log.attach_scheduler(scheduler)

        # Multi-tenancy: tenants are assigned per group, so each group's
        # tenant mix matches the configured shares exactly -- assigning
        # across the parity split would alias the share interleave
        # against even/odd ids.
        freeze_policy: Optional[FairShareFreezePolicy] = None
        if config.tenancy is not None:
            assignments = []
            for group in groups:
                servers = sorted(group.servers, key=lambda s: s.server_id)
                assigned = assign_to_tenants(
                    [s.server_id for s in servers], config.tenancy
                )
                assignments += [(s, assigned[s.server_id]) for s in servers]
            self._wire_tenancy(assignments)
            if config.tenancy.policy == "fair":
                freeze_policy = FairShareFreezePolicy(
                    self.tenant_of,
                    config.tenancy.weights(),
                    config.tenancy.names,
                )

        if config.faults is not None:
            self.injector = FaultInjector(self.engine, config.faults)
        self.controller: Optional[AmpereController] = None
        if config.ampere_enabled:
            # The controller's RPCs cross the fault layer when a scenario
            # is configured; everything else (workload submission,
            # completion events) uses the real scheduler, since the
            # injected faults model the *control* path.
            rpc_path = scheduler
            if self.injector is not None:
                rpc_path = self.injector.wrap_scheduler(scheduler)
            self.controller = self._build_controller(
                self.experiment_group,
                rpc_path,
                demand_estimator=demand_estimator,
                freeze_policy=freeze_policy,
            )
        if config.capping_enabled:
            self.capping = CappingEngine(
                self.experiment_group, self.engine, interval=CAPPING_INTERVAL_SECONDS
            )

        # Breaker physics + the emergency ladder protect the experiment
        # group only: it is the one whose scaled budget emulates the row
        # feed Ampere controls; the control group is the measurement
        # baseline and must stay consequence-free to remain comparable.
        self.breaker: Optional[RowBreaker] = None
        self.safety: Optional[SafetySupervisor] = None
        if config.safety is not None:
            self.breaker = self._build_breaker(self.experiment_group, scheduler)
            self.safety = self._build_supervisor(
                self.experiment_group, scheduler, capping=self.capping
            )
        self._finish_build()

    def _attach_injector(self, injector: FaultInjector) -> None:
        injector.attach_monitor(self.monitor)
        if self.controller is not None:
            injector.attach_controller(self.controller)
        # Data-plane hazards (server failures) act on the real
        # scheduler: hardware does not fail "in transit".
        injector.attach_cluster(self.testbed.scheduler)

    def _start_workload(self, end: float) -> None:
        config = self.config
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

    def _collect(self, warmup: float, end: float) -> ExperimentResult:
        experiment = self._window_outcome(self.experiment_group.name, warmup, end)
        control = self._window_outcome(self.control_group.name, warmup, end)
        r_t = throughput_ratio(experiment.throughput, control.throughput)
        g_tpw = gain_in_tpw(r_t, self.config.over_provision_ratio)
        facility: Optional[FacilitySummary] = None
        try:
            _, facility_power = self.monitor.facility_power_series(
                start=warmup, end=end
            )
        except KeyError:
            facility_power = np.empty(0)
        if len(facility_power):
            facility = summarize_facility_series(
                self.monitor.facility_budget_watts, facility_power
            )
        return ExperimentResult(
            config=self.config,
            experiment=experiment,
            control=control,
            r_t=r_t,
            g_tpw=g_tpw,
            capping_stats=self.capping.stats if self.capping is not None else None,
            breaker_stats=(
                self.breaker.stats_snapshot() if self.breaker is not None else None
            ),
            safety_stats=(
                self.safety.stats_snapshot() if self.safety is not None else None
            ),
            controller_health=(
                self.controller.health if self.controller is not None else None
            ),
            facility=facility,
            **self._shared_result_fields(),
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
