"""The fault injector: turns a scenario into scheduled engine events.

One injector per run. Control-plane seams: it wraps the scheduler (RPC
faults), toggles the monitor's outage flag (blackouts) and crash/restarts
the controller. Data-plane seams: it wraps the workload's rate profile
(demand surges), schedules sensor-bias windows against the monitor, and
drives the server crash/repair process (:mod:`repro.sim.failures`),
including MTBF step-changes for crash storms;
:meth:`FaultInjector.unattached_seams` names events that would land
nowhere, so a run can refuse them. Everything lands as
:class:`~repro.sim.events.EventPriority.FAULT` events so a fault
scheduled for minute *t* already shapes minute *t*'s observation and
control action, and everything is deterministic for a fixed scenario
seed: the RPC stream uses ``SeedSequence(seed)`` exactly as before this
module grew data-plane hazards, and the server-failure stream draws from
the independent ``SeedSequence((seed, 1))``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.rpc import FlakyScheduler
from repro.faults.scenario import FaultScenario
from repro.scheduler.base import SchedulerInterface
from repro.sim.engine import Engine
from repro.sim.events import EventPriority
from repro.sim.failures import ServerFailureInjector
from repro.workload.generator import RateProfile, SurgeRateProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.controller import AmpereController
    from repro.fleet.coordinator import FleetCoordinator
    from repro.monitor.power_monitor import PowerMonitor
    from repro.scheduler.omega import OmegaScheduler

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FaultStats:
    """Picklable snapshot of everything the injector actually did.

    Shipped inside :class:`~repro.sim.experiment.ExperimentResult`, so it
    crosses the campaign worker boundary like every other metric.
    """

    scenario: str
    blackouts_injected: int = 0
    samples_suppressed: int = 0
    rpc_calls: int = 0
    rpc_failures: int = 0
    crashes_injected: int = 0
    surge_windows: int = 0
    tenant_surge_windows: int = 0
    sensor_bias_windows: int = 0
    server_failures: int = 0
    server_repairs: int = 0
    jobs_killed_by_failures: int = 0
    coordinator_blackouts_injected: int = 0


class FaultInjector:
    """Schedules one scenario's faults against a run's control plane."""

    def __init__(self, engine: Engine, scenario: FaultScenario) -> None:
        self.engine = engine
        self.scenario = scenario
        self.rng = np.random.default_rng(np.random.SeedSequence(scenario.seed))
        self.flaky: Optional[FlakyScheduler] = None
        self.monitor: Optional["PowerMonitor"] = None
        self.controller: Optional["AmpereController"] = None
        #: the *real* cluster scheduler (not the RPC fault wrapper) --
        #: server failures are hardware events, they cannot "fail in
        #: transit" the way control RPCs do
        self.cluster_scheduler: Optional["OmegaScheduler"] = None
        self.failures: Optional[ServerFailureInjector] = None
        self.coordinator: Optional["FleetCoordinator"] = None
        #: tenants whose generators read profiles this injector wraps
        #: (None until :meth:`attach_workload`)
        self.workload_tenants: Optional[Tuple[str, ...]] = None
        self.blackouts_injected = 0
        self.coordinator_blackouts_injected = 0
        self.crashes_injected = 0
        self.surges_applied = 0
        self.tenant_surges_applied = 0
        self._armed = False

    # ------------------------------------------------------------------
    # Attachment (build time)
    # ------------------------------------------------------------------
    def wrap_scheduler(self, scheduler: SchedulerInterface) -> SchedulerInterface:
        """Put the RPC fault layer in front of ``scheduler``.

        The wrapper is installed even at a zero failure rate so RPC call
        accounting is uniform across scenarios.
        """
        self.flaky = FlakyScheduler(
            scheduler,
            rng=self.rng,
            failure_rate=self.scenario.rpc_failure_rate,
            latency_seconds=self.scenario.rpc_latency_seconds,
            timeout_seconds=self.scenario.rpc_timeout_seconds,
        )
        return self.flaky

    def attach_monitor(self, monitor: "PowerMonitor") -> None:
        self.monitor = monitor

    def attach_controller(self, controller: "AmpereController") -> None:
        self.controller = controller

    def attach_coordinator(self, coordinator: "FleetCoordinator") -> None:
        """Give the injector the fleet coordinator for blackout windows."""
        self.coordinator = coordinator

    def attach_cluster(self, scheduler: "OmegaScheduler") -> None:
        """Give the injector the real scheduler for data-plane hazards
        (server failures bypass the RPC fault layer by design)."""
        self.cluster_scheduler = scheduler

    def attach_workload(self, tenants: Sequence[str] = ()) -> None:
        """Declare that the run's generators (those of ``tenants`` in a
        tenanted run) will read profiles wrapped by this injector. Build
        time only: a running generator keeps its profile."""
        self.workload_tenants = tuple(tenants)

    def unattached_seams(self) -> List[str]:
        """Scenario fields with events but no attached target, by name
        (``server_failures`` stands for ``server_mtbf_hours`` and
        ``crash_storms``)."""
        scenario = self.scenario
        # A tenant surge lands only on a generator of the tenant it names.
        tenants = self.workload_tenants or ()
        stray_tenant_surges = [w for w in scenario.tenant_surges if w[0] not in tenants]
        seams = (
            ("blackouts", scenario.blackouts, self.monitor),
            ("sensor_bias", scenario.sensor_bias, self.monitor),
            ("rpc", scenario.rpc_failure_rate > 0, self.flaky),
            ("crash_times", scenario.crash_times, self.controller),
            ("server_failures", scenario.wants_server_failures, self.cluster_scheduler),
            ("surges", scenario.surges, self.workload_tenants),
            ("tenant_surges", stray_tenant_surges, None),
            ("coordinator_blackouts", scenario.coordinator_blackouts, self.coordinator),
        )
        return [name for name, events, target in seams if events and target is None]

    def wrap_rate_profile(self, profile: RateProfile) -> RateProfile:
        """Layer the scenario's demand surges over a workload profile.

        Pure wrapping -- no RNG is consumed, so a scenario without surges
        leaves the workload stream untouched bit for bit.
        """
        if not self.scenario.surges:
            return profile
        self.surges_applied = len(self.scenario.surges)
        return SurgeRateProfile(profile, self.scenario.surges)

    def wrap_rate_profile_for_tenant(
        self, profile: RateProfile, tenant: str
    ) -> RateProfile:
        """Layer the scenario's surges *for one tenant* over its profile.

        Tenancy-enabled runs call this once per tenant generator, after
        the shared :meth:`wrap_rate_profile` surges have been applied to
        the row-level profile. Pure and RNG-free like the shared wrap;
        windows naming other tenants are ignored.
        """
        windows = tuple(
            (start, duration, factor)
            for name, start, duration, factor in self.scenario.tenant_surges
            if name == tenant
        )
        if not windows:
            return profile
        self.tenant_surges_applied += len(windows)
        return SurgeRateProfile(profile, windows)

    # ------------------------------------------------------------------
    # Arming (run time)
    # ------------------------------------------------------------------
    def arm(self, until: float) -> None:
        """Schedule every fault event in ``[now, until)`` on the engine."""
        if self._armed:
            raise RuntimeError("injector already armed")
        self._armed = True
        now = self.engine.now
        if self.monitor is not None:
            for start, duration in self.scenario.blackouts:
                if start < now or start >= until:
                    continue
                self.engine.schedule(
                    start, EventPriority.FAULT, self._begin_blackout
                )
                self.engine.schedule(
                    start + duration, EventPriority.FAULT, self._end_blackout
                )
        if self.monitor is not None:
            for start, duration, factor in self.scenario.sensor_bias:
                if start < now or start >= until:
                    continue
                self.engine.schedule(
                    start, EventPriority.FAULT, self._begin_bias, factor
                )
                self.engine.schedule(
                    start + duration, EventPriority.FAULT, self._end_bias
                )
        if self.controller is not None:
            for crash_at in self.scenario.crash_times:
                if crash_at < now or crash_at >= until:
                    continue
                self.engine.schedule(crash_at, EventPriority.FAULT, self._crash)
                self.engine.schedule(
                    crash_at + self.scenario.restart_delay_seconds,
                    EventPriority.FAULT,
                    self._restart,
                )
        if self.coordinator is not None:
            for start, duration in self.scenario.coordinator_blackouts:
                if start < now or start >= until:
                    continue
                self.engine.schedule(
                    start, EventPriority.FAULT, self._begin_coordinator_blackout
                )
                self.engine.schedule(
                    start + duration,
                    EventPriority.FAULT,
                    self._end_coordinator_blackout,
                )
        if (
            self.cluster_scheduler is not None
            and self.scenario.wants_server_failures
        ):
            # Baseline churn rate; with storms-only scenarios the baseline
            # is effectively off (one failure per server per ~century).
            base_mtbf = self.scenario.server_mtbf_hours or 1_000_000.0
            self.failures = ServerFailureInjector(
                self.engine,
                self.cluster_scheduler,
                rng=np.random.default_rng(
                    np.random.SeedSequence((self.scenario.seed, 1))
                ),
                mtbf_hours=base_mtbf,
                mttr_minutes=self.scenario.server_mttr_minutes,
            )
            self.failures.start(until)
            for start, duration, storm_mtbf in self.scenario.crash_storms:
                if start < now or start >= until:
                    continue
                self.engine.schedule(
                    start, EventPriority.FAULT, self._begin_storm, storm_mtbf
                )
                self.engine.schedule(
                    start + duration, EventPriority.FAULT, self._end_storm, base_mtbf
                )

    def _begin_blackout(self) -> None:
        assert self.monitor is not None
        self.blackouts_injected += 1
        logger.info(
            "injecting monitoring blackout #%d at t=%.0fs",
            self.blackouts_injected,
            self.engine.now,
        )
        self.monitor.begin_outage()

    def _end_blackout(self) -> None:
        assert self.monitor is not None
        self.monitor.end_outage()

    def _crash(self) -> None:
        assert self.controller is not None
        self.crashes_injected += 1
        logger.info(
            "injecting controller crash #%d at t=%.0fs",
            self.crashes_injected,
            self.engine.now,
        )
        self.controller.crash()

    def _restart(self) -> None:
        assert self.controller is not None
        if self.controller.crashed:
            self.controller.recover()

    def _begin_bias(self, factor: float) -> None:
        assert self.monitor is not None
        self.monitor.set_sensor_bias(factor)

    def _end_bias(self) -> None:
        assert self.monitor is not None
        self.monitor.set_sensor_bias(1.0)

    def _begin_coordinator_blackout(self) -> None:
        assert self.coordinator is not None
        self.coordinator_blackouts_injected += 1
        logger.info(
            "injecting coordinator blackout #%d at t=%.0fs",
            self.coordinator_blackouts_injected,
            self.engine.now,
        )
        self.coordinator.blackout_begin()

    def _end_coordinator_blackout(self) -> None:
        assert self.coordinator is not None
        self.coordinator.blackout_end()

    def _begin_storm(self, storm_mtbf_hours: float) -> None:
        assert self.failures is not None
        logger.warning(
            "crash storm begins at t=%.0fs (per-server MTBF -> %.0fh)",
            self.engine.now,
            storm_mtbf_hours,
        )
        self.failures.set_mtbf_hours(storm_mtbf_hours)

    def _end_storm(self, base_mtbf_hours: float) -> None:
        assert self.failures is not None
        logger.info("crash storm ends at t=%.0fs", self.engine.now)
        self.failures.set_mtbf_hours(base_mtbf_hours)

    # ------------------------------------------------------------------
    def stats_snapshot(self) -> FaultStats:
        """Freeze the injector's counters into a picklable record."""
        return FaultStats(
            scenario=self.scenario.name,
            blackouts_injected=self.blackouts_injected,
            samples_suppressed=(
                self.monitor.samples_suppressed if self.monitor is not None else 0
            ),
            rpc_calls=self.flaky.stats.calls if self.flaky is not None else 0,
            rpc_failures=self.flaky.stats.failures if self.flaky is not None else 0,
            crashes_injected=self.crashes_injected,
            surge_windows=self.surges_applied,
            tenant_surge_windows=self.tenant_surges_applied,
            sensor_bias_windows=(
                self.monitor.bias_windows_applied if self.monitor is not None else 0
            ),
            server_failures=(
                self.failures.stats.failures if self.failures is not None else 0
            ),
            server_repairs=(
                self.failures.stats.repairs if self.failures is not None else 0
            ),
            jobs_killed_by_failures=(
                self.failures.stats.jobs_killed if self.failures is not None else 0
            ),
            coordinator_blackouts_injected=self.coordinator_blackouts_injected,
        )


__all__ = ["FaultInjector", "FaultStats"]
