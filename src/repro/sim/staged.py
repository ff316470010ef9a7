"""One staged-run core for every experiment shape.

The paper's evidence comes from one staged A/B harness (Section 4.1.2):
groups under scaled budgets, a warm-up, then a measured window. Both
shapes of it -- the single-row parity split
(:class:`~repro.sim.experiment.ControlledExperiment`) and the multi-row
facility (:class:`~repro.sim.fleet_experiment.FleetExperiment`) -- run
through the one :class:`StagedRun` written here:

- **Lifecycle.** :meth:`~StagedRun.start` arms every service once
  (:meth:`~StagedRun._arm`), :meth:`~StagedRun.advance` moves simulated
  time, :meth:`~StagedRun.finish` collects once (the shape's
  ``_collect``) and caches the result; :meth:`~StagedRun.run` composes
  them. Consecutive advances compose exactly, so a run can be
  snapshotted at any advance boundary and resumed byte-identically.
- **Snapshot frame.** :meth:`~StagedRun.snapshot` pickles the whole
  live run into a :mod:`repro.durability` frame tagged with the shape's
  ``SNAPSHOT_KIND``. Every subclass that declares a kind registers
  itself, and :func:`restore_run` picks the class from a frame's header,
  so no caller branches on the shape.
- **Control plane.** A shape builds its topology and registers its
  groups and schedulers; the ``_build_*`` methods build each group's
  controller, breaker and supervisor from the shared config
  (:class:`RunWindow`) and register them by group name. The auditor,
  the tenancy wiring and the service surface read only the registries.
- **Service surface.** A run is its own service surface:
  :mod:`repro.service` drives a StagedRun directly through
  :meth:`~StagedRun.groups`, :meth:`~StagedRun.scheduler_for`,
  :meth:`~StagedRun.controllers`, :meth:`~StagedRun.arm_faults` and
  friends.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, ClassVar, Dict, Iterable, List, Optional, Tuple, Type, Union

import numpy as np

from repro.analysis.metrics import GroupRunSummary, summarize_power_series
from repro.cluster.breaker import RowBreaker
from repro.cluster.capping import CappingEngine
from repro.core.config import AmpereConfig
from repro.core.controller import AmpereController
from repro.core.freeze_model import DEFAULT_K_R, FreezeEffectModel
from repro.core.safety import SafetyConfig, SafetySupervisor
from repro.faults.injector import FaultInjector
from repro.faults.scenario import FaultScenario
from repro.scheduler.base import InstrumentedScheduler
from repro.sim.audit import AuditorConfig, StateAuditor
from repro.telemetry import Telemetry
from repro.tenancy import TenancyAccountant, TenancyConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.group import ServerGroup
    from repro.cluster.server import Server
    from repro.cluster.state import ClusterState
    from repro.core.demand import DemandEstimator
    from repro.core.policy import FreezePolicy
    from repro.fleet.ledger import BudgetLedger
    from repro.monitor.power_monitor import PowerMonitor
    from repro.scheduler.base import SchedulerInterface
    from repro.scheduler.omega import OmegaScheduler
    from repro.sim.engine import Engine
    from repro.sim.eventlog import ControlEventLog
    from repro.sim.testbed import ThroughputTracker

SECONDS_PER_HOUR = 3600.0
#: tick of the reactive capping engine, and of the unstarted one a
#: safety supervisor slams when no reactive capping runs
CAPPING_INTERVAL_SECONDS = 5.0

#: snapshot kind -> run class, filled by ``StagedRun.__init_subclass__``
_KINDS: Dict[str, Type["StagedRun"]] = {}


@dataclass(frozen=True)
class RunWindow:
    """The config fields every staged run shares, and its time window.

    A shape's config is a frozen dataclass that subclasses this one and
    adds its topology and switches.
    """

    duration_hours: float = 8.0
    warmup_hours: float = 1.0
    over_provision_ratio: float = 0.25
    ampere: AmpereConfig = AmpereConfig()
    k_r: float = DEFAULT_K_R
    seed: int = 0
    #: control-plane fault schedule (None = the perfect control plane)
    faults: Optional[FaultScenario] = None
    #: breaker physics + emergency ladder (without it the single row
    #: arms no breaker, the fleet breakers at the ``SafetyConfig()``
    #: defaults)
    safety: Optional[SafetyConfig] = None
    #: collect metrics and spans for this run (off by default; the
    #: disabled path is a shared no-op and never perturbs trajectories)
    telemetry_enabled: bool = False
    #: online state-invariant auditor (None = off). The auditor observes
    #: only -- enabling it at any sampling rate leaves trajectories
    #: byte-identical (see tests/test_auditor.py).
    auditor: Optional[AuditorConfig] = None
    #: multi-tenant mix and freeze-fairness policy (None = untenanted;
    #: the single-tenant path stays bit-identical, see
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


class StagedRun:
    """Lifecycle, control-plane wiring, snapshot frame and service surface.

    A shape declares ``SNAPSHOT_KIND``; its constructor sets ``engine``,
    ``state``, ``monitor``, ``event_log``, ``throughput`` (and
    ``injector`` when ``config.faults`` is set), fills the registries
    and ends with :meth:`_finish_build`. It implements
    ``_start_workload``, ``_attach_injector`` and ``_collect``.
    """

    #: frame kind tag of the shape; ``restore()`` refuses other kinds
    SNAPSHOT_KIND: ClassVar[str] = ""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "SNAPSHOT_KIND" in cls.__dict__:
            _KINDS[cls.SNAPSHOT_KIND] = cls

    def __init__(self, config) -> None:
        self.config = config
        self.telemetry = (
            Telemetry.create() if config.telemetry_enabled else Telemetry.disabled()
        )
        # Set by the shape's constructor. Declared before the registries
        # so a snapshot pickles the engine (and through its heap the whole
        # run) before the dicts that only point into it; the other order
        # measured about 15% slower to encode.
        self.engine: Optional["Engine"] = None
        self.state: Optional["ClusterState"] = None
        self.monitor: Optional["PowerMonitor"] = None
        self.event_log: Optional["ControlEventLog"] = None
        self.throughput: Optional["ThroughputTracker"] = None
        # Per-group registries; the builders fill them.
        self._groups: Dict[str, "ServerGroup"] = {}
        self._schedulers: Dict[str, "OmegaScheduler"] = {}
        self._controllers: Dict[str, AmpereController] = {}
        self._breakers: Dict[str, RowBreaker] = {}
        self._supervisors: Dict[str, SafetySupervisor] = {}
        #: the reactive capping engine (single-row shapes only)
        self.capping: Optional[CappingEngine] = None
        #: the facility budget ledger (multi-row shapes only)
        self.ledger: Optional["BudgetLedger"] = None
        #: the injector of ``config.faults``, attached at build time
        self.injector: Optional[FaultInjector] = None
        #: injectors armed mid-run by :meth:`arm_faults`; run state, so a
        #: restored run still reports them
        self.runtime_injectors: List[FaultInjector] = []
        self.auditor: Optional[StateAuditor] = None
        self.tenant_of: Dict[int, str] = {}
        self.accountant: Optional[TenancyAccountant] = None
        self._started = False
        self._ran = False
        self._result = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm workload, monitoring, control and safety services.

        Consumes no simulated time; call :meth:`advance` to move the
        clock. A second call is refused -- services must not double-arm.
        """
        if self._started:
            raise RuntimeError("experiment already started")
        self._started = True
        self._arm(self.config.end_seconds, self.config.warmup_seconds)

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
        self.engine.run(until=target)

    def finish(self):
        """Run any remaining simulated time and collect the outcomes.

        Idempotent: repeated calls return the same cached result without
        re-collecting (no double-emitted report rows), so a graceful
        shutdown can always call ``finish()`` regardless of whether the
        run already completed. Works from any :meth:`advance` point.
        """
        if self._ran:
            return self._result
        self.advance()
        self._result = self._collect(
            self.config.warmup_seconds, self.config.end_seconds
        )
        self._ran = True
        return self._result

    def run(self):
        """Execute the run and return its measured outcomes."""
        if self._ran or self._started:
            raise RuntimeError("experiment already ran; build a new instance")
        self.start()
        return self.finish()

    def _arm(self, end: float, warmup: float) -> None:
        """Start every service once, in this order (from :meth:`start`).

        Monitoring, control and safety begin after warm-up so the
        measurement window starts from steady state. Each service type
        ticks at its own :class:`~repro.sim.events.EventPriority`, so the
        order only numbers heap entries; same-type services (one
        controller per row) tick in registry order.
        """
        self._start_workload(end)
        self.monitor.start(end, first_at=warmup)
        for controller in self._controllers.values():
            controller.start(end, first_at=warmup)
        for supervisor in self._supervisors.values():
            supervisor.start(end, first_at=warmup)
        if self.capping is not None:
            self.capping.start(end, first_at=warmup)
        for breaker in self._breakers.values():
            breaker.start(end, first_at=warmup)
        if self.auditor is not None:
            self.auditor.start(end, first_at=warmup)
        self._start_extras(end, warmup)
        if self.injector is not None:
            self.injector.arm(end)

    def _start_workload(self, end: float) -> None:
        """Build and start the shape's workload generators."""
        raise NotImplementedError

    def _start_extras(self, end: float, warmup: float) -> None:
        """Start services only this shape has (none by default)."""

    def _collect(self, warmup: float, end: float):
        """Summarize the measured window ``[warmup, end)`` into a result."""
        raise NotImplementedError

    def _window_outcome(self, group_name: str, warmup: float, end: float) -> GroupOutcome:
        """One group's power, freeze, throughput and queue waits over
        ``[warmup, end)``."""
        times, norm = self.monitor.normalized_power_series(group_name, start=warmup, end=end)
        throughput = self.throughput.window_total(group_name, warmup, end)
        u_times, u_values = np.empty(0), np.empty(0)
        controller = self._controllers.get(group_name)
        if controller is not None:
            state = controller.state_of(group_name)
            u_times = np.asarray(state.u_times)
            u_values = np.asarray(state.u_history)
        record = self.throughput.records[group_name]
        # The minutes window_total counts: placements in [warmup, end).
        window = (int(warmup // 60), int(end // 60))
        return GroupOutcome(
            summary=summarize_power_series(
                group_name, norm, u_history=u_values, throughput=throughput, budget=1.0
            ),
            power_times=times,
            normalized_power=norm,
            throughput=throughput,
            u_times=u_times,
            u_values=u_values,
            mean_wait_seconds=record.mean_wait(window),
            p99_wait_seconds=record.wait_percentile(99.0, window),
        )

    def _shared_result_fields(self) -> dict:
        """The result fields every shape reports the same way."""
        return {
            "fault_stats": (
                self.injector.stats_snapshot() if self.injector is not None else None
            ),
            "telemetry": (
                self.telemetry.registry.materialize() if self.telemetry.enabled else None
            ),
            "audit_stats": (
                self.auditor.stats_snapshot() if self.auditor is not None else None
            ),
            "tenancy": (
                self.accountant.stats_snapshot() if self.accountant is not None else None
            ),
        }

    # ------------------------------------------------------------------
    # Durable snapshots (see repro.durability for the frame format)
    # ------------------------------------------------------------------
    def snapshot(self) -> bytes:
        """Serialize the complete live run into a versioned frame.

        Captures everything: cluster-state columns, RNG streams, the
        event heap, controller/supervisor/ledger state, runtime-armed
        injectors and telemetry. Restoring and running to the horizon is
        byte-identical to never having stopped (tests/test_durability.py,
        tests/test_staged_run.py). Must be called between :meth:`advance`
        calls, not from inside an event callback.
        """
        if self.engine._running:
            raise RuntimeError(
                "cannot snapshot while the engine is running; snapshot "
                "between advance() calls"
            )
        from repro.durability import encode_snapshot

        # Deterministic descriptors only -- no wall-clock -- so the same
        # state always frames to the same bytes.
        meta = {
            "sim_now": self.engine.now,
            "n_servers": sum(len(g.servers) for g in self._groups.values()),
            "n_groups": len(self._groups),
            "seed": self.config.seed,
            "started": self._started,
        }
        return encode_snapshot(self, self.SNAPSHOT_KIND, meta)

    def save_snapshot(self, path: Union[str, Path]) -> int:
        """Atomically write :meth:`snapshot` to ``path``; returns bytes."""
        from repro.durability import atomic_write_bytes

        frame = self.snapshot()
        atomic_write_bytes(path, frame)
        return len(frame)

    @classmethod
    def restore(cls, source: Union[bytes, str, Path]) -> "StagedRun":
        """Rebuild a live run of this class from a frame (bytes or a path).

        The result continues exactly where the original stood: call
        :meth:`advance`/:meth:`finish` to complete the run.
        """
        from repro.durability import SnapshotError, decode_snapshot

        obj, _ = decode_snapshot(_frame_bytes(source), expected_kind=cls.SNAPSHOT_KIND)
        if not isinstance(obj, cls):
            raise SnapshotError(
                f"snapshot payload is {type(obj).__name__}, not {cls.__name__}"
            )
        return obj

    # ------------------------------------------------------------------
    # Control-plane builders: each reads the shared config and fills
    # its registry; a shape calls them per group, in its build order
    # ------------------------------------------------------------------
    def _build_controller(
        self,
        group: "ServerGroup",
        rpc_path: "SchedulerInterface",
        demand_estimator: Optional["DemandEstimator"] = None,
        freeze_policy: Optional["FreezePolicy"] = None,
    ) -> AmpereController:
        """Ampere's controller for ``group``, calling the scheduler
        through ``rpc_path`` (the fault layer's wrapper, when the shape
        routes RPCs through one) under instrumentation, so the RPC
        metrics see exactly what the controller experiences."""
        config = self.config
        controller = AmpereController(
            self.engine,
            InstrumentedScheduler(rpc_path, self.telemetry),
            self.monitor,
            [group],
            config=config.ampere,
            freeze_model=FreezeEffectModel(config.k_r),
            demand_estimator=demand_estimator,
            telemetry=self.telemetry,
            freeze_policy=freeze_policy,
        )
        self._controllers[group.name] = controller
        return controller

    def _build_breaker(
        self,
        group: "ServerGroup",
        scheduler: "OmegaScheduler",
        rating_watts: Optional[float] = None,
    ) -> RowBreaker:
        """The breaker of ``group``'s feed, at ``config.safety``'s curve
        and cadence (the ``SafetyConfig()`` defaults without one)."""
        safety = self.config.safety or SafetyConfig()
        breaker = RowBreaker(
            group,
            self.engine,
            scheduler,
            curve=safety.breaker,
            interval=safety.breaker_interval_seconds,
            reset_delay_seconds=safety.breaker_reset_minutes * 60.0,
            event_log=self.event_log,
            telemetry=self.telemetry,
            rating_watts=rating_watts,
        )
        self._breakers[group.name] = breaker
        return breaker

    def _build_supervisor(
        self,
        group: "ServerGroup",
        scheduler: "OmegaScheduler",
        capping: Optional[CappingEngine] = None,
        rating_watts: Optional[float] = None,
    ) -> Optional[SafetySupervisor]:
        """The emergency ladder over ``group``'s breaker, or None unless
        ``config.safety`` enables it. Without the reactive ``capping``,
        an unstarted engine gives its CRITICAL step something to slam."""
        safety = self.config.safety
        if safety is None or not safety.supervisor_enabled:
            return None
        supervisor = SafetySupervisor(
            self.engine,
            group,
            scheduler,
            capping or CappingEngine(group, self.engine, interval=CAPPING_INTERVAL_SECONDS),
            config=safety,
            breaker=self._breakers[group.name],
            event_log=self.event_log,
            telemetry=self.telemetry,
            rating_watts=rating_watts,
        )
        self._supervisors[group.name] = supervisor
        return supervisor

    def _finish_build(self) -> None:
        """Attach the fault injector, refusing scenario events no seam of
        this run receives, and build the auditor (built now, not lazily,
        so a snapshot carries it like every other component)."""
        if self.injector is not None:
            # Both shapes wrap their rate profiles when they start; the
            # tenants a surge can name are those owning servers.
            self.injector.attach_workload(sorted(set(self.tenant_of.values())))
            self._attach_injector(self.injector)
            unattached = self.injector.unattached_seams()
            if unattached:
                raise ValueError(
                    f"fault scenario {self.injector.scenario.name!r} has events no "
                    f"{type(self).__name__} seam receives: {', '.join(unattached)}"
                )
        if self.config.auditor is not None:
            self.auditor = self.build_auditor(self.config.auditor, self.telemetry)

    def _attach_injector(self, injector: FaultInjector) -> None:
        """Attach the seams of this shape that exist at any time (build
        time and :meth:`arm_faults` alike)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Auditor and tenancy, built from the registries
    # ------------------------------------------------------------------
    def build_auditor(
        self,
        config: Optional[AuditorConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> StateAuditor:
        """A :class:`StateAuditor` wired to every surface of this run.

        Used both for the in-run auditor (``config.auditor``, exported
        through the run's ``telemetry``) and on demand (``repro
        verify-snapshot``, ``/api/audit``, checkpoint verification),
        where a sweep counts only in its own stats.
        """
        return StateAuditor(
            self.engine,
            state=self.state,
            schedulers=self._distinct_schedulers(),
            ledger=self.ledger,
            supervisors=[self._supervisors[name] for name in sorted(self._supervisors)],
            config=config if config is not None else AuditorConfig(),
            telemetry=telemetry if telemetry is not None else Telemetry.disabled(),
        )

    def _distinct_schedulers(self) -> List["OmegaScheduler"]:
        """Every scheduler once, in group order (groups may share one)."""
        return list({id(s): s for s in self._schedulers.values()}.values())

    def _wire_tenancy(self, assignments: Iterable[Tuple["Server", str]]) -> None:
        """Tag servers with their tenants and attach the accountant.

        ``assignments`` yields ``(server, tenant)`` pairs in the shape's
        order. The accountant listens to every scheduler's control events
        and names the tenant in the event log. Pure bookkeeping: no RNG,
        no scheduled events.
        """
        tenancy = self.config.tenancy
        ordinal = {name: index + 1 for index, name in enumerate(tenancy.names)}
        for server, tenant in assignments:
            self.tenant_of[server.server_id] = tenant
            server.tenant_id = ordinal[tenant]
        self.accountant = TenancyAccountant(
            self.engine, tenancy, self.tenant_of, telemetry=self.telemetry
        )
        for scheduler in self._distinct_schedulers():
            scheduler.control_listeners.append(self.accountant.on_control_event)
        self.event_log.attach_tenants(self.accountant.tenant_of)

    # ------------------------------------------------------------------
    # Service surface (repro.service reads a run through these; every
    # call belongs on the simulation thread)
    # ------------------------------------------------------------------
    @property
    def experiment(self) -> "StagedRun":
        """The run itself: perfbench/checks.py reads
        ``harness.experiment.coordinator`` from what ``harness_for``
        returns."""
        return self

    @property
    def end_seconds(self) -> float:
        return self.config.end_seconds

    @property
    def started(self) -> bool:
        return self._started

    def groups(self) -> Dict[str, "ServerGroup"]:
        """Observable groups by name (rows, or the A/B split)."""
        return dict(self._groups)

    def scheduler_for(self, group_name: str) -> "OmegaScheduler":
        """The *real* cluster scheduler owning a group's servers."""
        return self._schedulers[group_name]

    def controllers(self) -> Dict[str, AmpereController]:
        """Controllers by controlled group name."""
        return dict(self._controllers)

    def breakers(self) -> Dict[str, RowBreaker]:
        """Armed breakers by group name (may be empty)."""
        return dict(self._breakers)

    def supervisors(self) -> Dict[str, SafetySupervisor]:
        """Safety-ladder supervisors by group name (may be empty)."""
        return dict(self._supervisors)

    def arm_faults(self, scenario: FaultScenario) -> dict:
        """Arm a fault scenario against the *live* run.

        The scenario's windows are interpreted relative to now (a
        scenario whose first blackout starts at t=600 begins blacking
        out ten minutes after the operator arms it). Seams this run cannot
        reach -- the RPC wrapper and surge wrapping exist only at build
        time -- are reported back as ``ignored``, not silently dropped.
        """
        injector = FaultInjector(self.engine, scenario.shifted(self.engine.now))
        self._attach_injector(injector)
        injector.arm(self.end_seconds)
        self.runtime_injectors.append(injector)
        return {
            "scenario": scenario.name,
            "armed_at": self.engine.now,
            "ignored": injector.unattached_seams(),
        }


def _frame_bytes(source: Union[bytes, bytearray, str, Path]) -> bytes:
    if isinstance(source, (bytes, bytearray)):
        return bytes(source)
    return Path(source).read_bytes()


def restore_run(source: Union[bytes, str, Path]) -> StagedRun:
    """Restore a run of any registered shape from a frame or a path.

    The frame header's kind picks the class; an unregistered kind raises
    :class:`~repro.durability.SnapshotError` before anything unpickles.
    """
    # Importing the shape modules registers their kinds.
    import repro.sim.experiment  # noqa: F401
    import repro.sim.fleet_experiment  # noqa: F401
    from repro.durability import SnapshotError, decode_header

    data = _frame_bytes(source)
    kind = decode_header(data).get("kind")
    if kind not in _KINDS:
        raise SnapshotError(f"unknown snapshot kind {kind!r}")
    return _KINDS[kind].restore(data)


__all__ = ["CAPPING_INTERVAL_SECONDS", "GroupOutcome", "RunWindow", "StagedRun", "restore_run"]
