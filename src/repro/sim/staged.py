"""One staged-run core for every experiment shape.

The paper's evidence comes from one staged A/B harness (Section 4.1.2):
groups under scaled budgets, a warm-up, then a measured window. Both
shapes of it -- the single-row parity split
(:class:`~repro.sim.experiment.ControlledExperiment`) and the multi-row
facility (:class:`~repro.sim.fleet_experiment.FleetExperiment`) -- run
through the one :class:`StagedRun` written here:

- **Lifecycle.** :meth:`~StagedRun.start` arms every service once
  (the shape's ``_arm``), :meth:`~StagedRun.advance` moves simulated
  time, :meth:`~StagedRun.finish` collects once (the shape's
  ``_collect``) and caches the result; :meth:`~StagedRun.run` composes
  them. Consecutive advances compose exactly, so a run can be
  snapshotted at any advance boundary and resumed byte-identically.
- **Snapshot frame.** :meth:`~StagedRun.snapshot` pickles the whole
  live run into a :mod:`repro.durability` frame tagged with the shape's
  ``SNAPSHOT_KIND``. Every subclass that declares a kind registers
  itself, and :func:`restore_run` picks the class from a frame's header,
  so no caller branches on the shape.
- **Registries.** Each shape fills per-group registries in its
  constructor: the groups, the scheduler owning each group, and the
  controllers, breakers and safety supervisors by group name. The
  auditor, the tenancy wiring and the service surface read only those.
- **Service surface.** A run is its own service surface:
  :mod:`repro.service` drives a StagedRun directly through
  :meth:`~StagedRun.groups`, :meth:`~StagedRun.scheduler_for`,
  :meth:`~StagedRun.controllers`, :meth:`~StagedRun.arm_faults` and
  friends.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, ClassVar, Dict, Iterable, List, Optional, Tuple, Type, Union

from repro.faults.injector import FaultInjector
from repro.faults.scenario import FaultScenario
from repro.sim.audit import AuditorConfig, StateAuditor
from repro.telemetry import Telemetry
from repro.tenancy import TenancyAccountant

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.breaker import RowBreaker
    from repro.cluster.group import ServerGroup
    from repro.cluster.server import Server
    from repro.cluster.state import ClusterState
    from repro.core.controller import AmpereController
    from repro.core.safety import SafetySupervisor
    from repro.fleet.ledger import BudgetLedger
    from repro.monitor.power_monitor import PowerMonitor
    from repro.scheduler.omega import OmegaScheduler
    from repro.sim.engine import Engine
    from repro.sim.eventlog import ControlEventLog

SECONDS_PER_HOUR = 3600.0

#: snapshot kind -> run class, filled by ``StagedRun.__init_subclass__``
_KINDS: Dict[str, Type["StagedRun"]] = {}


class RunWindow:
    """Warm-up and horizon of a staged run's (frozen dataclass) config.

    The config declares ``duration_hours``, ``warmup_hours`` and
    ``over_provision_ratio``; its ``__post_init__`` calls
    :meth:`_check_window`.
    """

    def _check_window(self) -> None:
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


class StagedRun:
    """Lifecycle, snapshot frame, auditor and service surface of a run.

    A shape subclasses this, declares ``SNAPSHOT_KIND``, builds its
    topology in the constructor (setting ``engine``, ``state``,
    ``monitor`` and ``event_log`` and filling the registries) and
    implements ``_arm``, ``_collect`` and ``_attach_runtime_injector``.
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
        # Per-group registries; the shape's constructor fills them.
        self._groups: Dict[str, "ServerGroup"] = {}
        self._schedulers: Dict[str, "OmegaScheduler"] = {}
        self._controllers: Dict[str, "AmpereController"] = {}
        self._breakers: Dict[str, "RowBreaker"] = {}
        self._supervisors: Dict[str, "SafetySupervisor"] = {}
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
        """Start the shape's workload and services (once, from start())."""
        raise NotImplementedError

    def _collect(self, warmup: float, end: float):
        """Summarize the measured window ``[warmup, end)`` into a result."""
        raise NotImplementedError

    def _shared_result_fields(self) -> dict:
        """The result fields every shape reports the same way."""
        return {
            "fault_stats": (
                self.injector.stats_snapshot() if self.injector is not None else None
            ),
            "telemetry": self.telemetry.registry if self.telemetry.enabled else None,
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
    # Auditor and tenancy, built from the registries
    # ------------------------------------------------------------------
    def build_auditor(self, config: Optional[AuditorConfig] = None) -> StateAuditor:
        """A :class:`StateAuditor` wired to every surface of this run.

        Used both for the in-run auditor (``config.auditor``) and by
        ``repro verify-snapshot`` to audit a restored run on demand.
        """
        return StateAuditor(
            self.engine,
            state=self.state,
            schedulers=self._distinct_schedulers(),
            ledger=self.ledger,
            supervisors=[self._supervisors[name] for name in sorted(self._supervisors)],
            config=config if config is not None else AuditorConfig(),
            telemetry=self.telemetry,
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
        self.event_log.attach_tenant_resolver(self.accountant.resolve)

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

    def controllers(self) -> Dict[str, "AmpereController"]:
        """Controllers by controlled group name."""
        return dict(self._controllers)

    def breakers(self) -> Dict[str, "RowBreaker"]:
        """Armed breakers by group name (may be empty)."""
        return dict(self._breakers)

    def supervisors(self) -> Dict[str, "SafetySupervisor"]:
        """Safety-ladder supervisors by group name (may be empty)."""
        return dict(self._supervisors)

    def arm_faults(self, scenario: FaultScenario) -> dict:
        """Arm a fault scenario against the *live* run.

        The scenario's windows are interpreted relative to now (a
        scenario whose first blackout starts at t=600 begins blacking
        out ten minutes after the operator arms it). Seams that can only
        be installed at build time -- the flaky-RPC transport wrapper and
        demand-surge profile wrapping -- cannot be armed mid-run and are
        reported back as ignored rather than silently dropped.
        """
        ignored = []
        if scenario.rpc_failure_rate > 0:
            ignored.append("rpc")
        if scenario.surges:
            ignored.append("surges")
        injector = FaultInjector(self.engine, scenario.shifted(self.engine.now))
        self._attach_runtime_injector(injector)
        injector.arm(self.end_seconds)
        self.runtime_injectors.append(injector)
        return {
            "scenario": scenario.name,
            "armed_at": self.engine.now,
            "ignored": ignored,
        }

    def _attach_runtime_injector(self, injector: FaultInjector) -> None:
        """Attach every seam of this shape that can be armed mid-run."""
        raise NotImplementedError


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


__all__ = ["RunWindow", "StagedRun", "restore_run"]
