"""Self-healing runtime around the driver: checkpoints, WAL, watchdog.

PR 8's service put the whole control plane on one unsupervised thread;
this module is the fail-operational layer around it. The supervisor
owns everything that must *outlive* a driver -- the SSE event bus, the
act write-ahead log, the service-plane metrics registry, and the most
recent *verified* checkpoint -- and runs a watchdog thread that detects
a dead, halted, hung, or audit-escalated simulation and rebuilds a
fresh run + :class:`~repro.service.driver.RealTimeDriver` from
checkpoint + deterministic WAL replay.

Recovery model
--------------
- **Checkpoints.** The driver encodes a snapshot frame at slice
  boundaries every ``auto_snapshot_every`` sim-seconds (plus one genesis
  frame right after start). Encoding is the only sim-thread work;
  durable write, restore-and-audit verification, rotation and manifest
  bookkeeping all happen on the watchdog thread. Only frames that
  restore into an auditor-clean state become the recovery checkpoint.
- **WAL replay.** Mutating acts are logged with their sim-time
  (:mod:`repro.service.wal`). Recovery restores the checkpoint, then
  advances to each later act's sim-time and re-applies it through the
  same ``apply_act`` path the live request used. Because ``advance()``
  composes exactly, the recovered trajectory is byte-identical to the
  uninterrupted one.
- **Hung threads.** Python threads cannot be killed, so a hung sim
  thread is signalled (``abandon``) and left behind; the new driver
  works on a *fresh object graph* restored from bytes, which the
  abandoned thread has no references into.
- **Giving up.** After ``max_recoveries`` the supervisor parks in the
  ``failed`` state: acts stay 503, observes keep serving last-known
  views -- degraded beats flapping.

The service-plane metrics (recoveries, checkpoints, WAL appends, SSE
drops) live in a *separate* :class:`~repro.telemetry.MetricsRegistry`
from the run's own telemetry: the run's registry is pickled into
every snapshot, and counting recoveries there would make the recovered
run's bytes diverge from the uninterrupted run it must match.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from pathlib import Path
from typing import List, Optional, Tuple

from repro.durability import atomic_write_text
from repro.service.driver import (
    DEFAULT_QUEUE_CAPACITY,
    DEFAULT_SLICE_SECONDS,
    EventBus,
    RealTimeDriver,
)
from repro.service.wal import ActWal, replay
from repro.sim.staged import StagedRun, restore_run
from repro.telemetry import MetricsRegistry, counter_series

logger = logging.getLogger(__name__)

#: default sim-seconds between auto-snapshots (ten sim-minutes)
DEFAULT_AUTO_SNAPSHOT_EVERY = 600.0

#: supervisor states surfaced in /api/status and the probes
STATES = ("running", "recovering", "degraded", "failed", "stopped")

MANIFEST_NAME = "manifest.json"
WAL_NAME = "acts.wal"
MANIFEST_VERSION = 1

RECOVERIES = counter_series(
    "repro_service_recoveries_total", "Driver recoveries performed by the supervisor"
)
CHECKPOINTS = counter_series(
    "repro_service_checkpoints_total", "Verified checkpoints adopted as the recovery point"
)
CHECKPOINT_FAILURES = counter_series(
    "repro_service_checkpoint_failures_total", "Auto-snapshots rejected by verification"
)
WAL_RECORDS = counter_series(
    "repro_service_wal_records_total", "Operator acts appended to the write-ahead log"
)


class SupervisorError(RuntimeError):
    """The supervisor cannot start or resume as asked."""


class SupervisorConfig:
    """Knobs of the self-healing layer (all have serviceable defaults)."""

    def __init__(
        self,
        state_dir: Optional[str] = None,
        auto_snapshot_every: Optional[float] = DEFAULT_AUTO_SNAPSHOT_EVERY,
        auto_snapshot_min_wall_seconds: float = 5.0,
        keep_snapshots: int = 3,
        heartbeat_timeout: float = 30.0,
        watchdog_poll_seconds: float = 0.25,
        max_recoveries: int = 5,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        read_timeout: float = 30.0,
        act_timeout: float = 300.0,
    ) -> None:
        if keep_snapshots < 1:
            raise ValueError(
                f"keep_snapshots must be >= 1, got {keep_snapshots}"
            )
        if heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be positive, got {heartbeat_timeout}"
            )
        # A negative cadence would put the next auto-snapshot behind the
        # clock and make every slice boundary a cadence boundary.
        if auto_snapshot_every is not None and auto_snapshot_every < 0:
            raise ValueError(
                f"auto_snapshot_every must be >= 0, got {auto_snapshot_every}"
            )
        if auto_snapshot_min_wall_seconds < 0:
            raise ValueError(
                "auto_snapshot_min_wall_seconds must be >= 0, got "
                f"{auto_snapshot_min_wall_seconds}"
            )
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.auto_snapshot_every = (
            float(auto_snapshot_every) if auto_snapshot_every else None
        )
        # Checkpoints bound *wall-clock* recovery loss; when simulated
        # time outruns real time (manual-step blasts), offers are
        # throttled to at most one per this many wall seconds.
        self.auto_snapshot_min_wall_seconds = float(
            auto_snapshot_min_wall_seconds
        )
        self.keep_snapshots = int(keep_snapshots)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.watchdog_poll_seconds = float(watchdog_poll_seconds)
        self.max_recoveries = int(max_recoveries)
        self.queue_capacity = int(queue_capacity)
        self.read_timeout = float(read_timeout)
        self.act_timeout = float(act_timeout)


class _Checkpoint:
    """One adopted recovery point: frame bytes plus its WAL position."""

    __slots__ = ("frame", "sim_now", "wal_seq", "path")

    def __init__(self, frame: bytes, sim_now: float, wal_seq: int,
                 path: Optional[Path]) -> None:
        self.frame = frame
        self.sim_now = sim_now
        self.wal_seq = wal_seq
        self.path = path

    def to_doc(self) -> dict:
        return {
            "sim_now": self.sim_now,
            "wal_seq": self.wal_seq,
            "bytes": len(self.frame),
            "path": str(self.path) if self.path is not None else None,
        }


def load_resume_state(
    config: SupervisorConfig,
) -> Tuple[StagedRun, ActWal, _Checkpoint, int]:
    """Rebuild a run from a ``--state-dir``: checkpoint + WAL replay.

    Returns ``(run, wal, checkpoint, acts_replayed)``. Raises
    :class:`SupervisorError` when the directory holds nothing resumable.
    """
    state_dir = config.state_dir
    if state_dir is None:
        raise SupervisorError("--resume needs a --state-dir")
    manifest_path = state_dir / MANIFEST_NAME
    if not manifest_path.exists():
        raise SupervisorError(
            f"nothing to resume: no {MANIFEST_NAME} in {state_dir}"
        )
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SupervisorError(f"unreadable manifest: {exc}") from exc
    # Only verified frames are ever manifested (manifests written before
    # this layout also carry a per-entry ``verified`` key; it is ignored).
    entries = manifest.get("snapshots", [])
    if not entries:
        raise SupervisorError(
            f"nothing to resume: no snapshot listed in {manifest_path}"
        )
    newest = entries[-1]
    frame_path = state_dir / str(newest["file"])
    frame = frame_path.read_bytes()  # decode validates the checksum below
    run = restore_run(frame)
    wal = ActWal(state_dir / WAL_NAME)
    checkpoint = _Checkpoint(
        frame, float(newest["sim_now"]), int(newest["wal_seq"]), frame_path
    )
    replayed = replay(run, wal.records_after(checkpoint.wal_seq))
    logger.info(
        "resumed from %s at t=%.1fs, replayed %d act(s) from the WAL",
        frame_path.name,
        checkpoint.sim_now,
        replayed,
    )
    return run, wal, checkpoint, replayed


class DriverSupervisor:
    """Owns the driver's lifecycle; rebuilds it when it dies or hangs."""

    def __init__(
        self,
        run: StagedRun,
        mode: str = "manual",
        speedup: float = 1.0,
        slice_seconds: float = DEFAULT_SLICE_SECONDS,
        config: Optional[SupervisorConfig] = None,
        advance_hook=None,
        clock=time.monotonic,
        wal: Optional[ActWal] = None,
        initial_checkpoint: Optional[_Checkpoint] = None,
    ) -> None:
        self.config = config if config is not None else SupervisorConfig()
        self.mode = mode
        self.speedup = speedup
        self.slice_seconds = slice_seconds
        self.advance_hook = advance_hook
        self.clock = clock

        self.registry = MetricsRegistry()
        self.bus = EventBus(registry=self.registry)
        self.registry.add_collector(self._metrics)
        #: verified checkpoints adopted, frames rejected by verification
        #: and acts appended to the WAL by this process
        self.checkpoints_adopted = 0
        self.checkpoint_failures = 0
        self.wal_appends = 0

        state_dir = self.config.state_dir
        if state_dir is not None:
            state_dir.mkdir(parents=True, exist_ok=True)
        if wal is not None:
            self.wal = wal
        else:
            self.wal = ActWal(
                state_dir / WAL_NAME if state_dir is not None else None
            )

        self.run = run
        self._checkpoint = initial_checkpoint
        self._snap_index = self._next_snapshot_index()
        self.driver = self._build_driver(run)

        self._lock = threading.Lock()
        self._pending: Optional[Tuple[bytes, float, int]] = None
        self._escalation: Optional[str] = None
        self._state = "stopped"
        self.recoveries = 0
        self.last_recovery_reason: Optional[str] = None
        self._stop = threading.Event()
        self._watchdog: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def _metrics(self):
        yield RECOVERIES(self.recoveries)
        yield CHECKPOINTS(self.checkpoints_adopted)
        yield CHECKPOINT_FAILURES(self.checkpoint_failures)
        yield WAL_RECORDS(self.wal_appends)

    def _build_driver(self, run: StagedRun) -> RealTimeDriver:
        return RealTimeDriver(
            run,
            mode=self.mode,
            speedup=self.speedup,
            slice_seconds=self.slice_seconds,
            clock=self.clock,
            bus=self.bus,
            queue_capacity=self.config.queue_capacity,
            advance_hook=self.advance_hook,
            auto_snapshot_every=self.config.auto_snapshot_every,
            auto_snapshot_min_wall=self.config.auto_snapshot_min_wall_seconds,
            on_auto_snapshot=self._offer_snapshot,
        )

    def _register_escalation_hook(self) -> None:
        auditor = self.run.auditor
        if auditor is not None:
            auditor.add_escalation_hook(self._on_escalation)

    def _on_escalation(self, violation) -> None:
        # Called on the sim thread, mid-audit: record and get out; the
        # watchdog turns the flag into a recovery.
        with self._lock:
            if self._escalation is None:
                self._escalation = str(violation)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._state != "stopped":
            raise SupervisorError(f"supervisor already {self._state}")
        self._state = "running"
        self.driver.start()
        self._register_escalation_hook()
        # Genesis checkpoint: recovery must have a restore point before
        # the first periodic auto-snapshot ever fires.
        if self._checkpoint is None:
            frame, sim_now, wal_seq = self.driver.act(
                self._capture, label="genesis-snapshot", force=True
            )
            self._adopt(frame, sim_now, wal_seq)
        self._watchdog = threading.Thread(
            target=self._watchdog_loop,
            name="repro-service-watchdog",
            daemon=True,
        )
        self._watchdog.start()

    def stop(self, snapshot_path: Optional[str] = None,
             timeout: float = 60.0) -> Optional[int]:
        """Stop watchdog first (so shutdown is not 'recovered'), then driver."""
        self._stop.set()
        if self._watchdog is not None:
            self._watchdog.join(timeout=10.0)
        self._state = "stopped"
        if self.driver.alive:
            return self.driver.shutdown(
                snapshot_path=snapshot_path, timeout=timeout
            )
        return None

    # ------------------------------------------------------------------
    # Status / probes
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        return self._state

    def ready(self) -> bool:
        """True when acts may be submitted to a live, healthy driver."""
        return (
            self._state == "running"
            and self.driver.alive
            and self.driver.fatal is None
            and self.driver.heartbeat_age() <= self.config.heartbeat_timeout
        )

    def not_ready_reason(self) -> Optional[str]:
        if self._state != "running":
            return f"supervisor state is {self._state!r}"
        if not self.driver.alive:
            return "sim thread is not running"
        if self.driver.fatal is not None:
            return f"driver halted: {self.driver.fatal}"
        age = self.driver.heartbeat_age()
        if age > self.config.heartbeat_timeout:
            return f"sim thread heartbeat is {age:.1f}s stale"
        return None

    def log_act(self, op: str, payload: dict) -> None:
        """Durably append one applied act (sim thread, post-apply)."""
        self.wal.append(op, payload, self.run.engine.now)
        self.wal_appends += 1

    def summary(self) -> dict:
        with self._lock:
            escalation = self._escalation
        checkpoint = self._checkpoint
        return {
            "state": self._state,
            "ready": self.ready(),
            "recoveries": self.recoveries,
            "max_recoveries": self.config.max_recoveries,
            "last_recovery_reason": self.last_recovery_reason,
            "escalation": escalation,
            "checkpoint": (
                checkpoint.to_doc() if checkpoint is not None else None
            ),
            "wal": {
                "last_seq": self.wal.last_seq,
                "records": len(self.wal.records),
                "torn_tail_dropped": self.wal.torn_tail_dropped,
                "path": (
                    str(self.wal.path) if self.wal.path is not None else None
                ),
            },
            "auto_snapshot_every": self.config.auto_snapshot_every,
            "state_dir": (
                str(self.config.state_dir)
                if self.config.state_dir is not None
                else None
            ),
        }

    # ------------------------------------------------------------------
    # Checkpointing (sim thread hands over; watchdog persists)
    # ------------------------------------------------------------------
    def _capture(self) -> Tuple[bytes, float, int]:
        return (
            self.run.snapshot(),
            self.run.engine.now,
            self.wal.last_seq,
        )

    def _offer_snapshot(self, frame: bytes, sim_now: float) -> None:
        # Sim thread: stash the frame and return immediately. Only the
        # newest pending frame matters; an unconsumed older one is
        # superseded.
        wal_seq = self.wal.last_seq
        with self._lock:
            self._pending = (frame, sim_now, wal_seq)

    def _take_pending(self) -> Optional[Tuple[bytes, float, int]]:
        with self._lock:
            pending, self._pending = self._pending, None
        return pending

    def _next_snapshot_index(self) -> int:
        state_dir = self.config.state_dir
        if state_dir is None or not state_dir.exists():
            return 1
        highest = 0
        for existing in state_dir.glob("auto-*.snap"):
            try:
                highest = max(highest, int(existing.stem.split("-")[1]))
            except (IndexError, ValueError):
                continue
        return highest + 1

    def _adopt(self, frame: bytes, sim_now: float, wal_seq: int) -> bool:
        """Verify, persist, rotate; make ``frame`` the recovery point."""
        if not self._verify_frame(frame):
            self.checkpoint_failures += 1
            logger.error(
                "auto-snapshot at t=%.1fs failed verification; "
                "keeping previous checkpoint",
                sim_now,
            )
            self.bus.publish(
                {
                    "type": "supervisor",
                    "action": "checkpoint-rejected",
                    "sim_now": sim_now,
                }
            )
            return False
        path: Optional[Path] = None
        state_dir = self.config.state_dir
        if state_dir is not None:
            from repro.durability import atomic_write_bytes

            path = state_dir / f"auto-{self._snap_index:06d}.snap"
            self._snap_index += 1
            atomic_write_bytes(path, frame)
        checkpoint = _Checkpoint(frame, sim_now, wal_seq, path)
        self._checkpoint = checkpoint
        self.checkpoints_adopted += 1
        if state_dir is not None:
            self._rotate_and_write_manifest()
        self.bus.publish(
            {
                "type": "supervisor",
                "action": "checkpoint",
                "sim_now": sim_now,
                "wal_seq": wal_seq,
                "path": str(path) if path is not None else None,
            }
        )
        return True

    def _verify_frame(self, frame: bytes) -> bool:
        """Restore a copy from bytes and run a full invariant sweep."""
        from repro.sim.audit import AuditorConfig

        try:
            auditor = restore_run(frame).build_auditor(
                AuditorConfig(sample_fraction=1.0, on_violation="record")
            )
            violations = auditor.audit(sample=False)
        except Exception:
            logger.exception("checkpoint verification crashed")
            return False
        if violations:
            logger.error(
                "checkpoint verification found %d violation(s); first: %s",
                len(violations),
                violations[0],
            )
        return not violations

    def _rotate_and_write_manifest(self) -> None:
        state_dir = self.config.state_dir
        entries: List[dict] = []
        manifest_path = state_dir / MANIFEST_NAME
        if manifest_path.exists():
            try:
                entries = json.loads(manifest_path.read_text()).get(
                    "snapshots", []
                )
            except (OSError, json.JSONDecodeError):
                entries = []
        checkpoint = self._checkpoint
        entries.append(
            {
                "file": checkpoint.path.name,
                "sim_now": checkpoint.sim_now,
                "wal_seq": checkpoint.wal_seq,
            }
        )
        while len(entries) > self.config.keep_snapshots:
            stale = entries.pop(0)
            stale_path = state_dir / str(stale.get("file", ""))
            try:
                if stale_path.exists():
                    stale_path.unlink()
            except OSError:  # rotation is best-effort; manifest is truth
                logger.warning("could not remove stale %s", stale_path)
        atomic_write_text(
            manifest_path,
            json.dumps(
                {"version": MANIFEST_VERSION, "snapshots": entries},
                indent=2,
                sort_keys=True,
            ),
        )

    # ------------------------------------------------------------------
    # Watchdog
    # ------------------------------------------------------------------
    def _watchdog_loop(self) -> None:
        while not self._stop.is_set():
            self._stop.wait(self.config.watchdog_poll_seconds)
            if self._stop.is_set():
                break
            pending = self._take_pending()
            if pending is not None:
                self._adopt(*pending)
            reason = self._failure_reason()
            if reason is not None:
                self._recover(reason)

    def _failure_reason(self) -> Optional[str]:
        if self._state != "running":
            return None
        with self._lock:
            if self._escalation is not None:
                return f"auditor escalation: {self._escalation}"
        driver = self.driver
        if not driver.alive:
            return "sim thread died"
        if driver.fatal is not None:
            return f"driver halted: {driver.fatal}"
        age = driver.heartbeat_age()
        if age > self.config.heartbeat_timeout:
            return f"sim thread hung ({age:.1f}s without a heartbeat)"
        return None

    def _recover(self, reason: str) -> None:
        self.last_recovery_reason = reason
        if self.recoveries >= self.config.max_recoveries:
            self._state = "failed"
            logger.error(
                "not recovering (%s): recovery budget exhausted after %d "
                "attempts; service stays read-only",
                reason,
                self.recoveries,
            )
            self.bus.publish(
                {"type": "supervisor", "action": "failed", "reason": reason}
            )
            return
        checkpoint = self._checkpoint
        if checkpoint is None:
            self._state = "failed"
            logger.error("not recovering (%s): no checkpoint adopted", reason)
            self.bus.publish(
                {"type": "supervisor", "action": "failed", "reason": reason}
            )
            return
        self._state = "recovering"
        logger.warning("recovering driver: %s", reason)
        self.bus.publish(
            {"type": "supervisor", "action": "recovering", "reason": reason}
        )
        old = self.driver
        was_paused = old._paused
        old.abandon()
        old._thread.join(timeout=2.0)  # best effort; a hung thread stays

        try:
            run = restore_run(checkpoint.frame)
            replayed = replay(run, self.wal.records_after(checkpoint.wal_seq))
            driver = self._build_driver(run)
            with self._lock:
                self._escalation = None
            self.run = run
            self.driver = driver
            driver.start()
            if self.mode != "manual":
                driver._paused = was_paused
            self._register_escalation_hook()
        except Exception:
            logger.exception("recovery failed; service stays read-only")
            self._state = "failed"
            self.bus.publish(
                {"type": "supervisor", "action": "failed", "reason": reason}
            )
            return
        self.recoveries += 1
        self._state = "running"
        logger.warning(
            "recovered: restored t=%.1fs checkpoint, replayed %d WAL act(s) "
            "(recovery %d/%d)",
            checkpoint.sim_now,
            replayed,
            self.recoveries,
            self.config.max_recoveries,
        )
        self.bus.publish(
            {
                "type": "supervisor",
                "action": "recovered",
                "reason": reason,
                "checkpoint_sim_now": checkpoint.sim_now,
                "wal_replayed": replayed,
                "recoveries": self.recoveries,
            }
        )


__all__ = [
    "DEFAULT_AUTO_SNAPSHOT_EVERY",
    "DriverSupervisor",
    "STATES",
    "SupervisorConfig",
    "SupervisorError",
    "load_resume_state",
]
