"""The real-time driver: one simulation thread, one command queue.

The batch harnesses promise byte-identical trajectories because exactly
one call stack mutates the engine. A live service must keep that promise
while an HTTP thread pool fields concurrent requests, so the driver
enforces a **single-writer** discipline:

- One background thread (the *sim thread*) owns the experiment. It is
  the only code that ever calls ``advance()``, touches cluster state, or
  reads live object graphs.
- Every observation and every act -- including reads -- is a
  :class:`_Command` posted to a queue and executed *on the sim thread*
  between ``advance()`` slices. HTTP threads block on a completion
  event and receive the result (or the raised exception). There are no
  locks around simulation state because there is no second reader.

Two pacing modes:

``manual``
    Simulated time moves only on explicit ``step`` commands. A
    manual-step service run issues exactly the same ``advance()``
    sequence a batch run would, so the trajectory is byte-identical to
    ``ControlledExperiment.run()`` (pinned in tests/test_service.py).
``accelerated``
    The sim thread tracks wall clock: after each slice it sleeps (in the
    command poll) until simulated time falls behind
    ``anchor + (wall - wall_anchor) * speedup`` again. ``speedup=1`` is
    real time; ``speedup=60`` plays one simulated hour per wall minute.

Long advances are cut into ``slice_seconds`` pieces, and *read-only*
commands are serviced between pieces, so observation latency stays
bounded by one slice even while a large step is in flight. Mutating
commands that arrive mid-advance are deferred, in order, to the next
slice boundary after the advance completes -- an act never lands inside
an ``advance()`` call, which is also what keeps every boundary
snapshot-safe.

Supervision hooks (PR 9): the command queue is *bounded* and overflow
raises :class:`DriverBusy` (the API maps it to ``429 Retry-After``); a
caller whose :meth:`_Command.wait` times out marks the command
*abandoned* so the sim thread skips its side effects instead of running
acts nobody is waiting for; the sim thread stamps a wall-clock
``heartbeat`` every loop iteration and every advance slice so the
supervisor's watchdog can tell a hung engine from an idle one; and at
each slice boundary the driver can hand a freshly encoded snapshot
frame to the supervisor (``on_auto_snapshot``) for durable, verified
checkpointing off-thread.
"""

from __future__ import annotations

import logging
import queue
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.staged import StagedRun
from repro.telemetry import counter_series

logger = logging.getLogger(__name__)

#: default sim-seconds advanced per slice (one monitor sweep)
DEFAULT_SLICE_SECONDS = 60.0
#: default command-queue poll period for timed modes, in wall seconds
DEFAULT_POLL_SECONDS = 0.02
#: default bound on queued commands before submissions get DriverBusy
DEFAULT_QUEUE_CAPACITY = 64
#: default number of recent events kept for Last-Event-ID replay
DEFAULT_RING_SIZE = 512

MODES = ("manual", "accelerated")

EVENTS_DROPPED = counter_series(
    "repro_service_events_dropped_total",
    "SSE events dropped because a subscriber queue was full",
    label="subscriber",
)


class DriverError(RuntimeError):
    """A driver command could not be executed."""


class DriverBusy(DriverError):
    """The command queue is full; retry after backing off."""

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class DriverTimeout(DriverError):
    """A submitted command did not complete within its deadline."""


class _Command:
    """One closure to run on the sim thread, with a completion event."""

    __slots__ = ("fn", "readonly", "label", "done", "result", "error",
                 "abandoned")

    def __init__(self, fn: Callable[[], object], readonly: bool, label: str):
        self.fn = fn
        self.readonly = readonly
        self.label = label
        self.done = threading.Event()
        self.result: object = None
        self.error: Optional[BaseException] = None
        self.abandoned = False

    def run(self) -> None:
        if self.abandoned:
            # The waiter gave up; running the closure now would apply an
            # act nobody is watching (and nobody would WAL-ack).
            self.done.set()
            return
        try:
            self.result = self.fn()
        except BaseException as exc:  # delivered to the waiting caller
            self.error = exc
        finally:
            self.done.set()

    def wait(self, timeout: Optional[float]):
        if not self.done.wait(timeout):
            self.abandoned = True
            raise DriverTimeout(
                f"command {self.label!r} timed out after {timeout}s"
            )
        if self.error is not None:
            raise self.error
        return self.result


class _Subscription:
    """One SSE consumer: its event queue plus drop accounting."""

    __slots__ = ("name", "queue", "dropped")

    def __init__(self, name: str, maxsize: int) -> None:
        self.name = name
        self.queue: "queue.Queue[Tuple[Optional[int], dict]]" = queue.Queue(
            maxsize=maxsize
        )
        self.dropped = 0

    def get(self, timeout: Optional[float] = None):
        return self.queue.get(timeout=timeout)


class EventBus:
    """Fan-out of driver/engine events to SSE subscribers.

    Publishing never blocks the sim thread: a subscriber whose queue is
    full loses the event -- counted per subscriber (and, when a metrics
    registry is attached, exported as the labeled
    ``repro_service_events_dropped_total`` counter) rather than stalling
    the simulation.

    Every published event gets a monotonically increasing id, and the
    bus keeps the last ``ring_size`` events. A subscriber reconnecting
    with ``Last-Event-ID: n`` replays everything after ``n`` gap-free if
    ``n`` is still inside the ring window; beyond it, the subscriber
    first receives an id-less ``{"type": "stream", "action": "reset"}``
    marker (carrying the count of unrecoverable events) and then the
    full ring.

    The bus deliberately outlives any one driver: the supervisor owns it
    and hands it to each rebuilt driver, so event ids stay monotonic and
    the replay ring stays intact across a recovery.
    """

    def __init__(self, maxsize: int = 1000,
                 ring_size: int = DEFAULT_RING_SIZE,
                 registry=None) -> None:
        if ring_size > maxsize:
            raise ValueError(
                f"ring_size {ring_size} must fit in a subscriber queue "
                f"(maxsize {maxsize})"
            )
        self._maxsize = maxsize
        self._subscribers: List[_Subscription] = []
        self._lock = threading.Lock()
        self._ring: "deque[Tuple[int, dict]]" = deque(maxlen=ring_size)
        self._next_id = 1
        self._sub_serial = 0
        self.published = 0
        self.dropped = 0
        #: drops per subscriber name, kept after it unsubscribes
        self._drops_by_name: Dict[str, int] = {}
        if registry is not None:
            registry.add_collector(self._metrics)

    def _metrics(self):
        with self._lock:
            drops_by_name = list(self._drops_by_name.items())
        for name, drops in drops_by_name:
            yield EVENTS_DROPPED(drops, name)

    def subscribe(self, last_event_id: Optional[int] = None) -> _Subscription:
        with self._lock:
            self._sub_serial += 1
            sub = _Subscription(f"sse-{self._sub_serial}", self._maxsize)
            if last_event_id is not None and self._ring:
                first_id = self._ring[0][0]
                last_id = self._ring[-1][0]
                if last_event_id >= last_id:
                    pass  # already caught up (or claims future ids)
                elif last_event_id >= first_id - 1:
                    for eid, doc in self._ring:
                        if eid > last_event_id:
                            sub.queue.put_nowait((eid, doc))
                else:
                    missed = first_id - 1 - last_event_id
                    sub.queue.put_nowait(
                        (
                            None,
                            {
                                "type": "stream",
                                "action": "reset",
                                "missed_events": missed,
                            },
                        )
                    )
                    for eid, doc in self._ring:
                        sub.queue.put_nowait((eid, doc))
            self._subscribers.append(sub)
        return sub

    def unsubscribe(self, sub: _Subscription) -> None:
        with self._lock:
            if sub in self._subscribers:
                self._subscribers.remove(sub)

    @property
    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subscribers)

    @property
    def last_event_id(self) -> int:
        with self._lock:
            return self._next_id - 1

    def drops_by_subscriber(self) -> Dict[str, int]:
        """Per-subscriber drop counts for the currently connected set."""
        with self._lock:
            return {sub.name: sub.dropped for sub in self._subscribers}

    def publish(self, doc: dict) -> None:
        with self._lock:
            eid = self._next_id
            self._next_id += 1
            self._ring.append((eid, doc))
            subscribers = list(self._subscribers)
        self.published += 1
        for sub in subscribers:
            try:
                sub.queue.put_nowait((eid, doc))
            except queue.Full:
                # publish runs on the sim and the watchdog threads
                with self._lock:
                    self.dropped += 1
                    sub.dropped += 1
                    drops = self._drops_by_name
                    drops[sub.name] = drops.get(sub.name, 0) + 1


class RealTimeDriver:
    """Ticks one staged experiment on a dedicated simulation thread."""

    def __init__(
        self,
        run: StagedRun,
        mode: str = "manual",
        speedup: float = 1.0,
        slice_seconds: float = DEFAULT_SLICE_SECONDS,
        poll_seconds: float = DEFAULT_POLL_SECONDS,
        clock: Callable[[], float] = time.monotonic,
        bus: Optional[EventBus] = None,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        advance_hook: Optional[Callable[[float], None]] = None,
        auto_snapshot_every: Optional[float] = None,
        auto_snapshot_min_wall: float = 0.0,
        on_auto_snapshot: Optional[Callable[[bytes, float], None]] = None,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if speedup <= 0:
            raise ValueError(f"speedup must be positive, got {speedup}")
        if slice_seconds <= 0:
            raise ValueError(
                f"slice_seconds must be positive, got {slice_seconds}"
            )
        if queue_capacity < 0:
            raise ValueError(
                f"queue_capacity must be >= 0 (0 = unbounded), "
                f"got {queue_capacity}"
            )
        self.run = run
        self.mode = mode
        self.speedup = float(speedup)
        self.slice_seconds = float(slice_seconds)
        self.poll_seconds = float(poll_seconds)
        self.clock = clock
        self.bus = bus if bus is not None else EventBus()
        self.queue_capacity = int(queue_capacity)
        self.advance_hook = advance_hook
        self.auto_snapshot_every = (
            float(auto_snapshot_every) if auto_snapshot_every else None
        )
        self.auto_snapshot_min_wall = float(auto_snapshot_min_wall)
        self.on_auto_snapshot = on_auto_snapshot
        self._last_snapshot_wall: Optional[float] = None

        self._queue: "queue.Queue[_Command]" = queue.Queue()
        self._deferred: List[_Command] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="repro-sim-driver", daemon=True
        )
        # --- state owned by the sim thread --------------------------------
        self._paused = mode == "manual"
        self._advancing = False
        self._anchor_wall: Optional[float] = None
        self._anchor_sim = 0.0
        self._result = None
        self._result_doc: Optional[dict] = None
        self._fatal: Optional[str] = None
        #: why the run reached its horizon without a result (e.g. the
        #: control group placed no job in the measured window)
        self._finish_error: Optional[str] = None
        self._published_events = 0
        self._steps = 0
        self._commands_run = 0
        self._wall_started: Optional[float] = None
        self._next_auto_snapshot: Optional[float] = None
        #: wall-clock stamp of the sim thread's latest sign of life;
        #: written by the sim thread, read by the supervisor's watchdog
        self.heartbeat: float = self.clock()

    # ------------------------------------------------------------------
    # Lifecycle (called from the main / HTTP threads)
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the sim thread; it arms the experiment immediately."""
        if self._thread.is_alive():
            raise DriverError("driver already started")
        self._wall_started = self.clock()
        self.heartbeat = self.clock()
        self._thread.start()
        # Arm the experiment as the first command so construction errors
        # surface here, synchronously, not on a later request.
        self.act(self._do_start, label="start", force=True)

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()

    @property
    def fatal(self) -> Optional[str]:
        return self._fatal

    @property
    def finish_error(self) -> Optional[str]:
        """Why collecting the result failed at the horizon, or ``None``."""
        return self._finish_error

    def heartbeat_age(self) -> float:
        """Wall seconds since the sim thread last signalled progress."""
        return max(0.0, self.clock() - self.heartbeat)

    def abandon(self) -> None:
        """Ask the sim thread to stop without waiting for it.

        The supervisor's recovery path: a hung thread cannot be killed,
        so it is signalled and *left behind* -- a fresh driver takes over
        a fresh object graph, and the abandoned thread can at worst keep
        mutating state nobody reads anymore.
        """
        self._stop.set()

    def shutdown(
        self, snapshot_path: Optional[str] = None, timeout: float = 60.0
    ) -> Optional[int]:
        """Stop the sim thread, optionally writing a final snapshot.

        The snapshot lands between advances (never mid-event), so it is
        restorable and auditable like any other durable frame. Returns
        the snapshot size in bytes when a path was given.
        """
        written: Optional[int] = None
        if self._thread.is_alive():
            def _final():
                size = None
                if snapshot_path is not None:
                    size = self.run.save_snapshot(snapshot_path)
                    logger.info(
                        "final snapshot written to %s (%d bytes)",
                        snapshot_path,
                        size,
                    )
                self._stop.set()
                return size

            written = self.act(
                _final, label="shutdown", timeout=timeout, force=True
            )
        self._stop.set()
        self._thread.join(timeout)
        if self._thread.is_alive():  # pragma: no cover - defensive
            raise DriverError("sim thread did not stop in time")
        return written

    # ------------------------------------------------------------------
    # Command submission (HTTP threads)
    # ------------------------------------------------------------------
    def read(self, fn: Callable[[], object], label: str = "read",
             timeout: float = 30.0):
        """Run a read-only closure on the sim thread; return its result."""
        return self._submit(fn, readonly=True, label=label, timeout=timeout)

    def act(self, fn: Callable[[], object], label: str = "act",
            timeout: float = 300.0, force: bool = False):
        """Run a mutating closure on the sim thread; return its result."""
        return self._submit(
            fn, readonly=False, label=label, timeout=timeout, force=force
        )

    def _submit(self, fn, readonly: bool, label: str, timeout: float,
                force: bool = False):
        if not self._thread.is_alive():
            raise DriverError("driver is not running")
        if (
            not force
            and self.queue_capacity
            and self._queue.qsize() >= self.queue_capacity
        ):
            raise DriverBusy(
                f"command queue full ({self.queue_capacity} in flight); "
                f"retry {label!r} shortly"
            )
        command = _Command(fn, readonly, label)
        self._queue.put(command)
        return command.wait(timeout)

    # ------------------------------------------------------------------
    # Control commands
    # ------------------------------------------------------------------
    def pause(self) -> dict:
        return self.act(self._do_pause, label="pause", force=True)

    def resume(self) -> dict:
        return self.act(self._do_resume, label="resume", force=True)

    def step(self, seconds: Optional[float] = None,
             until: Optional[float] = None) -> dict:
        """Advance simulated time explicitly (any mode; re-anchors timed
        modes so wall-clock pacing resumes from the new position)."""
        if seconds is not None and seconds <= 0:
            raise DriverError(f"step seconds must be positive, got {seconds}")
        return self.act(
            lambda: self._do_step(seconds, until), label="step", timeout=3600.0
        )

    def finish(self) -> dict:
        """Run to the horizon and collect the result (idempotent)."""
        return self.act(self._do_finish, label="finish", timeout=3600.0)

    def snapshot(self, path: str) -> dict:
        return self.act(lambda: self._do_snapshot(path), label="snapshot")

    def status(self) -> dict:
        """The driver's status document (served at ``/api/status``)."""
        return self.read(self._status_doc, label="status")

    @property
    def result_doc(self) -> Optional[dict]:
        return self._result_doc

    # ------------------------------------------------------------------
    # Sim-thread internals
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.is_set():
            self.heartbeat = self.clock()
            block = not self._should_advance()
            try:
                command = self._queue.get(
                    timeout=0.25 if block else self.poll_seconds
                )
            except queue.Empty:
                command = None
            if command is not None:
                self._execute(command)
                continue
            self._run_deferred()
            if self._should_advance():
                self._advance_tick()
        # Unblock any callers still waiting so shutdown never hangs them.
        self._run_deferred()
        while True:
            try:
                command = self._queue.get_nowait()
            except queue.Empty:
                break
            self._execute(command)

    def _execute(self, command: _Command) -> None:
        if command.abandoned:
            command.done.set()
            return
        if self._advancing and not command.readonly:
            # An act arriving while an advance slices forward: defer to
            # the next boundary; order among deferred acts is preserved.
            self._deferred.append(command)
            return
        self._commands_run += 1
        command.run()

    def _run_deferred(self) -> None:
        while self._deferred:
            command = self._deferred.pop(0)
            self._commands_run += 1
            command.run()

    def _drain_reads_mid_advance(self) -> None:
        """Between slices of a long advance, serve queued reads."""
        while True:
            try:
                command = self._queue.get_nowait()
            except queue.Empty:
                return
            self._execute(command)

    # -- pacing ---------------------------------------------------------
    def _should_advance(self) -> bool:
        return (
            self.mode != "manual"
            and not self._paused
            and self._fatal is None
            and self._result is None
            and self._finish_error is None
        )

    def _advance_tick(self) -> None:
        now = self.run.engine.now
        if self._anchor_wall is None:
            self._anchor_wall = self.clock()
            self._anchor_sim = now
        target = self._anchor_sim + (
            (self.clock() - self._anchor_wall) * self.speedup
        )
        horizon = self.run.end_seconds
        target = min(target, horizon)
        if target > now:
            self._advance_toward(target)
        if self.run.engine.now >= horizon and self._result is None:
            try:
                self._do_finish()
            except DriverError:
                if self._finish_error is None:
                    raise
                # recorded: /api/finish and /api/result answer 409 with it

    def _advance_toward(self, target: float) -> None:
        """Advance in slices, serving reads at each boundary."""
        self._advancing = True
        try:
            while not self._stop.is_set():
                now = self.run.engine.now
                if now >= target:
                    break
                boundary = min(now + self.slice_seconds, target)
                if self.advance_hook is not None:
                    self.advance_hook(boundary)
                self.run.advance(boundary)
                self.heartbeat = self.clock()
                self._maybe_auto_snapshot()
                self._publish_control_events()
                self._drain_reads_mid_advance()
        except Exception as exc:
            self._fatal = f"{type(exc).__name__}: {exc}"
            logger.exception("simulation advance failed; driver halted")
            self.bus.publish(
                {"type": "driver", "action": "fatal", "detail": self._fatal,
                 "sim_now": self.run.engine.now}
            )
        finally:
            self._advancing = False
        self._run_deferred()

    def _maybe_auto_snapshot(self) -> None:
        """At a slice boundary, hand the supervisor a checkpoint frame.

        Encoding happens here on the sim thread (the only place a
        consistent frame exists); everything slow and fallible --
        fsync'd write, restore-and-audit verification, rotation -- runs
        on the supervisor's watchdog thread from the bytes handed over.
        """
        if self.auto_snapshot_every is None or self.on_auto_snapshot is None:
            return
        now = self.run.engine.now
        if self._next_auto_snapshot is None:
            self._next_auto_snapshot = now + self.auto_snapshot_every
            return
        if now + 1e-9 < self._next_auto_snapshot:
            return
        if (
            self.auto_snapshot_min_wall
            and self._last_snapshot_wall is not None
            and self.clock() - self._last_snapshot_wall
            < self.auto_snapshot_min_wall
        ):
            # Wall-clock throttle: checkpoint cadence exists to bound the
            # wall time a recovery loses, so when a manual-step run blasts
            # through simulated time faster than real time there is no
            # point encoding a frame at every sim-cadence tick. Re-arm
            # and try again a cadence later.
            self._next_auto_snapshot = now + self.auto_snapshot_every
            return
        self._last_snapshot_wall = self.clock()
        try:
            frame = self.run.snapshot()
            self.on_auto_snapshot(frame, now)
        except Exception:
            logger.exception("auto-snapshot failed; run continues unharmed")
        self._next_auto_snapshot = now + self.auto_snapshot_every

    # -- command bodies (sim thread only) -------------------------------
    def _do_start(self) -> dict:
        if not self.run.started:
            self.run.start()
        if (
            self.auto_snapshot_every is not None
            and self._next_auto_snapshot is None
        ):
            self._next_auto_snapshot = (
                self.run.engine.now + self.auto_snapshot_every
            )
            # The genesis checkpoint covers the first wall window.
            self._last_snapshot_wall = self.clock()
        self._publish_driver_event("started")
        return self._status_doc()

    def _do_pause(self) -> dict:
        if not self._paused:
            self._paused = True
            self._anchor_wall = None
            self._publish_driver_event("paused")
        return self._status_doc()

    def _do_resume(self) -> dict:
        if self.mode == "manual":
            raise DriverError(
                "manual mode has no wall-clock pacing to resume; use step"
            )
        if self._paused:
            self._paused = False
            self._anchor_wall = None
            self._publish_driver_event("resumed")
        return self._status_doc()

    def _do_step(self, seconds: Optional[float],
                 until: Optional[float]) -> dict:
        if self._fatal is not None:
            raise DriverError(f"driver halted: {self._fatal}")
        if self._result is not None:
            raise DriverError("experiment already finished")
        now = self.run.engine.now
        if until is not None:
            target = float(until)
            if target <= now:
                raise DriverError(
                    f"step target t={target:.1f}s is not ahead of now "
                    f"(t={now:.1f}s)"
                )
        else:
            target = now + float(
                seconds if seconds is not None else self.slice_seconds
            )
        target = min(target, self.run.end_seconds)
        self._advance_toward(target)
        if self._fatal is not None:
            raise DriverError(f"driver halted: {self._fatal}")
        self._steps += 1
        self._anchor_wall = None  # re-anchor timed pacing after the jump
        self._publish_driver_event("stepped")
        return self._status_doc()

    def _do_finish(self) -> dict:
        if self._fatal is not None:
            raise DriverError(f"driver halted: {self._fatal}")
        if self._finish_error is not None:
            raise DriverError(self._finish_error)
        if self._result is None:
            # Slice the remaining distance to the horizon instead of one
            # monolithic advance inside run.finish(): identical
            # trajectory (advance composes exactly), but heartbeats,
            # auto-snapshots, reads and SSE events keep flowing while a
            # long finish runs.
            self._advance_toward(self.run.end_seconds)
            if self._fatal is not None:
                raise DriverError(f"driver halted: {self._fatal}")
            try:
                result = self.run.finish()
            except ValueError as exc:
                # The horizon is reached and cannot be re-run: keep the
                # cause so every later finish or result request names it.
                self._finish_error = f"run finished without a result: {exc}"
                self._publish_driver_event("finish_failed", detail=self._finish_error)
                raise DriverError(self._finish_error) from exc
            self._result = result
            self._result_doc = result.to_dict()
            self._publish_control_events()
            self._publish_driver_event("finished")
        return self._status_doc()

    def _do_snapshot(self, path: str) -> dict:
        size = self.run.save_snapshot(path)
        self._publish_driver_event("snapshot", path=str(path), bytes=size)
        return {"path": str(path), "bytes": size,
                "sim_now": self.run.engine.now}

    # -- events ---------------------------------------------------------
    def _publish_control_events(self) -> None:
        """Bridge new engine eventlog entries onto the SSE bus."""
        events = self.run.event_log.events
        if self._published_events >= len(events):
            return
        for event in events[self._published_events:]:
            self.bus.publish(
                {
                    "type": "control",
                    "time": event.time,
                    "kind": event.kind,
                    "server_id": event.server_id,
                    "detail": event.detail,
                }
            )
        self._published_events = len(events)

    def _publish_driver_event(self, action: str, **extra) -> None:
        doc = {
            "type": "driver",
            "action": action,
            "sim_now": self.run.engine.now,
        }
        doc.update(extra)
        self.bus.publish(doc)

    # -- status ---------------------------------------------------------
    def _status_doc(self) -> dict:
        now = self.run.engine.now
        horizon = self.run.end_seconds
        return {
            "mode": self.mode,
            "speedup": self.speedup,
            "paused": self._paused,
            "started": self.run.started,
            "finished": self._result is not None,
            "fatal": self._fatal,
            "finish_error": self._finish_error,
            "sim_now": now,
            "horizon": horizon,
            "progress": min(1.0, now / horizon) if horizon > 0 else 0.0,
            "steps": self._steps,
            "commands": self._commands_run,
            "queue_depth": self._queue.qsize(),
            "queue_capacity": self.queue_capacity,
            "heartbeat_age_seconds": self.heartbeat_age(),
            "events_published": self.bus.published,
            "events_dropped": self.bus.dropped,
            "events_dropped_by_subscriber": self.bus.drops_by_subscriber(),
            "last_event_id": self.bus.last_event_id,
            "subscribers": self.bus.subscriber_count,
            "wall_uptime_seconds": (
                self.clock() - self._wall_started
                if self._wall_started is not None
                else 0.0
            ),
        }


__all__ = [
    "DEFAULT_QUEUE_CAPACITY",
    "DEFAULT_RING_SIZE",
    "DriverBusy",
    "DriverError",
    "DriverTimeout",
    "EventBus",
    "RealTimeDriver",
    "MODES",
]
