"""Heap-based discrete-event simulation engine.

The engine owns simulated time and a priority queue of pending events. An
event is an arbitrary callback scheduled at an absolute simulated time with
an :class:`~repro.sim.events.EventPriority` tie-breaker; among events with
identical ``(time, priority)`` the insertion order decides, which makes runs
deterministic for a fixed seed.

Time is measured in **seconds** as a float. One simulated minute (the
paper's monitoring and control interval) is 60.0.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

from repro.sim.events import EventPriority
from repro.telemetry import Telemetry, counter_series, gauge_series

Callback = Callable[..., None]

EVENTS = counter_series("repro_engine_events_total", "Event callbacks executed by the engine")
QUEUE_DEPTH = gauge_series(
    "repro_engine_queue_depth", "Pending heap entries (including lazily-cancelled ones)"
)
CANCELLED = counter_series(
    "repro_engine_cancelled_events_total", "Heap entries skipped because their handle was cancelled"
)


class _SimClock:
    """Picklable sim-clock binding handed to the tracer.

    A named class (not a lambda) so a live engine -- and everything that
    holds a reference to its clock -- can cross a pickle boundary for
    durable snapshots (:mod:`repro.durability`).
    """

    __slots__ = ("engine",)

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine

    def __call__(self) -> float:
        return self.engine._now


class _PeriodicTask:
    """Self-rescheduling callable behind :meth:`Engine.schedule_periodic`.

    Replaces the historical closure with a picklable object: the heap
    entry it lives in must survive a snapshot/restore round trip
    byte-identically. Behaviour is unchanged -- the callback fires, then
    the next occurrence is scheduled one interval after *now* while it
    stays strictly before ``until``.
    """

    __slots__ = ("engine", "interval", "priority", "callback", "until")

    def __init__(
        self,
        engine: "Engine",
        interval: float,
        priority: EventPriority,
        callback: Callback,
        until: Optional[float],
    ) -> None:
        self.engine = engine
        self.interval = interval
        self.priority = priority
        self.callback = callback
        self.until = until

    def __call__(self) -> None:
        self.callback()
        next_time = self.engine._now + self.interval
        if self.until is None or next_time < self.until:
            self.engine.schedule(next_time, self.priority, self)


class EventHandle:
    """A cancellable reference to a scheduled event.

    Cancellation is lazy: the entry stays in the heap but is skipped when it
    surfaces. This is the standard idiom for binary-heap schedulers and is
    what lets job-completion events be invalidated cheaply when DVFS capping
    changes a server's execution speed.
    """

    __slots__ = ("time", "cancelled")

    def __init__(self, time: float) -> None:
        self.time = time
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the engine skips it when it is popped."""
        self.cancelled = True


class Engine:
    """Discrete-event simulation loop.

    Example
    -------
    >>> engine = Engine()
    >>> seen = []
    >>> _ = engine.schedule(5.0, EventPriority.GENERIC, seen.append, "late")
    >>> _ = engine.schedule(1.0, EventPriority.GENERIC, seen.append, "early")
    >>> engine.run()
    >>> seen
    ['early', 'late']
    >>> engine.now
    5.0
    """

    def __init__(
        self, start_time: float = 0.0, telemetry: Optional[Telemetry] = None
    ) -> None:
        self._now = float(start_time)
        self._heap: list = []
        self._sequence = itertools.count()
        self._events_processed = 0
        #: heap entries the run loop skipped because they were cancelled
        self._cancelled_skipped = 0
        self._running = False
        # The engine drives the run, so it owns the sim-clock binding.
        # Its series are read from the fields above when the registry is
        # read; the run loop makes no telemetry call per event.
        self.telemetry = telemetry if telemetry is not None else Telemetry.disabled()
        self.telemetry.bind_sim_clock(_SimClock(self))
        self.telemetry.collect(self._metrics)

    def _metrics(self):
        yield EVENTS(self._events_processed)
        yield QUEUE_DEPTH(len(self._heap))
        yield CANCELLED(self._cancelled_skipped)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of callbacks executed so far."""
        return self._events_processed

    def schedule(
        self,
        time: float,
        priority: EventPriority,
        callback: Callback,
        *args: Any,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``.

        Scheduling in the past raises ``ValueError`` -- a past-dated event is
        always a logic bug in the caller, and silently reordering it would
        corrupt causality.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule event at t={time:.3f} before current "
                f"time t={self._now:.3f}"
            )
        handle = EventHandle(time)
        heapq.heappush(
            self._heap,
            (time, int(priority), next(self._sequence), handle, callback, args),
        )
        return handle

    def schedule_in(
        self,
        delay: float,
        priority: EventPriority,
        callback: Callback,
        *args: Any,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule(self._now + delay, priority, callback, *args)

    def schedule_periodic(
        self,
        interval: float,
        priority: EventPriority,
        callback: Callback,
        *,
        first_at: Optional[float] = None,
        until: Optional[float] = None,
    ) -> None:
        """Run ``callback()`` every ``interval`` seconds.

        The callback receives no arguments. ``first_at`` defaults to one
        interval from now; ``until`` (exclusive) stops the chain. The chain
        also stops naturally when the run horizon passes.
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        start = self._now + interval if first_at is None else first_at
        task = _PeriodicTask(self, interval, priority, callback, until)
        if until is None or start < until:
            self.schedule(start, priority, task)

    def run(self, until: Optional[float] = None) -> None:
        """Process events in order until the heap empties or ``until``.

        When ``until`` is given, all events strictly before it are processed
        and the clock is left exactly at ``until`` (events at ``until``
        itself remain pending, so consecutive ``run`` calls compose).
        """
        if self._running:
            raise RuntimeError("engine is already running (re-entrant run())")
        self._running = True
        started = self._events_processed
        try:
            with self.telemetry.span("engine.run") as span:
                while self._heap:
                    time, _priority, _seq, handle, callback, args = self._heap[0]
                    if until is not None and time >= until:
                        break
                    heapq.heappop(self._heap)
                    if handle.cancelled:
                        self._cancelled_skipped += 1
                        continue
                    self._now = time
                    callback(*args)
                    self._events_processed += 1
                if until is not None and until > self._now:
                    self._now = until
                span.set_attribute(
                    "events_processed", self._events_processed - started
                )
        finally:
            self._running = False

    def pending_count(self) -> int:
        """Number of heap entries, including lazily-cancelled ones."""
        return len(self._heap)


__all__ = ["Engine", "EventHandle", "Callback"]
