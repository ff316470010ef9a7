"""Scheduler interface: the only surface Ampere is allowed to touch.

Design choice 2 of the paper (Section 3.1): the power controller must not
read scheduler internals or inject policy; it may only ``submit`` nothing
and call ``freeze``/``unfreeze``. Keeping the interface this small is what
makes the approach portable across schedulers.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Optional

from repro.telemetry import Telemetry, counter_series
from repro.workload.job import Job


@dataclass
class SchedulerStats:
    """Cluster-wide scheduling counters used by the evaluation."""

    submitted: int = 0
    placed: int = 0
    completed: int = 0
    failures: int = 0
    jobs_killed: int = 0
    preemptions: int = 0
    jobs_preempted: int = 0
    #: tasks dropped by emergency load shedding (killed, never resubmitted)
    jobs_shed: int = 0
    #: placements broken down by product tag
    placed_by_product: Dict[str, int] = field(default_factory=dict)

    def record_placement(self, job: Job) -> None:
        self.placed += 1
        self.placed_by_product[job.product] = (
            self.placed_by_product.get(job.product, 0) + 1
        )


class SchedulerRpcError(RuntimeError):
    """A freeze/unfreeze RPC failed in transit (timeout, connection reset).

    Part of the interface contract: in production the scheduler is a
    remote service, so ``freeze``/``unfreeze`` may fail without the
    request having been applied. Callers must treat a raise as
    "state unchanged" and either retry or reconcile on the next tick.
    ``latency_seconds`` is how long the caller waited before the failure
    surfaced (a timeout costs its full deadline).
    """

    def __init__(self, message: str, latency_seconds: float = 0.0) -> None:
        super().__init__(message)
        self.latency_seconds = latency_seconds


class SchedulerInterface(abc.ABC):
    """What a data-center scheduler must expose for Ampere to work."""

    @abc.abstractmethod
    def submit(self, job: Job) -> None:
        """Accept a job for (eventual) placement."""

    @abc.abstractmethod
    def freeze(self, server_id: int) -> None:
        """Advise: stop assigning new jobs to this server.

        Running jobs are unaffected. Idempotent. May raise
        :class:`SchedulerRpcError` when the control plane is degraded;
        the request is then guaranteed *not* to have been applied.
        """

    @abc.abstractmethod
    def unfreeze(self, server_id: int) -> None:
        """Make a frozen server schedulable again. Idempotent. May raise
        :class:`SchedulerRpcError` (request not applied)."""

    @abc.abstractmethod
    def frozen_server_ids(self) -> FrozenSet[int]:
        """Currently frozen server ids -- the *authoritative* frozen set.

        A restarted or reconciling controller must trust this over any
        in-memory copy of its own intent.
        """


RPC_CALLS = counter_series(
    "repro_scheduler_rpc_total", "freeze/unfreeze RPCs issued by the control plane", label="op"
)
RPC_ERRORS = counter_series(
    "repro_scheduler_rpc_errors_total",
    "freeze/unfreeze RPCs that raised SchedulerRpcError",
    label="op",
)


class InstrumentedScheduler(SchedulerInterface):
    """Transparent telemetry proxy over any :class:`SchedulerInterface`.

    Sits outermost in the controller-facing stack (instrumentation wraps
    the fault layer, when one is configured), so it observes exactly
    what the controller experiences: every freeze/unfreeze intent,
    including the ones a flaky transport rejects. Each call records

    - ``repro_scheduler_rpc_total{op}`` / ``repro_scheduler_rpc_errors_total{op}``,
    - a ``repro_scheduler_rpc_latency_seconds{op}`` histogram of the
      *modeled* RPC latency (the fault layer's configured latency on
      success, the timeout charged by :class:`SchedulerRpcError` on
      failure) -- sim-deterministic, so it merges across campaign
      workers,
    - a ``scheduler.rpc`` span carrying the wall-clock cost.

    Reads (``frozen_server_ids``) and ``submit`` pass through untouched:
    the instrumented surface is the control path, mirroring the fault
    layer's scope.
    """

    def __init__(
        self, inner: SchedulerInterface, telemetry: Optional[Telemetry] = None
    ) -> None:
        self.inner = inner
        tel = telemetry if telemetry is not None else Telemetry.disabled()
        self._telemetry = tel
        #: RPCs issued and RPCs that raised, per op
        self.rpc_calls = {"freeze": 0, "unfreeze": 0}
        self.rpc_errors = {"freeze": 0, "unfreeze": 0}
        self._latency = {
            op: tel.histogram(
                "repro_scheduler_rpc_latency_seconds",
                "Modeled RPC latency of freeze/unfreeze calls "
                "(timeout cost on failure)",
                {"op": op},
            )
            for op in ("freeze", "unfreeze")
        }
        tel.collect(self._metrics)

    def _metrics(self):
        for op in ("freeze", "unfreeze"):
            yield RPC_CALLS(self.rpc_calls[op], op)
            yield RPC_ERRORS(self.rpc_errors[op], op)

    # ------------------------------------------------------------------
    # SchedulerInterface
    # ------------------------------------------------------------------
    def submit(self, job: Job) -> None:
        self.inner.submit(job)

    def freeze(self, server_id: int) -> None:
        self._call("freeze", server_id, self.inner.freeze)

    def unfreeze(self, server_id: int) -> None:
        self._call("unfreeze", server_id, self.inner.unfreeze)

    def frozen_server_ids(self) -> FrozenSet[int]:
        return self.inner.frozen_server_ids()

    # ------------------------------------------------------------------
    def _call(
        self, op: str, server_id: int, call: Callable[[int], None]
    ) -> None:
        self.rpc_calls[op] += 1
        with self._telemetry.span("scheduler.rpc", op=op, server_id=server_id):
            try:
                call(server_id)
            except SchedulerRpcError as error:
                self.rpc_errors[op] += 1
                self._latency[op].observe(error.latency_seconds)
                raise
        # Successful calls cost the transport's modeled latency when the
        # inner layer models one (the fault layer does), else 0.
        self._latency[op].observe(getattr(self.inner, "latency_seconds", 0.0))


__all__ = [
    "InstrumentedScheduler",
    "SchedulerInterface",
    "SchedulerRpcError",
    "SchedulerStats",
]

