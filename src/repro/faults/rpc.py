"""A scheduler proxy whose ``set_frozen`` RPCs fail like real ones.

In production the scheduler is a remote service; Ampere's one control
call crosses a network. :class:`FlakyScheduler` wraps any
:class:`~repro.scheduler.base.SchedulerInterface` and makes exactly that
call fail with configurable probability, raising
:class:`~repro.scheduler.base.SchedulerRpcError` *before* the inner call
runs -- a failed RPC is guaranteed not to have been applied, matching the
interface contract. Reads (``frozen_server_ids``) and job submission pass
through untouched: the fault surface is the control path, not the data
path.

The fault seam for a batch: one ``set_frozen`` call is one RPC, with one
failure draw. The batch lands or raises as a whole -- a raise means no
server of the batch changed, never a partial apply. The caller's retry,
back-off, deadline and next-tick reconciliation then apply to the whole
remaining batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List

import numpy as np

from repro.scheduler.base import SchedulerInterface, SchedulerRpcError
from repro.workload.job import Job


@dataclass
class RpcFaultStats:
    """What the fault layer did to the control path."""

    calls: int = 0
    failures: int = 0
    injected_latency_seconds: float = 0.0


class FlakyScheduler(SchedulerInterface):
    """Transparent scheduler wrapper with injectable RPC faults.

    Parameters
    ----------
    inner:
        The real scheduler.
    rng:
        Fault RNG (derive from the scenario seed, never the experiment's,
        so fault timing replays independently of workload randomness).
    failure_rate:
        Per-call probability that a ``set_frozen`` batch raises.
    latency_seconds / timeout_seconds:
        Latency charged to successful calls / to failures. The failure
        cost is what drains the controller's per-tick RPC deadline.
    """

    def __init__(
        self,
        inner: SchedulerInterface,
        rng: np.random.Generator,
        failure_rate: float = 0.0,
        latency_seconds: float = 0.02,
        timeout_seconds: float = 2.0,
    ) -> None:
        if not 0.0 <= failure_rate < 1.0:
            raise ValueError(f"failure_rate must be in [0, 1), got {failure_rate}")
        self.inner = inner
        self.rng = rng
        self.failure_rate = failure_rate
        self.latency_seconds = latency_seconds
        self.timeout_seconds = timeout_seconds
        self.stats = RpcFaultStats()

    # ------------------------------------------------------------------
    # SchedulerInterface
    # ------------------------------------------------------------------
    def submit(self, job: Job) -> None:
        self.inner.submit(job)

    def set_frozen(self, slots, frozen: bool) -> List[int]:
        self.stats.calls += 1
        if self.failure_rate > 0 and self.rng.random() < self.failure_rate:
            self.stats.failures += 1
            self.stats.injected_latency_seconds += self.timeout_seconds
            raise SchedulerRpcError(
                f"{'freeze' if frozen else 'unfreeze'} of {len(slots)} "
                f"servers timed out after {self.timeout_seconds:.1f}s",
                latency_seconds=self.timeout_seconds,
            )
        self.stats.injected_latency_seconds += self.latency_seconds
        return self.inner.set_frozen(slots, frozen)

    def frozen_server_ids(self) -> FrozenSet[int]:
        return self.inner.frozen_server_ids()


__all__ = ["FlakyScheduler", "RpcFaultStats"]
