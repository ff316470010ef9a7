"""Server: resources, running tasks, DVFS state and the frozen flag.

A server hosts batch-job tasks placed by the scheduler. Freezing a server
(the Ampere control action) only flips an advisory flag -- running jobs are
untouched, which is the central SLA property of the paper's design. DVFS
frequency changes *do* affect running jobs (they slow down), and the server
notifies registered listeners so the scheduler can reschedule completion
events.

Since the vectorized-engine refactor a ``Server`` is a *thin view*: all
dynamic state (utilization, frequency, flags, the power cache) lives in a
:class:`~repro.cluster.state.ClusterState` slot, and the attributes below
are properties over that slot. Builders pass a shared store so whole rows
become contiguous array slices; a standalone ``Server()`` gets a private
single-slot store. Groups and schedulers need members that share one
store.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.cluster.power import PowerModelParams, server_power_watts
from repro.cluster.state import ClusterState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.workload.job import Job

FrequencyListener = Callable[["Server", float, float], None]


class Server:
    """A single simulated server.

    Parameters
    ----------
    server_id:
        Unique integer id within the data center. The controlled-experiment
        harness splits servers into groups by the parity of this id,
        mirroring the paper's setup (Section 4.1.2).
    cores / memory_gb:
        Schedulable resource capacities.
    power_params:
        Parameters of the utilization-to-power model.
    background_utilization:
        Constant utilization consumed by system daemons; keeps an idle
        production server above the model's idle floor, matching Figure 4's
        ~0.70-of-rated floor for drained servers.
    state:
        The columnar store this server registers with. ``None`` (the
        default) creates a private single-slot store, preserving the
        standalone-object behavior.
    """

    def __init__(
        self,
        server_id: int,
        cores: int = 16,
        memory_gb: float = 64.0,
        power_params: PowerModelParams = PowerModelParams(),
        background_utilization: float = 0.05,
        rack_id: int = -1,
        row_id: int = -1,
        state: Optional[ClusterState] = None,
    ) -> None:
        if cores <= 0:
            raise ValueError(f"cores must be positive, got {cores}")
        if memory_gb <= 0:
            raise ValueError(f"memory_gb must be positive, got {memory_gb}")
        if not 0.0 <= background_utilization < 1.0:
            raise ValueError(
                f"background_utilization must be in [0, 1), got {background_utilization}"
            )
        self.server_id = server_id
        self.rack_id = rack_id
        self.row_id = row_id
        self.cores = cores
        self.memory_gb = memory_gb
        self.power_params = power_params
        self.background_utilization = background_utilization

        self._state = state if state is not None else ClusterState(capacity=1)
        self._index = self._state.add_server(
            server_id, cores, memory_gb, power_params, background_utilization
        )

        self.tasks: Dict[int, "Job"] = {}
        self.frequency_listeners: List[FrequencyListener] = []

    # ------------------------------------------------------------------
    # State-slot views
    # ------------------------------------------------------------------
    @property
    def frozen(self) -> bool:
        return bool(self._state.frozen[self._index])

    @frozen.setter
    def frozen(self, value: bool) -> None:
        # _queue_refit() inlined: a group freeze writes this flag per server
        state, i = self._state, self._index
        state.frozen[i] = value
        fit = state.fit_index_of[i]
        if fit is not None:
            fit.pending.add(i)

    @property
    def failed(self) -> bool:
        return bool(self._state.failed[self._index])

    @failed.setter
    def failed(self, value: bool) -> None:
        self._state.failed[self._index] = value
        self._queue_refit()

    @property
    def powered_off(self) -> bool:
        return bool(self._state.powered_off[self._index])

    @powered_off.setter
    def powered_off(self, value: bool) -> None:
        self._state.powered_off[self._index] = value
        self._queue_refit()

    @property
    def frequency(self) -> float:
        return float(self._state.frequency[self._index])

    @frequency.setter
    def frequency(self, value: float) -> None:
        self._state.frequency[self._index] = value

    @property
    def used_cores(self) -> float:
        return float(self._state.used_cores[self._index])

    @used_cores.setter
    def used_cores(self, value: float) -> None:
        self._state.used_cores[self._index] = value
        self._queue_refit()

    @property
    def used_memory_gb(self) -> float:
        return float(self._state.used_memory_gb[self._index])

    @used_memory_gb.setter
    def used_memory_gb(self, value: float) -> None:
        self._state.used_memory_gb[self._index] = value
        self._queue_refit()

    @property
    def jobs_started(self) -> int:
        return int(self._state.jobs_started[self._index])

    @jobs_started.setter
    def jobs_started(self, value: int) -> None:
        self._state.jobs_started[self._index] = value

    @property
    def jobs_completed(self) -> int:
        return int(self._state.jobs_completed[self._index])

    @jobs_completed.setter
    def jobs_completed(self, value: int) -> None:
        self._state.jobs_completed[self._index] = value

    @property
    def tenant_id(self) -> int:
        """Tenant ordinal tag (0 = untenanted; see ClusterState.set_tenant)."""
        return int(self._state.tenant_ids[self._index])

    @tenant_id.setter
    def tenant_id(self, value: int) -> None:
        self._state.set_tenant(self._index, int(value))

    def _invalidate_power(self) -> None:
        self._state.power_valid[self._index] = False

    def _queue_refit(self) -> None:
        """Queue this slot for the placement fit index covering it, which
        re-reads it before its next query."""
        fit = self._state.fit_index_of[self._index]
        if fit is not None:
            fit.pending.add(self._index)

    # ------------------------------------------------------------------
    # Resource accounting
    # ------------------------------------------------------------------
    @property
    def free_cores(self) -> float:
        return self.cores - self.used_cores

    @property
    def free_memory_gb(self) -> float:
        return self.memory_gb - self.used_memory_gb

    def can_fit(self, cores: float, memory_gb: float) -> bool:
        """Whether a task with the given demands fits right now."""
        return (
            self.used_cores + cores <= self.cores + 1e-9
            and self.used_memory_gb + memory_gb <= self.memory_gb + 1e-9
        )

    def add_task(self, job: "Job") -> None:
        """Attach a placed job's demand (a per-job hot path: one slot read,
        column updates in place, can_fit's arithmetic and 1e-9 slack, and
        a refit of the placement fit index when one covers the slot)."""
        if job.job_id in self.tasks:
            raise ValueError(f"job {job.job_id} already running on server {self.server_id}")
        state, i = self._state, self._index
        used_cores = state.used_cores.item(i) + job.cores
        used_memory_gb = state.used_memory_gb.item(i) + job.memory_gb
        if not (used_cores <= self.cores + 1e-9 and used_memory_gb <= self.memory_gb + 1e-9):
            raise ValueError(
                f"job {job.job_id} does not fit on server {self.server_id}: "
                f"needs {job.cores}c/{job.memory_gb}g, "
                f"free {self.free_cores:.1f}c/{self.free_memory_gb:.1f}g"
            )
        self.tasks[job.job_id] = job
        state.used_cores[i] = used_cores
        state.used_memory_gb[i] = used_memory_gb
        state.jobs_started[i] += 1
        state.power_valid[i] = False
        fit = state.fit_index_of[i]
        if fit is not None:
            fit.refit(i, used_cores, used_memory_gb)

    def remove_task(self, job: "Job") -> None:
        """Release a finished (or killed) job's resources."""
        if job.job_id not in self.tasks:
            raise KeyError(f"job {job.job_id} not running on server {self.server_id}")
        del self.tasks[job.job_id]
        state, i = self._state, self._index
        used_cores = state.used_cores.item(i) - job.cores
        used_memory_gb = state.used_memory_gb.item(i) - job.memory_gb
        # Guard against float drift accumulating into tiny negatives.
        if used_cores < 1e-9:
            used_cores = 0.0
        if used_memory_gb < 1e-9:
            used_memory_gb = 0.0
        state.used_cores[i] = used_cores
        state.used_memory_gb[i] = used_memory_gb
        state.jobs_completed[i] += 1
        state.power_valid[i] = False
        fit = state.fit_index_of[i]
        if fit is not None:
            fit.refit(i, used_cores, used_memory_gb)

    # ------------------------------------------------------------------
    # Power
    # ------------------------------------------------------------------
    @property
    def utilization(self) -> float:
        """Fraction of cores busy, including the background daemons."""
        task_util = self.used_cores / self.cores
        return min(1.0, self.background_utilization + task_util)

    def power_watts(self) -> float:
        """Instantaneous true power draw (no measurement noise).

        A failed or powered-off server draws nothing (its PSU is off or
        the machine is pulled for repair). Power is read every capping
        tick (seconds) but changes only on task placement/completion or a
        DVFS step, so it is cached -- in the shared store, where batched
        mask mutations invalidate it for object-path readers too.
        """
        state, i = self._state, self._index
        if state.failed[i] or state.powered_off[i]:
            return 0.0
        if not state.power_valid[i]:
            state.power_cache[i] = server_power_watts(
                self.power_params, self.utilization, self.frequency
            )
            state.power_valid[i] = True
        return float(state.power_cache[i])

    @property
    def rated_watts(self) -> float:
        return self.power_params.rated_watts

    # ------------------------------------------------------------------
    # Control surfaces
    # ------------------------------------------------------------------
    def freeze(self) -> None:
        """Advise the scheduler to stop placing new jobs here.

        Idempotent; running jobs are unaffected (the paper's key property).
        """
        self.frozen = True

    def unfreeze(self) -> None:
        """Make the server schedulable again. Idempotent."""
        self.frozen = False

    def power_off(self) -> None:
        """Enter a PowerNap-style off state. Only valid when idle --
        consolidation baselines never migrate running work."""
        if self.tasks:
            raise RuntimeError(
                f"cannot power off server {self.server_id}: {len(self.tasks)} "
                "tasks are running"
            )
        self.powered_off = True
        self._invalidate_power()

    def power_on(self) -> None:
        """Return from the off state, idle and at full frequency."""
        self.powered_off = False
        self.frequency = 1.0
        self._invalidate_power()

    def fail(self) -> None:
        """Mark the machine down. The scheduler is responsible for killing
        and resubmitting its tasks (see ``OmegaScheduler.fail_server``).

        Losing power also loses the DVFS state: the machine will POST at
        full frequency, so the flag is cleared here (directly -- there are
        no running jobs left to re-time, and listeners must not observe a
        phantom "uncap" on a dark machine). Without this, a server that
        failed while capped kept ``is_capped`` and leaked capped-time
        accounting for as long as it stayed dark. The batched
        equivalent is :meth:`ClusterState.fail_servers`, which applies the
        same flag+frequency+cache transition as a mask.
        """
        self.failed = True
        self.frequency = 1.0
        self._invalidate_power()

    def repair(self) -> None:
        """Bring the machine back, empty and at full frequency."""
        self.failed = False
        self.frequency = 1.0
        self._invalidate_power()

    def set_frequency(self, frequency: float) -> None:
        """Change the DVFS frequency multiplier and notify listeners.

        Listeners (the scheduler's completion bookkeeping, interactive
        services) receive ``(server, old_frequency, new_frequency)``.
        """
        if not 0.0 < frequency <= 1.0:
            raise ValueError(f"frequency must be in (0, 1], got {frequency}")
        if frequency == self.frequency:
            return
        old = self.frequency
        self.frequency = frequency
        self._invalidate_power()
        for listener in self.frequency_listeners:
            listener(self, old, frequency)

    @property
    def is_capped(self) -> bool:
        return self.frequency < 1.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "frozen" if self.frozen else "active"
        return (
            f"Server(id={self.server_id}, {state}, f={self.frequency:.2f}, "
            f"util={self.utilization:.2f}, tasks={len(self.tasks)})"
        )


__all__ = ["Server", "FrequencyListener"]
