"""Two-level Omega-like scheduler with the batched freeze/thaw API.

The low level (this class plus :class:`ResourceTracker`, which reads
placement state straight from the servers' shared ``ClusterState``)
executes placements, schedules job-completion events on the
simulation engine, and keeps completions correct when DVFS capping changes
a server's execution speed. The upper level is a set of per-product
:class:`Framework` objects, each with its own FIFO queue (with bounded
backfill) and placement policy.

Freezing a server only removes it from the candidate set for *new*
placements; running jobs continue untouched -- the property Ampere's
SLA-safety argument rests on. Every freeze or thaw -- the controller's,
the safety supervisor's, calibration's and an operator's group act -- is
one :meth:`OmegaScheduler.set_frozen` call over a batch of servers: one
write of the store's frozen column, one call per control listener with
every changed server id, and after a thaw one queue drain over the whole
thawed set.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, FrozenSet, Iterable, List, Optional, Sequence

import numpy as np

from repro.cluster.server import Server
from repro.scheduler.base import SchedulerInterface, SchedulerStats
from repro.scheduler.policies import PlacementPolicy, RandomAvailablePolicy
from repro.scheduler.resources import ResourceTracker
from repro.sim.engine import Engine
from repro.sim.events import EventPriority
from repro.workload.job import Job

PlacementListener = Callable[[Job, Server], None]
CompletionListener = Callable[[Job, Server], None]
#: called with (action, server_ids): every server one control action
#: changed, in slot order (one id for fail, repair and shed)
ControlListener = Callable[[str, Sequence[int]], None]

#: Progress shortfall below which a completion event is accepted as final.
_COMPLETION_EPSILON = 1e-6


class Framework:
    """An upper-level application scheduler (one per product family).

    Jobs wait in FIFO order; to avoid pathological head-of-line blocking a
    bounded *backfill window* of queued jobs behind the head may be placed
    when the head does not fit (real cluster schedulers backfill the same
    way).
    """

    def __init__(
        self,
        name: str,
        policy: Optional[PlacementPolicy] = None,
        backfill_depth: int = 8,
    ) -> None:
        if backfill_depth < 1:
            raise ValueError(f"backfill_depth must be >= 1, got {backfill_depth}")
        self.name = name
        self.policy = policy if policy is not None else RandomAvailablePolicy()
        self.backfill_depth = backfill_depth
        self.queue: Deque[Job] = deque()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Framework({self.name!r}, queued={len(self.queue)})"


class OmegaScheduler(SchedulerInterface):
    """The cluster scheduler used throughout the reproduction.

    Parameters
    ----------
    engine:
        Simulation engine (completion events are scheduled on it).
    servers:
        The schedulable fleet (usually every server in the data center --
        the paper schedules over the whole facility as one pool).
    rng:
        Random generator for placement tie-breaking.
    default_policy:
        Policy of the implicitly created default framework.
    """

    def __init__(
        self,
        engine: Engine,
        servers: Iterable[Server],
        rng: np.random.Generator,
        default_policy: Optional[PlacementPolicy] = None,
        enable_preemption: bool = False,
    ) -> None:
        self.engine = engine
        self.enable_preemption = enable_preemption
        self.tracker = ResourceTracker(list(servers))
        self.rng = rng
        self.stats = SchedulerStats()
        self.frameworks: Dict[str, Framework] = {}
        self._default_framework = Framework("default", default_policy)
        self.placement_listeners: List[PlacementListener] = []
        self.completion_listeners: List[CompletionListener] = []
        #: called on freeze/unfreeze/fail/repair/shed (see ControlListener)
        self.control_listeners: List[ControlListener] = []
        self._frozen_ids: set = set()
        for server in self.tracker.servers:
            server.frequency_listeners.append(self._on_frequency_change)

    # ------------------------------------------------------------------
    # Framework management (upper level)
    # ------------------------------------------------------------------
    def register_framework(self, framework: Framework) -> None:
        if framework.name in self.frameworks:
            raise ValueError(f"framework {framework.name!r} already registered")
        self.frameworks[framework.name] = framework

    def all_frameworks(self) -> List[Framework]:
        return [self._default_framework, *self.frameworks.values()]

    @property
    def queued_jobs(self) -> int:
        return sum(len(f.queue) for f in self.all_frameworks())

    # ------------------------------------------------------------------
    # SchedulerInterface
    # ------------------------------------------------------------------
    def submit(self, job: Job) -> None:
        """Accept a job: place immediately if possible, else enqueue.

        With preemption enabled, a positive-priority job that cannot fit
        may evict lower-priority running work instead of queueing.
        """
        self.stats.submitted += 1
        framework = self.frameworks.get(job.product, self._default_framework)
        if not framework.queue:
            index = framework.policy.place(self.tracker, job, self.rng)
            if index is not None:
                self._place(job, index)
                return
        if (
            self.enable_preemption
            and job.priority > 0
            and self._try_preempt_for(job)
        ):
            return
        framework.queue.append(job)

    def _index(self, server_id: int) -> int:
        index = self.tracker.index_of.get(server_id)
        if index is None:
            raise KeyError(f"unknown server id {server_id}")
        return index

    def _server(self, server_id: int) -> Server:
        return self.tracker.servers[self._index(server_id)]

    def set_frozen(self, slots, frozen: bool) -> List[int]:
        """Freeze (``frozen=True``) or thaw many servers in one call.

        ``slots`` are store slots of this scheduler's servers (a group's
        ``state_indices``). Servers already in the target state are
        skipped, and so are failed and powered-off servers on a freeze (a
        thaw clears the flag of a dark server too, so it comes back
        schedulable). Returns the ids of the servers that changed, in
        slot order; when none did, nothing is written, notified or
        drained.
        """
        tracker = self.tracker
        state = tracker.state
        slots = np.asarray(slots, dtype=np.intp)
        first = tracker.first_slot
        if slots.size and (slots.min() < first or slots.max() >= first + len(tracker)):
            raise KeyError("slots outside this scheduler's servers")
        change = state.frozen[slots] != frozen
        if frozen:
            change &= ~(state.failed[slots] | state.powered_off[slots])
        slots = slots[change]
        server_ids = state.server_ids[slots].tolist()
        if server_ids:
            (self.freeze if frozen else self.unfreeze)(slots, server_ids)
        return server_ids

    # The two halves of set_frozen, called only by it with the servers
    # that change. They keep these names because perfbench's tracer
    # times them as the ``scheduler.freeze`` layer.
    def freeze(self, slots, server_ids: Sequence[int]) -> None:
        """One mask write (which queues the fit index refits), one set
        update and one call per control listener."""
        self.tracker.state.set_frozen(slots, True)
        self._frozen_ids.update(server_ids)
        self._notify_control("freeze", server_ids)

    def unfreeze(self, slots, server_ids: Sequence[int]) -> None:
        """As :meth:`freeze`, then one queue drain once every thawed
        server is schedulable."""
        self.tracker.state.set_frozen(slots, False)
        self._frozen_ids.difference_update(server_ids)
        self._notify_control("unfreeze", server_ids)
        self._drain_queues()

    def frozen_server_ids(self) -> FrozenSet[int]:
        return frozenset(self._frozen_ids)

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def fail_server(self, server_id: int) -> int:
        """Take a server down: kill its tasks and resubmit fresh attempts.

        Batch tasks restart from scratch on another machine (MapReduce
        semantics); pinned services are lost until an operator re-pins
        them. Returns the number of tasks killed.
        """
        server = self._server(server_id)
        if server.failed:
            return 0
        killed = list(server.tasks.values())
        for job in killed:
            self._evict(job, server)
        server.fail()
        self._notify_control("fail", (server_id,))
        self.stats.failures += 1
        self.stats.jobs_killed += len(killed)
        now = self.engine.now
        for job in killed:
            if job.remaining_work == float("inf"):
                continue  # a pinned service; not rescheduled automatically
            retry = Job(
                job.job_id,
                job.work_seconds,
                cores=job.cores,
                memory_gb=job.memory_gb,
                arrival_time=now,
                product=job.product,
                allowed_rows=job.allowed_rows,
                tenant=job.tenant,
            )
            self.submit(retry)
        return len(killed)

    def shed_tasks(self, server_id: int, max_tasks: Optional[int] = None) -> int:
        """Emergency load shedding: drop batch tasks from one server.

        The safety supervisor's last resort before a breaker trip. Unlike
        :meth:`fail_server` the machine stays up and, critically, the
        killed work is *not* resubmitted -- shedding must reduce total
        demand, not relocate it. Victims are chosen priority-aware:
        lowest priority first, largest remaining work first within a
        priority (drop the cheapest, longest-lived work). Pinned services
        (infinite work) are never shed. Returns the number of tasks
        dropped.
        """
        server = self._server(server_id)
        victims = sorted(
            (
                t
                for t in server.tasks.values()
                if t.remaining_work != float("inf")
            ),
            key=lambda t: (t.priority, -t.remaining_work, t.job_id),
        )
        if max_tasks is not None:
            victims = victims[:max_tasks]
        now = self.engine.now
        for job in victims:
            self._evict(job, server, now)
        if victims:
            self.stats.jobs_shed += len(victims)
            self._notify_control("shed", (server_id,))
        return len(victims)

    def repair_server(self, server_id: int) -> None:
        """Bring a failed server back into the schedulable pool."""
        server = self._server(server_id)
        if not server.failed:
            return
        server.repair()
        self._notify_control("repair", (server_id,))
        self._drain_queues()

    # ------------------------------------------------------------------
    # Power-state management (consolidation baselines)
    # ------------------------------------------------------------------
    def power_off_server(self, server_id: int) -> None:
        """Remove an *idle* server from the pool (PowerNap-style).

        Raises ``RuntimeError`` if the server still runs tasks; a
        consolidation controller must only select idle machines.
        """
        self._server(server_id).power_off()

    def power_on_server(self, server_id: int) -> None:
        """Return a powered-off server to the pool and drain the queue."""
        self._server(server_id).power_on()
        self._drain_queues()

    # ------------------------------------------------------------------
    # Preemption
    # ------------------------------------------------------------------
    def _try_preempt_for(self, job: Job) -> bool:
        """Evict lower-priority work to place ``job``; True on success.

        Victim server: the eligible server whose evicted priority mass is
        smallest. Victims are killed lowest-priority-first and resubmitted
        as fresh attempts (restart semantics, like the failure path);
        pinned services (infinite work) are never evicted.
        """
        best_index = None
        best_victims = None
        best_cost = None
        for index, server in enumerate(self.tracker.servers):
            if server.frozen or server.failed:
                continue
            if job.allowed_rows is not None and server.row_id not in job.allowed_rows:
                continue
            victims = self._cheapest_victims(server, job)
            if victims is None:
                continue
            cost = (sum(v.priority for v in victims), len(victims))
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_index = index
                best_victims = victims
        if best_index is None:
            return False
        server = self.tracker.servers[best_index]
        now = self.engine.now
        for victim in best_victims:
            self._evict(victim, server, now)
            self.stats.jobs_preempted += 1
        self.stats.preemptions += 1
        # Claim the freed capacity for the urgent job before the victims'
        # retries are resubmitted, or they would race it for the slot.
        self._place(job, best_index)
        for victim in best_victims:
            self.submit(
                Job(
                    victim.job_id,
                    victim.work_seconds,
                    cores=victim.cores,
                    memory_gb=victim.memory_gb,
                    arrival_time=now,
                    product=victim.product,
                    allowed_rows=victim.allowed_rows,
                    priority=victim.priority,
                    tenant=victim.tenant,
                )
            )
        return True

    def _cheapest_victims(self, server: Server, job: Job):
        """Lowest-priority tasks whose eviction makes ``job`` fit, or None."""
        free_cores = server.free_cores
        free_memory = server.free_memory_gb
        if free_cores >= job.cores and free_memory >= job.memory_gb:
            return []  # caller should have placed normally, but handle it
        evictable = sorted(
            (
                t
                for t in server.tasks.values()
                if t.priority < job.priority and t.remaining_work != float("inf")
            ),
            key=lambda t: (t.priority, t.remaining_work),
        )
        victims = []
        for task in evictable:
            if free_cores >= job.cores and free_memory >= job.memory_gb:
                break
            victims.append(task)
            free_cores += task.cores
            free_memory += task.memory_gb
        if free_cores >= job.cores and free_memory >= job.memory_gb:
            return victims
        return None

    def _evict(self, job: Job, server: Server, now: Optional[float] = None) -> None:
        """Stop a running job for good: cancel its completion, release its
        resources and mark it killed, first crediting its progress up to
        ``now`` unless the machine died under it (``now`` is None)."""
        if job.completion_handle is not None:
            job.completion_handle.cancel()
            job.completion_handle = None
        if now is not None:
            job.advance(now, server.frequency)
        server.remove_task(job)
        job.kill()

    def _notify_control(self, action: str, server_ids: Sequence[int]) -> None:
        for listener in self.control_listeners:
            listener(action, server_ids)

    # ------------------------------------------------------------------
    # Placement (low level)
    # ------------------------------------------------------------------
    def _try_place(self, job: Job, framework: Framework) -> bool:
        index = framework.policy.place(self.tracker, job, self.rng)
        if index is None:
            return False
        self._place(job, index)
        return True

    def _place(self, job: Job, index: int) -> None:
        """Start ``job`` on tracker server ``index`` (a per-job hot path:
        ``Job.begin``, ``Job.eta`` and the placement count are inlined, and
        the frequency is read from the store slot)."""
        server = self.tracker.servers[index]
        engine = self.engine
        now = engine._now
        server.add_task(job)
        if job.server is not None and job.finish_time is None and not job.killed:
            raise RuntimeError(f"job {job.job_id} is already running")
        job.server = server
        job.start_time = now
        job.progress_synced_at = now
        job.completion_handle = engine.schedule(
            now + job.remaining_work / server._state.frequency.item(server._index),
            EventPriority.JOB_COMPLETION,
            self._complete_job,
            job,
        )
        stats = self.stats
        stats.placed += 1
        by_product = stats.placed_by_product
        by_product[job.product] = by_product.get(job.product, 0) + 1
        for listener in self.placement_listeners:
            listener(job, server)

    def place_pinned(self, job: Job, server_id: int) -> None:
        """Place a job on a specific server, bypassing placement policy.

        Used for long-lived pinned services (e.g. a Redis instance). The
        job holds its resources indefinitely; no completion event is
        scheduled and throughput listeners are not notified (services are
        not part of batch throughput).
        """
        server = self._server(server_id)
        server.add_task(job)
        job.begin(server, self.engine.now)

    def _complete_job(self, job: Job) -> None:
        """A job's completion event (a per-job hot path: ``Job.advance``
        and ``Job.complete`` are inlined, the frequency is read from the
        store slot, and the queues drain only when one holds a job)."""
        now = self.engine._now
        server = job.server
        assert server is not None
        speed = server._state.frequency.item(server._index)
        elapsed = now - job.progress_synced_at
        if elapsed < 0:
            raise ValueError(
                f"cannot advance job {job.job_id} backwards "
                f"({job.progress_synced_at} -> {now})"
            )
        job.remaining_work = max(0.0, job.remaining_work - elapsed * speed)
        job.progress_synced_at = now
        if job.remaining_work > _COMPLETION_EPSILON:
            # The server slowed down after this event was scheduled and the
            # reschedule raced; push completion to the corrected ETA.
            job.completion_handle = self.engine.schedule(
                job.eta(now, speed),
                EventPriority.JOB_COMPLETION,
                self._complete_job,
                job,
            )
            return
        job.finish_time = now
        job.remaining_work = 0.0
        server.remove_task(job)
        self.stats.completed += 1
        for listener in self.completion_listeners:
            listener(job, server)
        frameworks = self.frameworks
        if self._default_framework.queue or (
            frameworks and any(f.queue for f in frameworks.values())
        ):
            self._drain_queues()

    def _drain_queues(self) -> None:
        """Place queued jobs while capacity lasts (FIFO + bounded backfill)."""
        for framework in self.all_frameworks():
            self._drain_framework(framework)

    def _drain_framework(self, framework: Framework) -> None:
        while framework.queue:
            head = framework.queue[0]
            if self._try_place(head, framework):
                framework.queue.popleft()
                continue
            # Head does not fit: try a bounded backfill window behind it.
            placed_any = False
            window = min(framework.backfill_depth, len(framework.queue) - 1)
            position = 1
            scanned = 0
            while scanned < window and position < len(framework.queue):
                job = framework.queue[position]
                if self._try_place(job, framework):
                    del framework.queue[position]
                    placed_any = True
                else:
                    position += 1
                scanned += 1
            if not placed_any:
                break

    # ------------------------------------------------------------------
    # DVFS coupling
    # ------------------------------------------------------------------
    def _on_frequency_change(
        self, server: Server, old_frequency: float, new_frequency: float
    ) -> None:
        """Re-time completion events when a server's speed changes."""
        now = self.engine.now
        for job in server.tasks.values():
            job.advance(now, old_frequency)
            if job.completion_handle is not None:
                job.completion_handle.cancel()
            job.completion_handle = self.engine.schedule(
                job.eta(now, new_frequency),
                EventPriority.JOB_COMPLETION,
                self._complete_job,
                job,
            )


__all__ = [
    "CompletionListener",
    "ControlListener",
    "Framework",
    "OmegaScheduler",
    "PlacementListener",
]
