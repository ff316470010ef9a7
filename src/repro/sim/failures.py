"""Server failure injection.

At data-center scale, machines fail constantly; a power controller that
assumes a static fleet breaks in production. The injector draws failures
as a Poisson process over the fleet (exponential per-server lifetimes)
and repairs each machine after an exponential repair time, exercising:

- the scheduler's kill-and-resubmit path,
- placement's read of the store's failed column,
- the controller's stateless tolerance of servers that vanish from the
  power snapshot (a failed server reads 0 W).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.scheduler.omega import OmegaScheduler
from repro.sim.engine import Engine
from repro.sim.events import EventPriority

SECONDS_PER_HOUR = 3600.0


@dataclass
class FailureLogEntry:
    server_id: int
    failed_at: float
    repaired_at: Optional[float] = None
    jobs_killed: int = 0


@dataclass
class FailureStats:
    failures: int = 0
    repairs: int = 0
    jobs_killed: int = 0
    log: List[FailureLogEntry] = field(default_factory=list)


class ServerFailureInjector:
    """Random server crash/repair process.

    Parameters
    ----------
    engine / scheduler:
        Simulation engine and the scheduler owning the fleet.
    rng:
        Explicit random source.
    mtbf_hours:
        Mean time between failures *per server*. Fleet failure rate is
        ``n_servers / mtbf``.
    mttr_minutes:
        Mean time to repair one machine.
    """

    def __init__(
        self,
        engine: Engine,
        scheduler: OmegaScheduler,
        rng: np.random.Generator,
        mtbf_hours: float = 1000.0,
        mttr_minutes: float = 60.0,
    ) -> None:
        if mtbf_hours <= 0 or mttr_minutes <= 0:
            raise ValueError("mtbf_hours and mttr_minutes must be positive")
        self.engine = engine
        self.scheduler = scheduler
        self.rng = rng
        self.mtbf_seconds = mtbf_hours * SECONDS_PER_HOUR
        self.mttr_seconds = mttr_minutes * 60.0
        self.stats = FailureStats()
        self._until: Optional[float] = None
        self._pending = None  # handle of the next scheduled failure

    @property
    def fleet_failure_rate(self) -> float:
        """Failures per second across the whole fleet."""
        return len(self.scheduler.tracker) / self.mtbf_seconds

    def start(self, until: float) -> None:
        self._until = until
        self._schedule_next_failure()

    def set_mtbf_hours(self, mtbf_hours: float) -> None:
        """Change the failure rate mid-run (a crash storm begins/ends).

        The pending failure was drawn at the old rate, so it is cancelled
        and a fresh gap drawn at the new one -- the memoryless property
        makes the resample statistically clean, and drawing from the same
        RNG stream keeps the run deterministic.
        """
        if mtbf_hours <= 0:
            raise ValueError(f"mtbf_hours must be positive, got {mtbf_hours}")
        self.mtbf_seconds = mtbf_hours * SECONDS_PER_HOUR
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        if self._until is not None:
            self._schedule_next_failure()

    # ------------------------------------------------------------------
    def _schedule_next_failure(self) -> None:
        gap = self.rng.exponential(1.0 / self.fleet_failure_rate)
        t = self.engine.now + gap
        if self._until is not None and t >= self._until:
            self._pending = None
            return
        self._pending = self.engine.schedule(
            t, EventPriority.GENERIC, self._fail_one
        )

    def _fail_one(self) -> None:
        alive = [s for s in self.scheduler.tracker.servers if not s.failed]
        if alive:
            victim = alive[self.rng.integers(len(alive))]
            killed = self.scheduler.fail_server(victim.server_id)
            entry = FailureLogEntry(
                server_id=victim.server_id,
                failed_at=self.engine.now,
                jobs_killed=killed,
            )
            self.stats.failures += 1
            self.stats.jobs_killed += killed
            self.stats.log.append(entry)
            repair_at = self.engine.now + self.rng.exponential(self.mttr_seconds)
            self.engine.schedule(
                repair_at, EventPriority.GENERIC, self._repair, victim.server_id, entry
            )
        self._schedule_next_failure()

    def _repair(self, server_id: int, entry: FailureLogEntry) -> None:
        self.scheduler.repair_server(server_id)
        entry.repaired_at = self.engine.now
        self.stats.repairs += 1


__all__ = ["ServerFailureInjector", "FailureStats", "FailureLogEntry"]
