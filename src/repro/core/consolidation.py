"""Consolidation baseline: power off idle servers (related work, §5.2).

The paper's related work surveys controllers that "transition idle
servers into low-power or power-off states when the utilization is low"
(PowerNap and the server-consolidation line). This baseline implements
that approach against the same monitor/scheduler substrate so it can be
compared with Ampere head-to-head:

- when row power approaches the budget, power off *idle* servers (big
  savings per machine -- idle draw is ~65% of rated);
- when the scheduler's queue backs up or power recedes, wake servers,
  which take ``wake_delay_seconds`` to come back (the transition cost the
  paper cites as the approach's SLA problem).

The structural weakness relative to Ampere is visible in the comparison
benchmark: consolidation can only act when idle machines exist, and its
capacity returns minutes late.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cluster.group import ServerGroup
from repro.monitor.power_monitor import PowerMonitor
from repro.scheduler.omega import OmegaScheduler
from repro.sim.engine import Engine
from repro.sim.events import EventPriority


@dataclass(frozen=True)
class ConsolidationConfig:
    control_interval: float = 60.0
    #: start powering off above this normalized power
    high_threshold: float = 0.975
    #: start waking below this normalized power (hysteresis band)
    low_threshold: float = 0.90
    #: servers per tick to transition, each way
    step_servers: int = 8
    #: boot/restore time before a woken server accepts work
    wake_delay_seconds: float = 180.0
    #: never power off below this fraction of the fleet
    min_online_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.control_interval <= 0:
            raise ValueError("control_interval must be positive")
        if not 0.0 < self.low_threshold < self.high_threshold:
            raise ValueError("need 0 < low_threshold < high_threshold")
        if self.step_servers < 1:
            raise ValueError("step_servers must be >= 1")
        if self.wake_delay_seconds < 0:
            raise ValueError("wake_delay_seconds must be non-negative")
        if not 0.0 <= self.min_online_fraction <= 1.0:
            raise ValueError("min_online_fraction must be in [0, 1]")


class ConsolidationController:
    """Idle-server power-off loop over one group."""

    def __init__(
        self,
        engine: Engine,
        scheduler: OmegaScheduler,
        monitor: PowerMonitor,
        group: ServerGroup,
        config: ConsolidationConfig = ConsolidationConfig(),
    ) -> None:
        self.engine = engine
        self.scheduler = scheduler
        self.monitor = monitor
        self.group = group
        self.config = config
        self.ticks = 0
        self.power_offs = 0
        self.wakes = 0
        self._waking: set = set()

    def start(self, until: float, first_at: Optional[float] = None) -> None:
        self.engine.schedule_periodic(
            self.config.control_interval,
            EventPriority.CONTROLLER_TICK,
            self.tick,
            first_at=first_at,
            until=until,
        )

    # ------------------------------------------------------------------
    def tick(self) -> None:
        self.ticks += 1
        try:
            p_norm = self.monitor.latest_normalized_power(self.group.name)
        except (KeyError, LookupError):
            return
        if p_norm > self.config.high_threshold:
            self._power_off_idle()
        elif p_norm < self.config.low_threshold or self.scheduler.queued_jobs > 0:
            self._wake_some()

    def offline_count(self) -> int:
        return sum(1 for s in self.group.servers if s.powered_off)

    def _power_off_idle(self) -> None:
        online = [s for s in self.group.servers if not s.powered_off]
        floor = int(len(self.group.servers) * self.config.min_online_fraction)
        allowance = max(0, len(online) - floor)
        victims: List = [
            s
            for s in online
            if not s.tasks and not s.frozen and not s.failed
        ][: min(self.config.step_servers, allowance)]
        for server in victims:
            self.scheduler.power_off_server(server.server_id)
            self.power_offs += 1

    def _wake_some(self) -> None:
        candidates = [
            s
            for s in self.group.servers
            if s.powered_off and s.server_id not in self._waking
        ][: self.config.step_servers]
        for server in candidates:
            self._waking.add(server.server_id)
            self.engine.schedule(
                self.engine.now + self.config.wake_delay_seconds,
                EventPriority.GENERIC,
                self._finish_wake,
                server.server_id,
            )

    def _finish_wake(self, server_id: int) -> None:
        self._waking.discard(server_id)
        self.scheduler.power_on_server(server_id)
        self.wakes += 1


__all__ = ["ConsolidationConfig", "ConsolidationController"]
