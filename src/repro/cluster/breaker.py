"""Circuit-breaker physics: the catastrophe Ampere exists to avoid.

The paper's central risk is tripping a row PDU breaker: every server
downstream loses power at once, which is why operators historically
provision on rated power. Real molded-case breakers follow an
*inverse-time* curve -- the further current exceeds the pickup level, the
faster the thermal element trips (an I²t characteristic) -- plus an
instantaneous magnetic element for severe overloads. :class:`RowBreaker`
models both against a group's true power draw, and a trip actually
*hurts*: every downstream server is de-energized through the scheduler's
failure path (jobs killed, power reads 0 W) until an operator reset
delay expires.

The breaker evaluates **true** power on the engine clock, independent of
the monitoring plane -- sensor noise, sensor drift and monitoring
blackouts do not fool a bimetal strip.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, List, Optional

from repro.cluster.group import ServerGroup
from repro.sim.engine import Engine
from repro.sim.events import EventPriority
from repro.telemetry import Telemetry, counter_series, gauge_series

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.scheduler.omega import OmegaScheduler
    from repro.sim.eventlog import ControlEventLog

logger = logging.getLogger(__name__)

TRIPS = counter_series(
    "repro_breaker_trips_total",
    "Breaker trips (every downstream server de-energized)",
    label="group",
)
THERMAL = gauge_series(
    "repro_breaker_thermal_fraction",
    "Accumulated I2t heat as a fraction of the trip threshold",
    label="group",
)
TRIPPED = gauge_series(
    "repro_breaker_tripped", "1 while the breaker is open (row dark), else 0", label="group"
)

#: server_id used for breaker events in the control event log (a trip is
#: a group-level action, not a per-server one)
BREAKER_EVENT_ID = -1


@dataclass(frozen=True)
class BreakerCurve:
    """Trip characteristic of one breaker.

    Attributes
    ----------
    pickup_ratio:
        Power (as a fraction of the provisioned budget) below which the
        thermal element does not heat. Breakers carry margin above their
        rating; 1.05 is representative for a continuously loaded feed.
    i2t_threshold:
        Thermal trip threshold in ``(ratio^2 - pickup^2) * seconds``
        units: sustained load at ratio r trips after
        ``i2t_threshold / (r^2 - pickup^2)`` seconds, so a 25% overload
        trips several times faster than a 5% one -- the inverse-time law.
    instant_trip_ratio:
        The magnetic element: at or above this ratio the breaker opens
        within one evaluation interval regardless of accumulated heat.
    cooldown_per_second:
        Thermal units shed per second while load is below pickup (the
        bimetal strip cooling back down).
    """

    pickup_ratio: float = 1.05
    i2t_threshold: float = 25.0
    instant_trip_ratio: float = 1.5
    cooldown_per_second: float = 1.0

    def __post_init__(self) -> None:
        if self.pickup_ratio < 1.0:
            raise ValueError(
                f"pickup_ratio must be >= 1.0, got {self.pickup_ratio}"
            )
        if self.instant_trip_ratio <= self.pickup_ratio:
            raise ValueError(
                "instant_trip_ratio must exceed pickup_ratio, got "
                f"{self.instant_trip_ratio} <= {self.pickup_ratio}"
            )
        if self.i2t_threshold <= 0:
            raise ValueError(
                f"i2t_threshold must be positive, got {self.i2t_threshold}"
            )
        if self.cooldown_per_second < 0:
            raise ValueError(
                "cooldown_per_second must be non-negative, got "
                f"{self.cooldown_per_second}"
            )

    def heating_rate(self, ratio: float) -> float:
        """Thermal units accumulated per second at a given load ratio."""
        if ratio <= self.pickup_ratio:
            return 0.0
        return ratio * ratio - self.pickup_ratio * self.pickup_ratio

    def seconds_to_trip(self, ratio: float) -> float:
        """Time a cold breaker survives a constant overload (inf if none)."""
        rate = self.heating_rate(ratio)
        return self.i2t_threshold / rate if rate > 0 else float("inf")


@dataclass
class BreakerStats:
    """Accounting of one breaker's activity (picklable)."""

    trips: int = 0
    resets: int = 0
    jobs_killed: int = 0
    servers_deenergized: int = 0
    max_thermal_fraction: float = 0.0
    trip_times: List[float] = field(default_factory=list)

    def snapshot(self) -> "BreakerStats":
        return replace(self, trip_times=list(self.trip_times))


class RowBreaker:
    """An inverse-time breaker protecting one server group's feed.

    Parameters
    ----------
    group:
        The servers behind this breaker (a row, or the virtual
        experiment group whose scaled budget emulates the row feed).
    engine / scheduler:
        Simulation engine and the *real* cluster scheduler -- a trip
        de-energizes hardware, so it must not route through the fault
        or instrumentation layers the controller talks to.
    curve:
        Trip characteristic.
    interval:
        Seconds between thermal evaluations. Runs at
        ``EventPriority.BREAKER_TICK`` so it integrates the settled
        electrical state after every control and capping action.
    reset_delay_seconds:
        Operator response time before the breaker is closed again and
        the row re-energized.
    rating_watts:
        The *physical* feed rating the trip curve is anchored to. A
        breaker is hardware: its pickup current never moves when a fleet
        coordinator re-divides budgets between rows. Defaults to the
        group's budget at construction time (identical behaviour for
        statically provisioned runs) and stays pinned thereafter.
    """

    def __init__(
        self,
        group: ServerGroup,
        engine: Engine,
        scheduler: "OmegaScheduler",
        curve: BreakerCurve = BreakerCurve(),
        interval: float = 5.0,
        reset_delay_seconds: float = 900.0,
        event_log: Optional["ControlEventLog"] = None,
        telemetry: Optional[Telemetry] = None,
        rating_watts: Optional[float] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if reset_delay_seconds <= 0:
            raise ValueError(
                f"reset_delay_seconds must be positive, got {reset_delay_seconds}"
            )
        if rating_watts is not None and rating_watts <= 0:
            raise ValueError(
                f"rating_watts must be positive, got {rating_watts}"
            )
        self.rating_watts = float(
            rating_watts if rating_watts is not None else group.power_budget_watts
        )
        self.group = group
        self.engine = engine
        self.scheduler = scheduler
        self.curve = curve
        self.interval = interval
        self.reset_delay_seconds = reset_delay_seconds
        self.event_log = event_log
        self.tripped = False
        self.thermal_load = 0.0
        self.stats = BreakerStats()
        self._deenergized_ids: List[int] = []
        if telemetry is None:
            telemetry = getattr(engine, "telemetry", None) or Telemetry.disabled()
        telemetry.collect(self._metrics)

    def _metrics(self):
        group = self.group.name
        yield TRIPS(self.stats.trips, group)
        yield THERMAL(self.thermal_fraction, group)
        yield TRIPPED(1.0 if self.tripped else 0.0, group)

    @property
    def thermal_fraction(self) -> float:
        """Accumulated heat as a fraction of the trip threshold."""
        return self.thermal_load / self.curve.i2t_threshold

    def start(self, until: float, first_at: Optional[float] = None) -> None:
        """Begin periodic thermal evaluation on the engine."""
        self.engine.schedule_periodic(
            self.interval,
            EventPriority.BREAKER_TICK,
            self.tick,
            first_at=first_at,
            until=until,
        )

    # ------------------------------------------------------------------
    def tick(self) -> None:
        """One thermal-element evaluation against true group power."""
        if self.tripped:
            return  # the feed is open; nothing flows until reset
        ratio = self.group.power_watts() / self.rating_watts
        if ratio >= self.curve.instant_trip_ratio:
            self._trip(ratio, reason="instantaneous")
            return
        heating = self.curve.heating_rate(ratio)
        if heating > 0:
            self.thermal_load += heating * self.interval
        else:
            self.thermal_load = max(
                0.0,
                self.thermal_load - self.curve.cooldown_per_second * self.interval,
            )
        self.stats.max_thermal_fraction = max(
            self.stats.max_thermal_fraction, self.thermal_fraction
        )
        if self.thermal_load >= self.curve.i2t_threshold:
            self._trip(ratio, reason="inverse-time")

    # ------------------------------------------------------------------
    def _trip(self, ratio: float, reason: str) -> None:
        """Open the breaker: every downstream server loses power."""
        self.tripped = True
        self.stats.trips += 1
        self.stats.trip_times.append(self.engine.now)
        logger.error(
            "breaker on %s TRIPPED (%s) at t=%.0fs, load ratio %.3f",
            self.group.name,
            reason,
            self.engine.now,
            ratio,
        )
        self._deenergized_ids = []
        killed = 0
        for server in self.group.servers:
            if server.failed:
                continue  # already dark (e.g. a crash-storm casualty)
            killed += self.scheduler.fail_server(server.server_id)
            self._deenergized_ids.append(server.server_id)
        self.stats.jobs_killed += killed
        self.stats.servers_deenergized += len(self._deenergized_ids)
        if self.event_log is not None:
            self.event_log.record(
                "trip",
                BREAKER_EVENT_ID,
                f"{self.group.name} {reason} ratio={ratio:.3f} killed={killed}",
            )
        self.engine.schedule(
            self.engine.now + self.reset_delay_seconds,
            EventPriority.FAULT,
            self._reset,
        )

    def _reset(self) -> None:
        """Operator closes the breaker; the row re-energizes empty."""
        for server_id in self._deenergized_ids:
            self.scheduler.repair_server(server_id)
        self._deenergized_ids = []
        self.tripped = False
        self.thermal_load = 0.0
        self.stats.resets += 1
        logger.warning(
            "breaker on %s reset at t=%.0fs; row re-energized",
            self.group.name,
            self.engine.now,
        )
        if self.event_log is not None:
            self.event_log.record("reset", BREAKER_EVENT_ID, self.group.name)

    # ------------------------------------------------------------------
    def stats_snapshot(self) -> BreakerStats:
        return self.stats.snapshot()


__all__ = ["BreakerCurve", "RowBreaker", "BreakerStats", "BREAKER_EVENT_ID"]
