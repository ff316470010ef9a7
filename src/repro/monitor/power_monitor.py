"""Per-minute power sampling and aggregation.

Every ``interval`` seconds (one minute by default, the paper's choice of
"a good tradeoff between measurement accuracy and monitoring overhead"),
the monitor reads each registered server's power -- the true model power
perturbed by multiplicative measurement noise, the paper's IPMI readings --
aggregates it per group, and appends the results to the
time-series database. Violation accounting (one violation per sampled
minute in which a group's power exceeds its budget) also lives here, since
the monitor is the observer that defines the paper's violation metric.
"""

from __future__ import annotations

import logging
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.cluster.group import ServerGroup
from repro.monitor.tsdb import TimeSeriesDatabase
from repro.sim.engine import Engine
from repro.sim.events import EventPriority
from repro.telemetry import Telemetry, counter_series, gauge_series

logger = logging.getLogger(__name__)

SWEEPS = counter_series("repro_monitor_sweeps_total", "Per-minute monitor sweeps taken")
SUPPRESSED = counter_series(
    "repro_monitor_sweeps_suppressed_total",
    "Sweeps dropped during monitoring outages",
)
IN_OUTAGE = gauge_series(
    "repro_monitor_in_outage", "1 while a monitoring blackout is in effect, else 0"
)
SENSOR_BIAS = gauge_series(
    "repro_monitor_sensor_bias", "Multiplicative miscalibration applied to served readings"
)
FACILITY_POWER = gauge_series(
    "repro_monitor_facility_power_watts",
    "Latest facility-wide power (sum of group samples in a sweep)",
)
FACILITY_BUDGET = gauge_series(
    "repro_monitor_facility_budget_watts",
    "Facility power budget the sweep totals are judged against",
)
FACILITY_RATIO = gauge_series(
    "repro_monitor_facility_power_ratio", "Latest facility power normalized to the facility budget"
)
FACILITY_VIOLATIONS = counter_series(
    "repro_monitor_facility_violations_total",
    "Sampled minutes in which the facility exceeded its budget",
)
GROUP_POWER = gauge_series(
    "repro_monitor_group_power_watts", "Latest aggregated group power reading", label="group"
)
GROUP_RATIO = gauge_series(
    "repro_monitor_group_power_ratio",
    "Latest group power normalized to its budget P_M",
    label="group",
)
VIOLATIONS = counter_series(
    "repro_monitor_violations_total",
    "Sampled minutes in which the group exceeded its budget",
    label="group",
)


class PowerMonitor:
    """Samples server power and serves aggregated group series.

    Parameters
    ----------
    engine:
        Simulation engine the sampling loop runs on.
    db:
        Time-series database to write into (created if omitted).
    interval:
        Sampling period in seconds (60 = the paper's configuration).
    noise_sigma:
        Relative standard deviation of per-server measurement noise. IPMI
        power readings carry on the order of 1% error.
    rng:
        Explicit random generator for the noise.
    store_per_server:
        Also record one series per server (needed only by the freeze-decay
        experiment of Figure 4; off by default to bound memory).
    """

    def __init__(
        self,
        engine: Engine,
        db: Optional[TimeSeriesDatabase] = None,
        interval: float = 60.0,
        noise_sigma: float = 0.01,
        rng: Optional[np.random.Generator] = None,
        store_per_server: bool = False,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if noise_sigma < 0:
            raise ValueError(f"noise_sigma must be non-negative, got {noise_sigma}")
        self.engine = engine
        self.db = db if db is not None else TimeSeriesDatabase()
        self.interval = interval
        self.noise_sigma = noise_sigma
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.store_per_server = store_per_server
        self._groups: Dict[str, ServerGroup] = {}
        self.violations: Dict[str, int] = {}
        #: names of Row groups whose breaker has tripped (catastrophic)
        self.breaker_trips: set = set()
        self.samples_taken = 0
        #: monitoring blackout: while True the per-minute sweep returns
        #: nothing and the TSDB goes stale (a collector outage, not a
        #: sensor fault -- the cluster itself keeps running)
        self.in_outage = False
        self.outages_begun = 0
        self.samples_suppressed = 0
        #: multiplicative sensor miscalibration applied to every reading
        #: the monitoring plane serves (1.0 = calibrated). True power --
        #: and therefore breaker physics -- is never affected; this is
        #: the "controller steering on lying sensors" hazard.
        self.sensor_bias = 1.0
        self.bias_windows_applied = 0
        self.telemetry = (
            telemetry
            if telemetry is not None
            else getattr(engine, "telemetry", None) or Telemetry.disabled()
        )
        #: facility budget override (e.g. ``DataCenter.power_budget_watts``);
        #: None = the sum of registered group budgets at sample time
        self._facility_budget_override: Optional[float] = None
        #: sampled minutes in which the facility total exceeded its budget
        self.facility_violations = 0
        #: ``(watts, budget)`` of the last facility roll-up
        self.last_facility_sample: Tuple[float, float] = (0.0, 0.0)
        self.telemetry.collect(self._metrics)

    def _metrics(self):
        yield SWEEPS(self.samples_taken)
        yield SUPPRESSED(self.samples_suppressed)
        yield IN_OUTAGE(1.0 if self.in_outage else 0.0)
        yield SENSOR_BIAS(self.sensor_bias)
        watts, budget = self.last_facility_sample
        yield FACILITY_POWER(watts)
        yield FACILITY_BUDGET(budget)
        yield FACILITY_RATIO(watts / budget if budget else 0.0)
        yield FACILITY_VIOLATIONS(self.facility_violations)
        for name in self._groups:
            yield GROUP_POWER(self._latest_or_zero(f"power/{name}"), name)
            yield GROUP_RATIO(self._latest_or_zero(f"power_norm/{name}"), name)
            yield VIOLATIONS(self.violations[name], name)

    def _latest_or_zero(self, name: str) -> float:
        try:
            return self.db.latest(name)
        except KeyError:
            return 0.0

    # ------------------------------------------------------------------
    def register_group(self, group: ServerGroup) -> None:
        """Track ``group``; its series key is ``power/<name>``."""
        if group.name in self._groups:
            raise ValueError(f"group {group.name!r} already registered")
        if group.name == "facility":
            raise ValueError(
                "'facility' is reserved for the facility-wide series"
            )
        self._groups[group.name] = group
        self.violations[group.name] = 0

    def register_groups(self, groups: Iterable[ServerGroup]) -> None:
        for group in groups:
            self.register_group(group)

    def groups(self) -> List[ServerGroup]:
        return list(self._groups.values())

    # ------------------------------------------------------------------
    # Facility-level observability
    # ------------------------------------------------------------------
    def set_facility_budget(self, watts: Optional[float]) -> None:
        """Pin the facility budget (e.g. ``DataCenter.power_budget_watts``).

        Without an explicit budget the facility is judged against the sum
        of registered group budgets at sample time -- correct for both
        static partitions and a fleet coordinator that conserves the
        facility total while moving allocations between rows.
        """
        if watts is not None and watts <= 0:
            raise ValueError(f"facility budget must be positive, got {watts}")
        self._facility_budget_override = (
            float(watts) if watts is not None else None
        )

    @property
    def facility_budget_watts(self) -> float:
        """The budget facility sweeps are judged against."""
        if self._facility_budget_override is not None:
            return self._facility_budget_override
        return sum(g.power_budget_watts for g in self._groups.values())

    def start(self, until: float, first_at: Optional[float] = None) -> None:
        """Begin periodic sampling on the engine."""
        self.engine.schedule_periodic(
            self.interval,
            EventPriority.MONITOR_SAMPLE,
            self.sample_once,
            first_at=first_at,
            until=until,
        )

    # ------------------------------------------------------------------
    # Outage control (the monitor-blackout fault seam)
    # ------------------------------------------------------------------
    def begin_outage(self) -> None:
        """Enter a monitoring blackout: sweeps are dropped until
        :meth:`end_outage`. Idempotent."""
        if not self.in_outage:
            self.in_outage = True
            self.outages_begun += 1
            logger.warning(
                "monitoring blackout began at t=%.0fs (outage #%d)",
                self.engine.now,
                self.outages_begun,
            )

    def end_outage(self) -> None:
        """Leave a monitoring blackout; the next sweep lands normally."""
        if self.in_outage:
            logger.info("monitoring blackout ended at t=%.0fs", self.engine.now)
        self.in_outage = False

    # ------------------------------------------------------------------
    # Sensor miscalibration (the data-plane drift fault seam)
    # ------------------------------------------------------------------
    def set_sensor_bias(self, factor: float) -> None:
        """Install (or clear, with 1.0) a multiplicative calibration error.

        Applied to every per-server reading this monitor serves -- the
        stored series, violation accounting and :meth:`snapshot_server_powers`
        all see the biased values, exactly as miscalibrated sensors would
        present them. Idempotent per factor.
        """
        if factor <= 0:
            raise ValueError(f"sensor bias factor must be positive, got {factor}")
        if factor != 1.0 and self.sensor_bias == 1.0:
            self.bias_windows_applied += 1
            logger.warning(
                "sensor miscalibration began at t=%.0fs (factor %.3f)",
                self.engine.now,
                factor,
            )
        elif factor == 1.0 and self.sensor_bias != 1.0:
            logger.info("sensor calibration restored at t=%.0fs", self.engine.now)
        self.sensor_bias = float(factor)

    # ------------------------------------------------------------------
    def sample_once(self) -> None:
        """Take one sample of every registered group.

        During an outage the sweep is dropped entirely -- no TSDB write,
        no violation accounting -- which is what makes the stored series
        *stale* rather than merely noisy. Consumers must check sample
        timestamps (:meth:`latest_normalized_sample`) before acting.
        """
        if self.in_outage:
            self.samples_suppressed += 1
            return
        now = self.engine.now
        self.samples_taken += 1
        facility_total = 0.0
        with self.telemetry.span("monitor.sweep", groups=len(self._groups)):
            for group in self._groups.values():
                readings = group.server_powers()
                if self.noise_sigma > 0:
                    readings = readings * (
                        1.0 + self.noise_sigma * self.rng.standard_normal(len(readings))
                    )
                if self.sensor_bias != 1.0:
                    readings = readings * self.sensor_bias
                total = float(readings.sum())
                facility_total += total
                if self.store_per_server:
                    for server, reading in zip(group.servers, readings):
                        self.db.write(
                            f"power/server/{server.server_id}", now, reading
                        )
                self.db.write(f"power/{group.name}", now, total)
                normalized = total / group.power_budget_watts
                self.db.write(f"power_norm/{group.name}", now, normalized)
                if total > group.power_budget_watts:
                    self.violations[group.name] += 1
                    logger.debug(
                        "group %s over budget at t=%.0fs (%.0f W, ratio %.3f)",
                        group.name,
                        now,
                        total,
                        normalized,
                    )
                # Rows carry a physical breaker; evaluate it on the *true*
                # power (a breaker doesn't care about sensor noise).
                check_breaker = getattr(group, "check_breaker", None)
                if check_breaker is not None and check_breaker():
                    if group.name not in self.breaker_trips:
                        logger.error(
                            "group %s: circuit breaker tripped at t=%.0fs",
                            group.name,
                            now,
                        )
                    self.breaker_trips.add(group.name)
            # Facility roll-up: the sum of the group samples published
            # this sweep. Computed from already-drawn readings -- no extra
            # RNG draws, so registering it perturbs no trajectory.
            if self._groups:
                facility_budget = self.facility_budget_watts
                self.db.write("power/facility", now, facility_total)
                self.last_facility_sample = (facility_total, facility_budget)
                if facility_total > facility_budget:
                    self.facility_violations += 1

    # ------------------------------------------------------------------
    # Query API (stands in for the paper's RESTful endpoint)
    # ------------------------------------------------------------------
    def latest_power(self, group_name: str) -> float:
        """Most recent aggregated power reading of a group, in watts."""
        return self.db.latest(f"power/{group_name}")

    def latest_normalized_power(self, group_name: str) -> float:
        """Most recent group power normalized to its budget P_M."""
        return self.db.latest(f"power_norm/{group_name}")

    def latest_normalized_sample(self, group_name: str) -> "tuple[float, float]":
        """``(timestamp, power/P_M)`` of the most recent sample.

        The timestamp lets consumers detect staleness: during a
        monitoring blackout the latest sample stops advancing, and a
        controller that compares it against the current time can tell it
        is steering on old data.
        """
        return self.db.latest_point(f"power_norm/{group_name}")

    def latest_power_sample(self, group_name: str) -> "tuple[float, float]":
        """``(timestamp, watts)`` of the most recent absolute sample.

        The denominator-free sibling of :meth:`latest_normalized_sample`:
        consumers whose budget can change between sweeps (rows under a
        fleet coordinator) re-normalize against their *current* budget.
        """
        return self.db.latest_point(f"power/{group_name}")

    def facility_power_series(self, start=None, end=None):
        """``(times, watts)`` of the facility-wide roll-up series."""
        return self.db.query("power/facility", start, end)

    def power_series(self, group_name: str, start=None, end=None):
        """``(times, watts)`` arrays for a group."""
        return self.db.query(f"power/{group_name}", start, end)

    def normalized_power_series(self, group_name: str, start=None, end=None):
        """``(times, power/P_M)`` arrays for a group."""
        return self.db.query(f"power_norm/{group_name}", start, end)

    def snapshot_server_powers(self, group_name: str) -> Dict[int, float]:
        """On-demand noisy per-server readings for a group (not stored).

        The controller uses this to rank servers by power when choosing
        freeze victims; it sees the same noisy IPMI readings as the
        aggregated series, not the simulator's true state.
        """
        if group_name not in self._groups:
            raise KeyError(f"unknown group {group_name!r}")
        group = self._groups[group_name]
        if self.noise_sigma > 0:
            noise = 1.0 + self.noise_sigma * self.rng.standard_normal(
                len(group.servers)
            )
        else:
            noise = np.ones(len(group.servers))
        values = group.server_powers() * noise * self.sensor_bias
        return {
            server.server_id: value
            for server, value in zip(group.servers, values.tolist())
        }

    def violation_count(self, group_name: str) -> int:
        if group_name not in self.violations:
            raise KeyError(f"unknown group {group_name!r}")
        return self.violations[group_name]


__all__ = ["PowerMonitor"]
