"""The fleet coordinator: a slow control loop above the row controllers.

The Ampere controller (Algorithm 1) defends one row's budget on a
one-minute cadence. The coordinator runs an order of magnitude slower
(``cadence_intervals`` control intervals per tick, ten by default) and
works the one lever the row loops cannot: the *division* of the facility
budget between rows. Each tick it

1. gathers per-row demand statistics from the monitoring plane (power
   percentiles) and from the row controllers (freeze duty cycle),
2. derives per-row safety floors -- ``floor_margin`` times the demand
   percentile, never below ``min_allocation_fraction`` of the static
   share -- and shrinks them proportionally if they over-subscribe,
3. asks the configured :mod:`policy <repro.fleet.policy>` for a new
   assignment, sanitizes it (rate limit, floors, ratings,
   conservation), and books it through the :class:`BudgetLedger`,
4. pushes changed allocations into the row controllers, which re-derive
   their thresholds on their next tick.

Time-scale separation is deliberate: coordinator ticks run at
``EventPriority.COORDINATOR_TICK`` -- after monitor samples, before
controller ticks -- so a budget move lands on fresh data and the fast
loop reacts within one control interval.

Safety posture: the coordinator is an optimizer, not a guardian. It can
only move budget inside the envelope the ledger enforces (floors,
ratings, conservation), breakers and the safety ladder stay pinned to
physical feed ratings, and when its own view goes dark (a coordinator
blackout, or stale monitor data) it freezes the ledger at last-good --
a facility running on yesterday's split is safe; one re-split on
fiction is not.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Mapping, Optional

import numpy as np

from repro.fleet.config import FleetConfig
from repro.fleet.ledger import BudgetLedger, LedgerError
from repro.fleet.policy import RowDemand, make_policy, sanitize_allocations
from repro.monitor.power_monitor import PowerMonitor
from repro.sim.engine import Engine
from repro.sim.events import EventPriority
from repro.telemetry import Telemetry, counter_series, gauge_series

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.controller import AmpereController
    from repro.sim.eventlog import ControlEventLog
    from repro.tenancy.config import TenancyConfig

logger = logging.getLogger(__name__)

#: server_id used for coordinator events in the control event log (a
#: budget move is a facility-level action; breakers already use -1)
COORDINATOR_EVENT_ID = -2

TICKS = counter_series("repro_fleet_ticks_total", "Coordinator ticks executed")
REALLOCATIONS = counter_series(
    "repro_fleet_reallocations_total", "Coordinator ticks that moved budget between rows"
)
STALE_HOLDS = counter_series(
    "repro_fleet_stale_holds_total", "Coordinator ticks held because row demand data was stale"
)
BLACKOUT_TICKS = counter_series(
    "repro_fleet_blackout_ticks_total", "Coordinator ticks skipped during a coordinator blackout"
)
LEDGER_FROZEN = gauge_series(
    "repro_fleet_ledger_frozen", "1 while the budget ledger is frozen at last-good, else 0"
)
ALLOCATION = gauge_series(
    "repro_fleet_allocation_watts", "Live budget allocation per row", label="row"
)
FLOOR = gauge_series(
    "repro_fleet_floor_watts", "Safety floor per row (demand percentile with margin)", label="row"
)


@dataclass
class CoordinatorStats:
    """Accounting of coordinator activity (picklable)."""

    ticks: int = 0
    reallocations: int = 0
    watts_moved: float = 0.0
    budget_pushes: int = 0
    stale_holds: int = 0
    blackout_ticks: int = 0

    def snapshot(self) -> "CoordinatorStats":
        return replace(self)


class FleetCoordinator:
    """Slow-cadence facility budget coordinator over row controllers.

    Parameters
    ----------
    engine / monitor:
        Simulation engine and the monitoring plane the coordinator reads
        demand from. It never reads true hardware power -- like the row
        controllers, it steers on telemetry and must survive telemetry
        going bad.
    ledger:
        The facility budget ledger (invariant enforcement lives there).
    controllers:
        Row name -> the :class:`AmpereController` responsible for that
        row. Every ledger row must be covered.
    """

    def __init__(
        self,
        engine: Engine,
        monitor: PowerMonitor,
        ledger: BudgetLedger,
        controllers: Mapping[str, "AmpereController"],
        config: FleetConfig = FleetConfig(),
        telemetry: Optional[Telemetry] = None,
        event_log: Optional["ControlEventLog"] = None,
        tenancy: Optional["TenancyConfig"] = None,
        tenant_of_row: Optional[Mapping[str, str]] = None,
    ) -> None:
        missing = [name for name in ledger.row_names if name not in controllers]
        if missing:
            raise ValueError(f"no controller for ledger rows {missing}")
        self.engine = engine
        self.monitor = monitor
        self.ledger = ledger
        self.controllers = dict(controllers)
        self.config = config
        self.policy = make_policy(
            config.policy, config, tenancy=tenancy, tenant_of_row=tenant_of_row
        )
        self.event_log = event_log
        self.stats = CoordinatorStats()
        self._blackout = False
        if telemetry is None:
            telemetry = getattr(engine, "telemetry", None) or Telemetry.disabled()
        self.telemetry = telemetry
        telemetry.collect(self._metrics)

    def _metrics(self):
        yield TICKS(self.stats.ticks)
        yield REALLOCATIONS(self.stats.reallocations)
        yield STALE_HOLDS(self.stats.stale_holds)
        yield BLACKOUT_TICKS(self.stats.blackout_ticks)
        yield LEDGER_FROZEN(1.0 if self._blackout else 0.0)
        for row in self.ledger.rows():
            yield ALLOCATION(row.allocation_watts, row.name)
            yield FLOOR(row.floor_watts, row.name)

    # ------------------------------------------------------------------
    def start(
        self,
        until: float,
        control_interval_seconds: float,
        first_at: Optional[float] = None,
    ) -> None:
        """Begin periodic coordination on the engine."""
        period = self.config.cadence_intervals * control_interval_seconds
        self.engine.schedule_periodic(
            period,
            EventPriority.COORDINATOR_TICK,
            self.tick,
            first_at=first_at,
            until=until,
        )

    # ------------------------------------------------------------------
    # Fault seams (driven by repro.faults)
    # ------------------------------------------------------------------
    def blackout_begin(self) -> None:
        """The coordinator loses its view; the ledger holds last-good."""
        self._blackout = True
        self.ledger.freeze(self.engine.now)
        logger.warning(
            "fleet coordinator blackout at t=%.0fs; ledger frozen", self.engine.now
        )

    def blackout_end(self) -> None:
        self._blackout = False
        self.ledger.thaw()
        logger.info(
            "fleet coordinator blackout over at t=%.0fs; ledger thawed",
            self.engine.now,
        )

    # ------------------------------------------------------------------
    def tick(self) -> None:
        """One coordination pass."""
        self.stats.ticks += 1
        with self.telemetry.span(
            "fleet.coordinate", rows=len(self.ledger.row_names)
        ):
            self._coordinate()

    def _coordinate(self) -> None:
        now = self.engine.now
        if self._blackout:
            self.stats.blackout_ticks += 1
            return
        demands = self._gather_demands(now)
        if any(d.stale for d in demands.values()):
            stale = sorted(n for n, d in demands.items() if d.stale)
            self.stats.stale_holds += 1
            logger.warning(
                "fleet tick at t=%.0fs held: stale demand for %s", now, stale
            )
            return
        self._update_floors(demands)
        rows = self.ledger.rows()
        proposal = self.policy.propose(
            rows, demands, self.ledger.facility_budget_watts
        )
        assignment = sanitize_allocations(
            proposal,
            rows,
            self.ledger.facility_budget_watts,
            self.config.max_step_fraction,
        )
        previous = self.ledger.allocations()
        try:
            moved = self.ledger.apply(assignment)
        except LedgerError:
            logger.exception(
                "fleet policy %r produced an inadmissible assignment; held",
                self.config.policy,
            )
            return
        if moved <= self.ledger.facility_budget_watts * 1e-9:
            return
        self.stats.reallocations += 1
        self.stats.watts_moved += moved
        changed = []
        for name in self.ledger.row_names:
            watts = self.ledger.row(name).allocation_watts
            if watts != previous[name]:
                if self.controllers[name].update_budget(name, watts):
                    self.stats.budget_pushes += 1
                changed.append(f"{name}:{previous[name]:.0f}->{watts:.0f}")
        if self.event_log is not None:
            self.event_log.record(
                "budget",
                COORDINATOR_EVENT_ID,
                f"policy={self.policy.name} moved={moved:.0f}W "
                + " ".join(changed),
            )
        logger.info(
            "fleet reallocation at t=%.0fs (%s): %.0f W moved [%s]",
            now,
            self.policy.name,
            moved,
            ", ".join(changed),
        )

    # ------------------------------------------------------------------
    def _gather_demands(self, now: float) -> Dict[str, RowDemand]:
        """Per-row demand statistics over the lookback window."""
        start = now - self.config.window_seconds
        demands: Dict[str, RowDemand] = {}
        for name in self.ledger.row_names:
            try:
                times, values = self.monitor.power_series(name, start, None)
            except KeyError:
                times = values = np.empty(0)
            finite = values[np.isfinite(values)] if len(values) else values
            stale = (
                len(times) == 0
                or len(finite) == 0
                or now - float(times[-1]) > self.config.max_staleness_seconds
            )
            if len(finite):
                p_demand = float(
                    np.percentile(finite, self.config.demand_percentile)
                )
                mean = float(np.mean(finite))
            else:
                p_demand = mean = 0.0
            demands[name] = RowDemand(
                name=name,
                p_demand_watts=p_demand,
                mean_watts=mean,
                freeze_pressure=self._freeze_pressure(name, start),
                samples=int(len(finite)),
                stale=stale,
            )
        return demands

    def _freeze_pressure(self, name: str, window_start: float) -> float:
        """Mean commanded freeze ratio of one row over the window."""
        controller = self.controllers[name]
        try:
            state = controller.state_of(name)
        except KeyError:
            return 0.0
        recent = [
            u
            for u, t in zip(state.u_history, state.u_times)
            if t >= window_start
        ]
        return float(sum(recent) / len(recent)) if recent else 0.0

    # ------------------------------------------------------------------
    def _update_floors(self, demands: Mapping[str, RowDemand]) -> None:
        """Derive safety floors from demand, shrinking to fit if needed.

        A floor forbids *reductions* below demand; it never forces a
        raise (capping at the current allocation keeps that true even
        when a row's demand outgrows its share -- getting more budget is
        the policy's decision, funded by another row, not the floor's).
        """
        for name in self.ledger.row_names:
            row = self.ledger.row(name)
            demand_floor = (
                demands[name].p_demand_watts * self.config.floor_margin
            )
            floor = max(
                self.config.min_allocation_fraction * row.static_watts,
                demand_floor,
            )
            self.ledger.set_floor(
                name, min(floor, row.rating_watts, row.allocation_watts)
            )
        self.ledger.scale_floors_to_fit()

    # ------------------------------------------------------------------
    def stats_snapshot(self) -> CoordinatorStats:
        return self.stats.snapshot()


__all__ = ["COORDINATOR_EVENT_ID", "CoordinatorStats", "FleetCoordinator"]
