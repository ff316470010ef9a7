"""Defense-in-depth emergency ladder above the statistical controller.

Ampere's statistical steering is deliberately slow (minute-scale, small
steps); it keeps *average* power under the budget but cannot stop a fast
demand surge from walking into the breaker's trip curve. The
:class:`SafetySupervisor` is the layer that can. It watches true group
power and the breaker's thermal state on a fast tick and escalates
through increasingly damaging responses:

====================  ==================================================
state                 response
====================  ==================================================
``NORMAL``            statistical steering only; unwind any emergency
                      caps while headroom allows
``WARNING``           freeze every server in the group (no new work; the
                      paper's SLA-safe action, just applied wholesale)
``CRITICAL``          slam DVFS to the floor via the capping engine --
                      an immediate, guaranteed power cut that damages
                      running jobs
``SHED``              drop batch work, hottest servers first, until the
                      group is back under its budget -- the last resort
                      before the breaker does it for us
====================  ==================================================

Escalation is immediate (a breaker does not wait), de-escalation is
hysteretic: the group must hold below ``release_ratio`` for
``release_ticks`` consecutive ticks to step *one* level down, which
prevents slam/restore flapping at the threshold.

Like the breaker -- and unlike the Ampere controller -- the supervisor
reads **true** power: it models a local hardware-protection path (think
PDU-attached microcontroller), so monitoring blackouts and sensor
miscalibration do not blind it. That asymmetry is the point of defense
in depth: each layer fails independently.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.cluster.breaker import BreakerCurve
from repro.sim.engine import Engine
from repro.sim.events import EventPriority
from repro.telemetry import Telemetry, counter_series, gauge_series

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.cluster.breaker import RowBreaker
    from repro.cluster.capping import CappingEngine
    from repro.cluster.group import ServerGroup
    from repro.scheduler.omega import OmegaScheduler
    from repro.sim.eventlog import ControlEventLog

logger = logging.getLogger(__name__)

STATE = gauge_series(
    "repro_safety_state", "Ladder position: 0 normal, 1 warning, 2 critical, 3 shed", label="group"
)
ESCALATIONS = counter_series("repro_safety_escalations_total", "Ladder steps up", label="group")
JOBS_SHED = counter_series(
    "repro_safety_jobs_shed_total", "Batch tasks dropped by emergency load shedding", label="group"
)


class SafetyState(enum.IntEnum):
    """Ladder position; higher is more damaging."""

    NORMAL = 0
    WARNING = 1
    CRITICAL = 2
    SHED = 3


@dataclass(frozen=True)
class SafetyConfig:
    """Configuration of the breaker model and the escalation ladder.

    Attributes
    ----------
    supervisor_enabled:
        When False only the breaker physics are armed -- the
        "what happens without the ladder" ablation.
    interval_seconds:
        Supervisor tick period. Must be fast relative to the breaker's
        time-to-trip at plausible overloads (15 s against a >40 s curve).
    warning_ratio / critical_ratio:
        True power over budget at which the ladder enters WARNING /
        CRITICAL.
    shed_thermal_fraction:
        Breaker heat (fraction of its trip threshold) at which load is
        shed: if freezing and slamming haven't stopped the thermal
        element, drop work before it trips.
    release_ratio / release_ticks:
        De-escalate one level after ``release_ticks`` consecutive ticks
        with power below ``release_ratio`` and the breaker cooling.
    breaker / breaker_interval_seconds / breaker_reset_minutes:
        The physical trip curve, its evaluation period, and the operator
        delay before a tripped row is re-energized.
    """

    supervisor_enabled: bool = True
    interval_seconds: float = 15.0
    warning_ratio: float = 1.0
    critical_ratio: float = 1.05
    shed_thermal_fraction: float = 0.35
    release_ratio: float = 0.95
    release_ticks: int = 3
    breaker: BreakerCurve = BreakerCurve()
    breaker_interval_seconds: float = 5.0
    breaker_reset_minutes: float = 15.0

    def __post_init__(self) -> None:
        if self.interval_seconds <= 0:
            raise ValueError(
                f"interval_seconds must be positive, got {self.interval_seconds}"
            )
        if not 0.0 < self.release_ratio < self.warning_ratio:
            raise ValueError(
                "need 0 < release_ratio < warning_ratio, got "
                f"{self.release_ratio} vs {self.warning_ratio}"
            )
        if self.critical_ratio < self.warning_ratio:
            raise ValueError(
                "critical_ratio must be >= warning_ratio, got "
                f"{self.critical_ratio} < {self.warning_ratio}"
            )
        if not 0.0 < self.shed_thermal_fraction <= 1.0:
            raise ValueError(
                "shed_thermal_fraction must be in (0, 1], got "
                f"{self.shed_thermal_fraction}"
            )
        if self.release_ticks < 1:
            raise ValueError(
                f"release_ticks must be >= 1, got {self.release_ticks}"
            )
        if self.breaker_interval_seconds <= 0:
            raise ValueError(
                "breaker_interval_seconds must be positive, got "
                f"{self.breaker_interval_seconds}"
            )
        if self.breaker_reset_minutes <= 0:
            raise ValueError(
                "breaker_reset_minutes must be positive, got "
                f"{self.breaker_reset_minutes}"
            )


@dataclass
class SafetyStats:
    """Picklable account of what the ladder actually did."""

    ticks: int = 0
    escalations: int = 0
    deescalations: int = 0
    max_state: int = 0
    freezes_issued: int = 0
    slams: int = 0
    jobs_shed: int = 0
    #: simulated seconds spent in each state (by state name)
    seconds_in_state: Dict[str, float] = field(default_factory=dict)
    #: (time, from_state, to_state) transition history
    transitions: List[tuple] = field(default_factory=list)

    def snapshot(self) -> "SafetyStats":
        return replace(
            self,
            seconds_in_state=dict(self.seconds_in_state),
            transitions=list(self.transitions),
        )


class SafetySupervisor:
    """Arbitrates the emergency mechanisms for one protected group."""

    def __init__(
        self,
        engine: Engine,
        group: "ServerGroup",
        scheduler: "OmegaScheduler",
        capping: "CappingEngine",
        config: SafetyConfig = SafetyConfig(),
        breaker: Optional["RowBreaker"] = None,
        event_log: Optional["ControlEventLog"] = None,
        telemetry: Optional[Telemetry] = None,
        rating_watts: Optional[float] = None,
    ) -> None:
        if rating_watts is not None and rating_watts <= 0:
            raise ValueError(
                f"rating_watts must be positive, got {rating_watts}"
            )
        # Ladder thresholds are anchored to the *physical* feed rating,
        # like the breaker's pickup current: a fleet coordinator moving a
        # row's allocation must never move the emergency thresholds.
        self.rating_watts = float(
            rating_watts if rating_watts is not None else group.power_budget_watts
        )
        self.engine = engine
        self.group = group
        self.scheduler = scheduler
        self.capping = capping
        self.config = config
        self.breaker = breaker
        self.event_log = event_log
        self.state = SafetyState.NORMAL
        self.stats = SafetyStats()
        self._calm_ticks = 0
        #: servers *we* froze (the controller's own freezes are not ours
        #: to undo when the emergency passes)
        self._frozen_by_supervisor: Set[int] = set()
        if telemetry is None:
            telemetry = getattr(engine, "telemetry", None) or Telemetry.disabled()
        telemetry.collect(self._metrics)

    def _metrics(self):
        group = self.group.name
        yield STATE(int(self.state), group)
        yield ESCALATIONS(self.stats.escalations, group)
        yield JOBS_SHED(self.stats.jobs_shed, group)

    def start(self, until: float, first_at: Optional[float] = None) -> None:
        """Begin periodic supervision on the engine."""
        self.engine.schedule_periodic(
            self.config.interval_seconds,
            EventPriority.SAFETY_TICK,
            self.tick,
            first_at=first_at,
            until=until,
        )

    # ------------------------------------------------------------------
    def tick(self) -> None:
        """One arbitration pass: assess, transition, act."""
        self.stats.ticks += 1
        interval = self.config.interval_seconds
        per_state = self.stats.seconds_in_state
        per_state[self.state.name] = per_state.get(self.state.name, 0.0) + interval

        if self.breaker is not None and self.breaker.tripped:
            # The event we exist to prevent happened anyway; there is
            # nothing to protect until the operator resets the feed.
            return

        ratio = self.group.power_watts() / self.rating_watts
        thermal = self.breaker.thermal_fraction if self.breaker is not None else 0.0
        assessed = self._assess(ratio, thermal)

        if assessed > self.state:
            self._transition(assessed)  # escalate immediately
            self._calm_ticks = 0
        elif assessed < self.state:
            # Hysteretic de-escalation: hold below the release line for
            # release_ticks, then step down ONE level at a time.
            if ratio <= self.config.release_ratio and thermal < self.config.shed_thermal_fraction:
                self._calm_ticks += 1
                if self._calm_ticks >= self.config.release_ticks:
                    self._transition(SafetyState(self.state - 1))
                    self._calm_ticks = 0
            else:
                self._calm_ticks = 0
        else:
            self._calm_ticks = 0

        self._act(ratio)

    def _assess(self, ratio: float, thermal: float) -> SafetyState:
        """The state the current electrical situation calls for."""
        if thermal >= self.config.shed_thermal_fraction:
            return SafetyState.SHED
        if ratio >= self.config.critical_ratio:
            return SafetyState.CRITICAL
        if ratio >= self.config.warning_ratio:
            return SafetyState.WARNING
        return SafetyState.NORMAL

    def _transition(self, to: SafetyState) -> None:
        frm = self.state
        self.state = to
        self.stats.transitions.append((self.engine.now, frm.name, to.name))
        self.stats.max_state = max(self.stats.max_state, int(to))
        if to > frm:
            self.stats.escalations += 1
            logger.warning(
                "safety ladder on %s: %s -> %s at t=%.0fs",
                self.group.name,
                frm.name,
                to.name,
                self.engine.now,
            )
        else:
            self.stats.deescalations += 1
            logger.info(
                "safety ladder on %s: %s -> %s (de-escalation) at t=%.0fs",
                self.group.name,
                frm.name,
                to.name,
                self.engine.now,
            )
        if to == SafetyState.NORMAL:
            self._release_freezes()

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------
    def _act(self, ratio: float) -> None:
        if self.state >= SafetyState.WARNING:
            self._freeze_all()
        if self.state >= SafetyState.CRITICAL:
            if self.capping.slam():
                self.stats.slams += 1
        if self.state == SafetyState.SHED:
            self._shed(ratio)
        if self.state == SafetyState.NORMAL:
            # Unwind emergency caps one headroom-guarded step per tick.
            self.capping.restore_step()

    def _freeze_all(self) -> None:
        """Re-assert a whole-group freeze in one scheduler call (the
        controller's reconciliation may have unfrozen servers since the
        last tick; the supervisor simply wins by acting more often).
        Servers already frozen and dark servers are skipped."""
        frozen = self.scheduler.set_frozen(self.group.state_indices, True)
        self._frozen_by_supervisor.update(frozen)
        self.stats.freezes_issued += len(frozen)

    def _release_freezes(self) -> None:
        """Undo exactly the freezes this supervisor issued, in one
        scheduler call (those another actor thawed since are skipped)."""
        group = self.group
        mine = group.member_mask(self._frozen_by_supervisor)
        self.scheduler.set_frozen(group.state_indices[mine], False)
        self._frozen_by_supervisor.clear()

    def _shed(self, ratio: float) -> None:
        """Drop batch work, hottest server first, until under the release
        line (projected on true power, re-read after each server)."""
        target = self.config.release_ratio * self.rating_watts
        victims = sorted(
            (s for s in self.group.servers if not (s.failed or s.powered_off)),
            key=lambda s: (-s.power_watts(), s.server_id),
        )
        shed = 0
        for server in victims:
            if self.group.power_watts() <= target:
                break
            # shed_tasks notifies control listeners, so an attached event
            # log records the action; no need to double-log here.
            shed += self.scheduler.shed_tasks(server.server_id)
        if shed:
            self.stats.jobs_shed += shed
            logger.error(
                "safety ladder on %s: SHED %d batch task(s) at t=%.0fs",
                self.group.name,
                shed,
                self.engine.now,
            )

    # ------------------------------------------------------------------
    def raise_alarm(self, reason: str) -> None:
        """External escalation hook: force the ladder to at least WARNING.

        Used by the state auditor when an invariant violation suggests
        the control plane can no longer be trusted -- freezing the group
        (the SLA-safe response) buys time without damaging running work.
        The normal hysteretic de-escalation path unwinds the alarm once
        ticks observe a calm, consistent state.
        """
        logger.error(
            "safety alarm on %s at t=%.0fs: %s",
            self.group.name,
            self.engine.now,
            reason,
        )
        if self.state < SafetyState.WARNING:
            self._transition(SafetyState.WARNING)
            self._calm_ticks = 0
            self._freeze_all()

    # ------------------------------------------------------------------
    def stats_snapshot(self) -> SafetyStats:
        return self.stats.snapshot()


__all__ = ["SafetyConfig", "SafetyState", "SafetyStats", "SafetySupervisor"]
