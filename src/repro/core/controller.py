"""The Ampere controller: Algorithm 1 over one or more rows.

Each control interval (one minute), for every controlled row the
controller:

1. reads the latest aggregated row power from the monitor,
2. obtains the predicted next-interval increase E_t from the demand
   estimator, which defines the threshold ratio ``r_threshold = P_M - E_t``,
3. if power is above the threshold, computes the optimal freezing ratio
   from the SPCP closed form (Eq. 13), clamps it to the operational
   ceiling, converts it to a server count, and
4. plans the next frozen set with its freeze policy (by default
   :func:`~repro.core.policy.plan_freeze_set`: highest-power-first with
   r_stable hysteresis) over the row's member arrays, and sends the
   difference to the scheduler as at most one thaw batch and one freeze
   batch, each a single ``set_frozen`` call;
5. below the threshold, it thaws everything in one batch.

The controller is stateless with respect to the frozen set -- it re-derives
membership from the scheduler each tick, so a restarted controller resumes
cleanly (the paper's failover property, Section 3.2).

Control-plane hardening
-----------------------
The loop above assumes a perfect control plane. This implementation does
not: it is hardened against the three operational hazards injected by
:mod:`repro.faults`, and every defensive action is recorded in
:class:`ControllerHealth`.

- **Stale data (monitor blackouts).** Every row-power sample carries a
  timestamp; when the latest sample is older than
  ``config.max_staleness_seconds`` the controller enters *degraded mode*
  for that row: it holds the frozen set (re-asserting intended freezes,
  never unfreezing on fiction) and leans on the reactive capping safety
  net until fresh data arrives. Acting on a stale reading could unfreeze
  a row that is actually over budget.
- **Degenerate snapshots.** A row whose every server reads 0 W / NaN
  (mass failure, dead sensor path) produces no control action at all --
  the tick is skipped with a logged health event rather than fitting
  f(u) on fiction.
- **Scheduler RPC faults.** ``set_frozen`` may raise
  :class:`~repro.scheduler.base.SchedulerRpcError`; a batch lands or
  fails as a whole. Each batch is retried with exponential back-off
  under a bounded per-tick RPC time budget; batches that still fail are
  *not* forgotten -- the controller records its intended frozen set and
  reconciles intent against the scheduler's authoritative
  ``frozen_server_ids()`` at the next tick.
- **Controller crashes.** :meth:`AmpereController.crash` wipes all
  in-memory per-row state (the simulated process death);
  :meth:`AmpereController.recover` reconstructs it from the two durable
  sources production would use: the TSDB (commanded freeze-ratio
  history) and the scheduler's authoritative frozen set. While crashed,
  ticks are no-ops. ``ControllerHealth`` models the *external* telemetry
  pipeline, so its counters deliberately survive a crash.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from repro.cluster.group import ServerGroup
from repro.core.config import AmpereConfig
from repro.core.demand import ConstantDemandEstimator, DemandEstimator
from repro.core.history import BoundedHistory
from repro.core.freeze_model import FreezeEffectModel
# plan_freeze_set is not called here (the default FreezePolicy calls
# it); perfbench's tracer wraps it under this module's name.
from repro.core.policy import FreezePolicy, plan_freeze_set  # noqa: F401
from repro.core.rhc import pcp_optimal_sequence, spcp_optimal_ratio, threshold_ratio
from repro.monitor.power_monitor import PowerMonitor
from repro.scheduler.base import SchedulerInterface, SchedulerRpcError
from repro.sim.engine import Engine
from repro.sim.events import EventPriority
from repro.telemetry import Telemetry, counter_series, gauge_series

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class HealthEvent:
    """One noteworthy defensive action of the control loop."""

    time: float
    #: "degraded" | "skipped" | "rpc_giveup" | "reconcile" | "crash" |
    #: "recover" | "budget_changed"
    kind: str
    group: str
    detail: str = ""


TICKS = counter_series(
    "repro_controller_ticks_total", "Control ticks evaluated per controlled row", label="group"
)
ACTIVE_TICKS = counter_series(
    "repro_controller_active_ticks_total",
    "Ticks on which the row was over threshold and acted",
    label="group",
)
FREEZES = counter_series(
    "repro_controller_freeze_actions_total", "Servers frozen by landed RPCs", label="group"
)
UNFREEZES = counter_series(
    "repro_controller_unfreeze_actions_total", "Servers thawed by landed RPCs", label="group"
)
COMMANDED_U = gauge_series(
    "repro_controller_commanded_u", "Latest commanded freezing ratio u_t", label="group"
)
FROZEN = gauge_series(
    "repro_controller_frozen_servers",
    "Servers the controller intends frozen after its last tick",
    label="group",
)
BUDGET = gauge_series(
    "repro_controller_budget_watts",
    "Current power budget (allocation) the row steers against",
    label="group",
)
HEALTH = counter_series(
    "repro_controller_health_total",
    "Defensive actions of the hardened control loop, by kind (mirrors ControllerHealth.summary())",
    label="kind",
)
HEALTH_EVENTS = counter_series(
    "repro_controller_health_events_total",
    "Noteworthy defensive actions of the control loop, by kind",
    label="kind",
)

#: the scalar counters of :meth:`ControllerHealth.summary`, in order
HEALTH_KINDS = (
    "degraded_ticks",
    "skipped_ticks",
    "rpc_retries",
    "rpc_giveups",
    "reconciliations",
    "reconciliation_diff_total",
    "crashes",
    "recoveries",
    "budget_updates",
)


@dataclass
class ControllerHealth:
    """Operational statistics of the hardened control loop.

    Counters model the external log/metrics pipeline a production
    controller ships telemetry to, which is why they survive a simulated
    controller crash (the in-memory *control* state does not). The
    controller exports them as ``repro_controller_health_total{kind}``
    and the noted events as
    ``repro_controller_health_events_total{kind}`` (:meth:`samples`).
    """

    #: ticks spent in degraded mode (held frozen set on stale data)
    degraded_ticks: int = 0
    #: ticks skipped outright on a degenerate power snapshot
    skipped_ticks: int = 0
    #: individual RPC retry attempts after a transport failure
    rpc_retries: int = 0
    #: RPC batches abandoned after the retry/back-off budget ran out
    rpc_giveups: int = 0
    #: ticks on which intent and the scheduler's frozen set disagreed
    reconciliations: int = 0
    #: total servers found drifted across all reconciliations
    reconciliation_diff_total: int = 0
    crashes: int = 0
    recoveries: int = 0
    #: mid-run budget (allocation) changes applied by a fleet coordinator
    budget_updates: int = 0
    events: List[HealthEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        #: noted events per kind, in first-seen order
        self._kind_counts: Dict[str, int] = {}
        for event in self.events:
            self._count(event.kind)

    def _count(self, kind: str) -> None:
        self._kind_counts[kind] = self._kind_counts.get(kind, 0) + 1

    def note(self, time: float, kind: str, group: str, detail: str = "") -> None:
        self.events.append(HealthEvent(time, kind, group, detail))
        self._count(kind)

    def samples(self):
        """The health series: every scalar counter, every noted kind."""
        for kind in HEALTH_KINDS:
            yield HEALTH(getattr(self, kind), kind)
        for kind, count in self._kind_counts.items():
            yield HEALTH_EVENTS(count, kind)

    def counts_by_kind(self) -> Dict[str, int]:
        """Noted events per kind, in first-seen order."""
        return dict(self._kind_counts)

    def summary(self) -> Dict[str, int]:
        """Scalar counters for reports and assertions."""
        return {kind: getattr(self, kind) for kind in HEALTH_KINDS}


@dataclass
class RowControlState:
    """Per-row control bookkeeping and statistics."""

    group: ServerGroup
    server_ids: frozenset
    ticks: int = 0
    active_ticks: int = 0
    freeze_actions: int = 0
    unfreeze_actions: int = 0
    #: history of (time, commanded u_t) -- Table 2's u_mean / u_max inputs.
    #: Ring buffers when ``AmpereConfig.history_window`` is set; the
    #: statistics below are exact over whatever window is retained.
    u_history: BoundedHistory = field(default_factory=BoundedHistory)
    u_times: BoundedHistory = field(default_factory=BoundedHistory)
    #: one-step prediction residuals: actual P_{t+1} minus the model's
    #: P_t + E_t - k_r * u_t. Negative on average when E_t is the paper's
    #: conservative 99.5th-percentile margin -- by design; RHC feedback is
    #: what absorbs this bias every interval.
    prediction_residuals: BoundedHistory = field(default_factory=BoundedHistory)
    #: running sum / count of every commanded u_t of the whole run --
    #: unlike the (possibly bounded) histories these never truncate, so
    #: frozen-server-minutes and full-run means stay exact regardless of
    #: the retention window
    u_integral: float = 0.0
    u_samples: int = 0
    #: the frozen set the controller *meant* to leave behind last tick;
    #: compared against the scheduler's authoritative set to detect RPC
    #: intents that never landed (reconciliation)
    intended_frozen: FrozenSet[int] = frozenset()
    _last_prediction: Optional[float] = None

    @property
    def u_mean(self) -> float:
        return sum(self.u_history) / len(self.u_history) if self.u_history else 0.0

    @property
    def u_max(self) -> float:
        return max(self.u_history) if self.u_history else 0.0

    def residual_summary(self) -> dict:
        """Mean/std/max of the one-step model residuals (diagnostics)."""
        if not self.prediction_residuals:
            return {"count": 0, "mean": 0.0, "std": 0.0, "max_abs": 0.0}
        residuals = self.prediction_residuals
        mean = sum(residuals) / len(residuals)
        variance = sum((r - mean) ** 2 for r in residuals) / len(residuals)
        return {
            "count": len(residuals),
            "mean": mean,
            "std": variance**0.5,
            "max_abs": max(abs(r) for r in residuals),
        }


class AmpereController:
    """Statistical power controller (the paper's central contribution).

    Parameters
    ----------
    engine:
        Simulation engine for the periodic control loop.
    scheduler:
        Anything implementing the ``set_frozen`` interface. Calls may
        raise :class:`SchedulerRpcError`; the controller retries with
        back-off and reconciles on the next tick.
    monitor:
        Power monitor; every controlled group must be registered there.
    groups:
        The rows (or virtual experiment groups) to control.
    config:
        Controller parameters; defaults are the paper's production values.
    freeze_model:
        The f(u) model providing k_r.
    demand_estimator:
        E_t provider; defaults to a constant conservative margin.
    freeze_policy:
        Pluggable freeze-set selection (:class:`~repro.core.policy.FreezePolicy`).
        ``None`` installs the base class, the paper's power-ordered
        :func:`plan_freeze_set`; the tenancy subsystem installs
        :class:`~repro.tenancy.FairShareFreezePolicy` here.
    """

    def __init__(
        self,
        engine: Engine,
        scheduler: SchedulerInterface,
        monitor: PowerMonitor,
        groups: Iterable[ServerGroup],
        config: AmpereConfig = AmpereConfig(),
        freeze_model: Optional[FreezeEffectModel] = None,
        demand_estimator: Optional[DemandEstimator] = None,
        telemetry: Optional[Telemetry] = None,
        freeze_policy: Optional[FreezePolicy] = None,
    ) -> None:
        self.engine = engine
        self.scheduler = scheduler
        self.monitor = monitor
        self.config = config
        self.freeze_model = freeze_model if freeze_model is not None else FreezeEffectModel()
        self.demand_estimator = (
            demand_estimator
            if demand_estimator is not None
            else ConstantDemandEstimator(config.default_e_t)
        )
        self.freeze_policy = freeze_policy if freeze_policy is not None else FreezePolicy()
        self.telemetry = (
            telemetry
            if telemetry is not None
            else getattr(engine, "telemetry", None) or Telemetry.disabled()
        )
        self.health = ControllerHealth()
        self._crashed = False
        self.states: Dict[str, RowControlState] = {}
        #: per row, what the last completed tick commanded: ``(u_t,
        #: servers intended frozen)``; a degraded hold or a crash leaves
        #: it as it was
        self._last_command: Dict[str, Tuple[float, int]] = {}
        for group in groups:
            if group.name in self.states:
                raise ValueError(f"duplicate controlled group {group.name!r}")
            self.states[group.name] = self._new_state(
                group, frozenset(s.server_id for s in group.servers)
            )
        if not self.states:
            raise ValueError("controller needs at least one group to control")
        self.telemetry.collect(self._metrics)

    def _metrics(self):
        for name, state in self.states.items():
            yield TICKS(state.ticks, name)
            yield ACTIVE_TICKS(state.active_ticks, name)
            yield FREEZES(state.freeze_actions, name)
            yield UNFREEZES(state.unfreeze_actions, name)
            commanded_u, frozen = self._last_command.get(name, (0.0, 0))
            yield COMMANDED_U(commanded_u, name)
            yield FROZEN(frozen, name)
            yield BUDGET(state.group.power_budget_watts, name)
        yield from self.health.samples()

    def _new_state(self, group: ServerGroup, server_ids: frozenset) -> RowControlState:
        """Fresh per-row state honouring the configured retention window."""
        window = self.config.history_window
        return RowControlState(
            group=group,
            server_ids=server_ids,
            u_history=BoundedHistory(limit=window),
            u_times=BoundedHistory(limit=window),
            prediction_residuals=BoundedHistory(limit=window),
        )

    def start(self, until: float, first_at: Optional[float] = None) -> None:
        """Begin the periodic control loop."""
        self.engine.schedule_periodic(
            self.config.control_interval,
            EventPriority.CONTROLLER_TICK,
            self.tick,
            first_at=first_at,
            until=until,
        )

    # ------------------------------------------------------------------
    # Crash / recovery (the paper's failover property, made explicit)
    # ------------------------------------------------------------------
    @property
    def crashed(self) -> bool:
        return self._crashed

    def crash(self) -> None:
        """Simulate a controller process death.

        Every in-memory structure is lost: per-row statistics, commanded
        u_t history, prediction state and the intended frozen set. The
        cluster keeps running -- frozen servers stay frozen in the
        scheduler -- but no control actions happen until
        :meth:`recover` (the supervisor restart).
        """
        self._crashed = True
        self.health.crashes += 1
        self.health.note(self.engine.now, "crash", "*", "in-memory state lost")
        logger.error(
            "controller crashed at t=%.0fs; in-memory state lost", self.engine.now
        )
        self.states = {
            name: self._new_state(state.group, state.server_ids)
            for name, state in self.states.items()
        }

    def recover(self) -> None:
        """Restart after a crash: rebuild state from durable sources.

        The two sources a restarted production controller has are the
        scheduler's authoritative frozen set (adopted as the intended
        set, so the first tick reconciles cleanly instead of reporting
        phantom drift) and the TSDB's recorded ``freeze_ratio`` series
        (restores the commanded-u history that Table 2 metrics and the
        campaign summaries are computed from).
        """
        for state in self.states.values():
            actual = frozenset(self.scheduler.frozen_server_ids() & state.server_ids)
            state.intended_frozen = actual
            try:
                times, values = self.monitor.db.query(
                    f"freeze_ratio/{state.group.name}"
                )
            except KeyError:
                times, values = (), ()
            window = self.config.history_window
            state.u_times = BoundedHistory(
                (float(t) for t in times), limit=window
            )
            state.u_history = BoundedHistory(
                (float(v) for v in values), limit=window
            )
            # The full-run integral is durable too: the TSDB holds every
            # commanded u, not just the retained window.
            state.u_integral = float(sum(float(v) for v in values))
            state.u_samples = len(values)
        self._crashed = False
        self.health.recoveries += 1
        self.health.note(
            self.engine.now,
            "recover",
            "*",
            "state rebuilt from TSDB + scheduler frozen set",
        )
        logger.info(
            "controller recovered at t=%.0fs from TSDB + scheduler frozen set",
            self.engine.now,
        )

    # ------------------------------------------------------------------
    # Mid-run budget updates (the fleet-coordinator seam)
    # ------------------------------------------------------------------
    def update_budget(self, group_name: str, budget_watts: float) -> bool:
        """Apply a new power allocation to one controlled row mid-run.

        The group's ``power_budget_watts`` is the denominator of every
        normalized quantity the controller steers on, so the next tick
        recomputes ``r_threshold = P_M - E_t`` against the new allocation
        automatically -- no restart, no state loss. The change is
        recorded as a ``budget_changed`` health event and read by the
        ``repro_controller_budget_watts`` gauge.

        Returns True when the budget actually changed (the coordinator's
        reallocation counters only count real moves).
        """
        state = self.state_of(group_name)
        if not math.isfinite(budget_watts) or budget_watts <= 0:
            raise ValueError(
                f"budget_watts must be positive and finite, got {budget_watts}"
            )
        old = state.group.power_budget_watts
        if budget_watts == old:
            return False
        state.group.power_budget_watts = float(budget_watts)
        # The pending one-step prediction was made in old-budget units;
        # comparing the next (re-normalized) sample against it would
        # record a spurious residual.
        state._last_prediction = None
        self.health.budget_updates += 1
        self.health.note(
            self.engine.now,
            "budget_changed",
            group_name,
            f"{old:.0f}W -> {budget_watts:.0f}W",
        )
        logger.info(
            "group %s: budget updated %.0fW -> %.0fW at t=%.0fs",
            group_name,
            old,
            budget_watts,
            self.engine.now,
        )
        return True

    # ------------------------------------------------------------------
    def tick(self) -> None:
        """One control action over every managed row (Algorithm 1)."""
        if self._crashed:
            return  # process is down; ticks resume after recover()
        now = self.engine.now
        with self.telemetry.span("controller.tick", rows=len(self.states)):
            for state in self.states.values():
                self._control_row(state, now)

    def _control_row(self, state: RowControlState, now: float) -> None:
        state.ticks += 1
        try:
            sample_time, p_norm = self.monitor.latest_normalized_sample(
                state.group.name
            )
        except (KeyError, LookupError):
            return  # no sample yet; act next interval
        # Re-normalize against the *current* budget: a fleet coordinator
        # may have moved this row's allocation after the monitor stored
        # the sample (the stored value is normalized to the budget at
        # sample time). With an unchanged budget this repeats the exact
        # division the monitor performed -- bit-identical. A normalized
        # sample without a matching absolute sample (direct test writes,
        # replays) is honoured as-is.
        try:
            watts_time, watts = self.monitor.latest_power_sample(
                state.group.name
            )
        except (AttributeError, KeyError, LookupError):
            watts_time = None
        if watts_time == sample_time:
            p_norm = watts / state.group.power_budget_watts
        currently_frozen = self.scheduler.frozen_server_ids() & state.server_ids
        self._reconcile(state, currently_frozen, now)

        age = now - sample_time
        if age > self.config.max_staleness_seconds:
            self._degraded_hold(state, currently_frozen, now, age)
            return
        if not math.isfinite(p_norm) or p_norm <= 0.0:
            self._skip_tick(state, now, f"degenerate row power reading {p_norm!r}")
            return

        e_t = self.demand_estimator.estimate(now)
        target = self.config.control_target
        if state._last_prediction is not None:
            state.prediction_residuals.append(p_norm - state._last_prediction)

        group = state.group
        ids = group.state.server_ids[group.state_indices]
        frozen = group.member_mask(currently_frozen)
        if p_norm > threshold_ratio(e_t, p_m=target):
            u_t = self._optimal_ratio(p_norm, now)
            n_freeze = math.floor(u_t * len(group.servers))
            powers = self.monitor.read_server_powers(group.name)
            powers = np.where(np.isfinite(powers), powers, 0.0)
            if not np.any(powers > 0.0):
                # A snapshot with no finite positive reading is fiction.
                self._skip_tick(state, now, "empty/all-failed power snapshot")
                return
            plan = self.freeze_policy.plan(
                powers, ids, n_freeze, frozen, self.config.r_stable
            )
            state.active_ticks += 1
        else:
            plan = np.zeros(len(ids), dtype=bool)
        slots = group.state_indices
        thawed = self._rpc(state, False, slots[frozen & ~plan], now)
        newly_frozen = self._rpc(state, True, slots[plan & ~frozen], now)
        state.unfreeze_actions += len(thawed)
        state.freeze_actions += len(newly_frozen)
        achieved = currently_frozen.difference(thawed).union(newly_frozen)
        state.intended_frozen = frozenset(ids[plan].tolist())
        commanded_u = len(achieved) / len(group.servers)

        self._last_command[state.group.name] = (
            commanded_u,
            len(state.intended_frozen),
        )
        state.u_history.append(commanded_u)
        state.u_times.append(now)
        state.u_integral += commanded_u
        state.u_samples += 1
        state._last_prediction = (
            p_norm + e_t - self.freeze_model.predict(min(1.0, commanded_u))
        )
        self.monitor.db.write(f"freeze_ratio/{state.group.name}", now, commanded_u)

    # ------------------------------------------------------------------
    # Hardening helpers
    # ------------------------------------------------------------------
    def _reconcile(
        self, state: RowControlState, currently_frozen: FrozenSet[int], now: float
    ) -> None:
        """Compare last tick's intent with the scheduler's authoritative set.

        Planning always proceeds from the authoritative set, so recording
        the drift is enough -- the subsequent plan re-issues whatever the
        failed RPCs left undone.
        """
        drift = state.intended_frozen.symmetric_difference(currently_frozen)
        if drift:
            self.health.reconciliations += 1
            self.health.reconciliation_diff_total += len(drift)
            self.health.note(
                now,
                "reconcile",
                state.group.name,
                f"{len(drift)} servers drifted from intent",
            )
            logger.info(
                "group %s: %d servers drifted from intended frozen set "
                "at t=%.0fs; replanning from authoritative state",
                state.group.name,
                len(drift),
                now,
            )

    def _degraded_hold(
        self,
        state: RowControlState,
        currently_frozen: FrozenSet[int],
        now: float,
        age: float,
    ) -> None:
        """Fail-safe action on stale data: hold the frozen set.

        Unfreezing on a stale reading could push a genuinely hot row over
        its breaker; freezing more on one wastes capacity on fiction. The
        conservative move is to keep what we have -- including
        re-asserting intended freezes that RPC faults dropped -- and let
        the reactive capping net handle true excursions until monitoring
        recovers.
        """
        self.health.degraded_ticks += 1
        self.health.note(
            now,
            "degraded",
            state.group.name,
            f"latest sample is {age:.0f}s old "
            f"(limit {self.config.max_staleness_seconds:.0f}s); holding frozen set",
        )
        logger.warning(
            "group %s: degraded mode at t=%.0fs (sample %.0fs old, limit %.0fs); "
            "holding frozen set",
            state.group.name,
            now,
            age,
            self.config.max_staleness_seconds,
        )
        group = state.group
        missing = group.member_mask(state.intended_frozen - currently_frozen)
        reasserted = self._rpc(state, True, group.state_indices[missing], now)
        state.freeze_actions += len(reasserted)
        held = currently_frozen.union(reasserted)
        state.intended_frozen = held | state.intended_frozen
        state.u_history.append(len(held) / len(state.group.servers))
        state.u_times.append(now)
        state.u_integral += len(held) / len(state.group.servers)
        state.u_samples += 1
        # No valid observation this tick: the next residual would compare
        # a fresh sample against a prediction made from stale data.
        state._last_prediction = None
        self.monitor.db.write(
            f"freeze_ratio/{state.group.name}",
            now,
            len(held) / len(state.group.servers),
        )

    def _skip_tick(self, state: RowControlState, now: float, reason: str) -> None:
        """Refuse to act on a degenerate observation (logged, counted)."""
        self.health.skipped_ticks += 1
        self.health.note(now, "skipped", state.group.name, reason)
        logger.warning(
            "group %s: tick skipped at t=%.0fs (%s)", state.group.name, now, reason
        )
        state._last_prediction = None

    def _rpc(
        self, state: RowControlState, frozen: bool, slots: np.ndarray, now: float
    ) -> List[int]:
        """One freeze or thaw batch with bounded retry + back-off.

        Returns the ids the landed call changed; an empty batch sends
        nothing. A batch lands or fails as a whole, so on giving up the
        whole batch is left for next-tick reconciliation -- never
        silently assumed applied. Back-off is accounted against
        ``rpc_deadline_seconds`` rather than advancing the simulated
        clock: the tick is atomic on the engine, but the budget bounds
        retries exactly as wall-clock would.
        """
        if not len(slots):
            return []
        config = self.config
        backoff = config.rpc_backoff_base_seconds
        elapsed = 0.0
        for attempt in range(1, config.rpc_max_attempts + 1):
            try:
                return self.scheduler.set_frozen(slots, frozen)
            except SchedulerRpcError as error:
                elapsed += error.latency_seconds
                out_of_budget = elapsed + backoff > config.rpc_deadline_seconds
                if attempt >= config.rpc_max_attempts or out_of_budget:
                    action = "freeze" if frozen else "unfreeze"
                    self.health.rpc_giveups += 1
                    self.health.note(
                        now,
                        "rpc_giveup",
                        state.group.name,
                        f"{action} of {len(slots)} servers failed {attempt}x"
                        + ("; deadline" if out_of_budget else ""),
                    )
                    logger.warning(
                        "group %s: gave up on %s of %d servers after %d "
                        "attempts at t=%.0fs%s",
                        state.group.name,
                        action,
                        len(slots),
                        attempt,
                        now,
                        "; deadline exhausted" if out_of_budget else "",
                    )
                    return []
                self.health.rpc_retries += 1
                elapsed += backoff
                backoff *= 2.0
        return []  # not reached; the loop always returns

    def _optimal_ratio(self, p_norm: float, now: float) -> float:
        """The RHC control: SPCP closed form, or N-step PCP for horizon > 1."""
        config = self.config
        k_r = self.freeze_model.k_r
        with self.telemetry.span("rhc.decide", horizon=config.horizon):
            if config.horizon == 1:
                return spcp_optimal_ratio(
                    p_norm,
                    self.demand_estimator.estimate(now),
                    k_r,
                    p_m=config.control_target,
                    u_max=config.u_max,
                )
            e_sequence = self.demand_estimator.estimate_sequence(
                now, config.horizon, config.control_interval
            )
            try:
                controls = pcp_optimal_sequence(
                    p_norm,
                    e_sequence,
                    k_r,
                    p_m=config.control_target,
                    u_max=config.u_max,
                )
            except ValueError:
                # Infeasible within the ceiling: saturate, exactly as the
                # paper's controller does against the 50% operational limit.
                return config.u_max
            return controls[0]

    # ------------------------------------------------------------------
    def state_of(self, group_name: str) -> RowControlState:
        if group_name not in self.states:
            raise KeyError(f"group {group_name!r} is not controlled")
        return self.states[group_name]


__all__ = [
    "AmpereController",
    "ControllerHealth",
    "HealthEvent",
    "RowControlState",
]
