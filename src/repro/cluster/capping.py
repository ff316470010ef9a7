"""RAPL/DVFS-style reactive power capping.

This is the safety-net mechanism the paper compares against (and keeps
enabled underneath Ampere). When group power exceeds the budget, the engine
steps down the DVFS frequency of the highest-power servers until the
projected power fits; when power falls comfortably below the budget it
steps frequencies back up. Real RAPL reacts in under a millisecond; the
simulation ticks every ``interval`` seconds (default 1 s), far inside the
one-minute monitoring granularity, which preserves the property that
capping -- unlike Ampere -- catches sub-minute spikes but damages running
jobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.cluster.group import ServerGroup
from repro.cluster.power import (
    DVFS_FREQUENCIES,
    next_higher_frequency,
    next_lower_frequency,
)
from repro.cluster.server import Server
from repro.sim.engine import Engine
from repro.sim.events import EventPriority


@dataclass
class CappingStats:
    """Accounting of capping activity for the evaluation metrics."""

    ticks: int = 0
    over_budget_ticks: int = 0
    cap_actions: int = 0
    uncap_actions: int = 0
    #: emergency floor-everything interventions (safety-supervisor slams)
    slam_actions: int = 0
    capped_server_seconds: float = 0.0
    #: per-server seconds spent below full frequency
    per_server_capped_seconds: Dict[int, float] = field(default_factory=dict)

    def fraction_time_over_budget(self) -> float:
        return self.over_budget_ticks / self.ticks if self.ticks else 0.0


class CappingEngine:
    """Reactive row-level power capping via DVFS frequency stepping.

    Parameters
    ----------
    group:
        The servers sharing the enforced budget (a row, or a virtual
        experiment group with a scaled budget).
    engine:
        Simulation engine; the capping loop self-schedules on it.
    interval:
        Seconds between control evaluations.
    restore_headroom:
        Frequencies are only restored while projected power stays below
        ``restore_headroom * budget``, which prevents cap/uncap flapping.
    enabled:
        A disabled engine still ticks and counts over-budget intervals
        (used to observe uncontrolled power demand) but never acts.
    strategy:
        Victim selection: ``"hottest-first"`` (concentrate the damage on
        the fewest servers -- the production default) or ``"spread"``
        (step every server down together, spreading a smaller slowdown
        over the whole group).
    """

    STRATEGIES = ("hottest-first", "spread")

    def __init__(
        self,
        group: ServerGroup,
        engine: Engine,
        interval: float = 1.0,
        restore_headroom: float = 0.97,
        enabled: bool = True,
        strategy: str = "hottest-first",
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if not 0.0 < restore_headroom <= 1.0:
            raise ValueError(
                f"restore_headroom must be in (0, 1], got {restore_headroom}"
            )
        if strategy not in self.STRATEGIES:
            raise ValueError(
                f"strategy must be one of {self.STRATEGIES}, got {strategy!r}"
            )
        self.group = group
        self.engine = engine
        self.interval = interval
        self.restore_headroom = restore_headroom
        self.enabled = enabled
        self.strategy = strategy
        self.stats = CappingStats()

    def start(self, until: float, first_at: "float | None" = None) -> None:
        """Begin periodic evaluation on the simulation engine."""
        self.engine.schedule_periodic(
            self.interval,
            EventPriority.CAPPING_TICK,
            self.tick,
            first_at=first_at,
            until=until,
        )

    # ------------------------------------------------------------------
    def tick(self) -> None:
        """One control evaluation: cap if over budget, else maybe restore."""
        self.stats.ticks += 1
        self._account_capped_time()
        power = self.group.power_watts()
        budget = self.group.power_budget_watts
        if power > budget:
            self.stats.over_budget_ticks += 1
            if self.enabled:
                self._cap_until_under(power, budget)
        elif self.enabled:
            self._restore_while_safe(power, budget)

    def _account_capped_time(self) -> None:
        # A failed or powered-off server draws nothing and runs nothing:
        # its DVFS state is moot, so it must not accrue capped time (the
        # failure path resets frequency, but guard here regardless).
        # This guard holds under batched mutations too: ClusterState's
        # mask-fail primitive resets frequency and the shared power cache
        # exactly like Server.fail(), so no capped time leaks on a dark
        # machine.
        state, idx = self.group.state, self.group.state_indices
        capped_live = state.capped_mask(idx) & state.live_mask(idx)
        per = self.stats.per_server_capped_seconds
        # Accumulate per slot, in group order: the running totals add up
        # in the same sequence as a per-server loop would.
        for pos in np.flatnonzero(capped_live):
            server = self.group.servers[pos]
            self.stats.capped_server_seconds += self.interval
            per[server.server_id] = per.get(server.server_id, 0.0) + self.interval

    def _cap_until_under(self, power: float, budget: float) -> None:
        if self.strategy == "hottest-first":
            self._cap_hottest_first(power, budget)
        else:
            self._cap_spread(power, budget)

    def _live_hottest_first(self) -> List[Server]:
        """Live servers, hottest first, ties in group order.

        ``argsort(-powers, kind="stable")`` orders exactly like a stable
        ``sorted(..., key=power_watts, reverse=True)``, and filtering dark
        servers commutes with a stable sort.
        """
        state, idx = self.group.state, self.group.state_indices
        powers = state.server_powers(idx)
        live = state.live_mask(idx)
        order = np.argsort(-powers, kind="stable")
        servers = self.group.servers
        return [servers[pos] for pos in order if live[pos]]

    def _cap_hottest_first(self, power: float, budget: float) -> None:
        """Step down the hottest servers until projected power <= budget."""
        # Sort once; stepping a server down changes its power but the
        # hottest-first order remains a good greedy heuristic, matching how
        # production cappers prioritize.
        candidates: List[Server] = self._live_hottest_first()
        projected = power
        for server in candidates:
            if projected <= budget:
                break
            while projected > budget:
                lower = next_lower_frequency(server.frequency)
                if lower >= server.frequency:
                    break  # already at the floor
                before = server.power_watts()
                server.set_frequency(lower)
                projected -= before - server.power_watts()
                self.stats.cap_actions += 1

    def _cap_spread(self, power: float, budget: float) -> None:
        """Step the whole group down one frequency level at a time."""
        projected = power
        progressing = True
        while projected > budget and progressing:
            progressing = False
            for server in self.group.servers:
                if server.failed or server.powered_off:
                    continue
                if projected <= budget:
                    break
                lower = next_lower_frequency(server.frequency)
                if lower >= server.frequency:
                    continue  # at the floor
                before = server.power_watts()
                server.set_frequency(lower)
                projected -= before - server.power_watts()
                self.stats.cap_actions += 1
                progressing = True

    # ------------------------------------------------------------------
    # Emergency surfaces used by the safety supervisor
    # ------------------------------------------------------------------
    def slam(self) -> int:
        """Emergency cap: floor every live server's frequency at once.

        The supervisor's CRITICAL response. Unlike :meth:`tick` this does
        not stop at the budget -- it trades maximum SLA damage for an
        immediate, guaranteed power cut. Returns frequency steps applied.
        """
        floor = DVFS_FREQUENCIES[-1]
        actions = 0
        # The frequency step stays per-object because listeners (the
        # scheduler's completion bookkeeping) must observe every transition.
        for server in self._slam_victims():
            server.set_frequency(floor)
            actions += 1
        if actions:
            self.stats.slam_actions += 1
            self.stats.cap_actions += actions
        return actions

    def _slam_victims(self) -> List[Server]:
        """Live servers above the DVFS floor, in group order."""
        state, idx = self.group.state, self.group.state_indices
        victims = state.live_mask(idx) & (state.frequency[idx] > DVFS_FREQUENCIES[-1])
        servers = self.group.servers
        return [servers[pos] for pos in np.flatnonzero(victims)]

    def restore_step(self) -> None:
        """One headroom-guarded restore pass (for callers that do not run
        the periodic loop, e.g. the supervisor unwinding a slam)."""
        self._restore_while_safe(
            self.group.power_watts(), self.group.power_budget_watts
        )

    def _restore_order(self) -> List[Server]:
        """Live capped servers, least-capped first, ties in group order.

        Restoring the closest-to-full-speed servers first lets them exit
        the capped state quickly, minimizing SLA exposure. Dark servers
        are skipped: "restoring" one is free in power terms (delta 0) and
        would silently discard its DVFS state.
        """
        state, idx = self.group.state, self.group.state_indices
        eligible = state.capped_mask(idx) & state.live_mask(idx)
        order = np.argsort(-state.frequency[idx], kind="stable")
        servers = self.group.servers
        return [servers[pos] for pos in order if eligible[pos]]

    def _restore_while_safe(self, power: float, budget: float) -> None:
        """Step capped servers back up while staying under the headroom."""
        ceiling = self.restore_headroom * budget
        if power >= ceiling:
            return
        projected = power
        for server in self._restore_order():
            old_frequency = server.frequency
            higher = next_higher_frequency(old_frequency)
            before = server.power_watts()
            server.set_frequency(higher)
            delta = server.power_watts() - before
            if projected + delta > ceiling:
                # The step would overshoot the headroom: revert and stop.
                server.set_frequency(old_frequency)
                break
            projected += delta
            self.stats.uncap_actions += 1


__all__ = ["CappingEngine", "CappingStats"]
