"""Scalar reference oracles for the array hot loops.

Production runs one path: array expressions over the
:class:`~repro.cluster.state.ClusterState` columns. Each oracle here is
the per-server Python loop that path replaced, written for clarity
rather than speed. ``tests/test_backend_equivalence.py`` checks the
production path against them bit for bit, which pins the three numerical
contracts the array path relies on:

1. exact-exponent pow: per-server power comes from the scalar model
   (``Server.power_watts``, CPython ``**``);
2. ``cumsum()[-1]`` aggregation: group totals are a left-to-right
   built-in ``sum``;
3. RNG batching: every oracle draws its randomness one scalar call at a
   time, in the documented order, where production draws whole batches.

:class:`PerCandidateGenerator` is the arrival path that production's
thin-ahead stream replaced: one engine event per thinning candidate.

The PCP references at the end (:func:`pcp_cost`,
:func:`simulate_power_trajectory`, :func:`spcp_optimal_ratio_nonlinear`)
are what ``tests/test_rhc.py`` and ``tests/test_properties.py`` check
the controller's closed-form SPCP and iterated PCP against.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.cluster.capping import CappingEngine
from repro.cluster.group import ServerGroup
from repro.cluster.power import DVFS_FREQUENCIES
from repro.monitor.power_monitor import PowerMonitor
from repro.service.views import jsonsafe
from repro.sim import testbed
from repro.sim.events import EventPriority
from repro.workload.generator import BatchWorkloadGenerator


def _live(server) -> bool:
    return not (server.failed or server.powered_off)


# ---------------------------------------------------------------------------
# Group power
# ---------------------------------------------------------------------------
def group_power_watts(group) -> float:
    """Aggregate true power: a left-to-right sum of scalar powers."""
    return sum(s.power_watts() for s in group.servers)


def group_server_powers(group) -> np.ndarray:
    """Per-server true power in member order, one scalar call each."""
    return np.fromiter(
        (s.power_watts() for s in group.servers),
        dtype=np.float64,
        count=len(group.servers),
    )


def group_rated_watts(group) -> float:
    """Sum of member rated power, left to right."""
    return sum(s.rated_watts for s in group.servers)


# ---------------------------------------------------------------------------
# Observe documents
# ---------------------------------------------------------------------------
def group_flag_counts(group) -> Dict[str, int]:
    """A group summary's server counts, one attribute read per server."""
    servers = group.servers
    return {
        "frozen": sum(1 for s in servers if s.frozen),
        "capped": sum(1 for s in servers if s.is_capped),
        "failed": sum(1 for s in servers if s.failed),
        "powered_off": sum(1 for s in servers if s.powered_off),
    }


def group_server_dicts(group) -> List[dict]:
    """A group document's per-server section as one dict per server."""
    return [
        {
            "id": s.server_id,
            "power_watts": s.power_watts(),
            "frozen": s.frozen,
            "capped": s.is_capped,
            "failed": s.failed,
            "powered_off": s.powered_off,
        }
        for s in group.servers
    ]


def _group_summary(run, name: str, group) -> dict:
    breaker = run.breakers().get(name)
    supervisor = run.supervisors().get(name)
    doc = {
        "name": name,
        "n_servers": len(group.servers),
        "power_watts": group_power_watts(group),
        "budget_watts": group.power_budget_watts,
        "rated_watts": group_rated_watts(group),
        "normalized_power": group_power_watts(group) / group.power_budget_watts,
        "over_provision_ratio": (
            group_rated_watts(group) / group.power_budget_watts - 1.0
        ),
        **group_flag_counts(group),
        "controlled": name in run.controllers(),
        "safety_state": supervisor.state.name if supervisor else None,
        "safety_level": int(supervisor.state) if supervisor else None,
        "breaker": (
            {
                "tripped": breaker.tripped,
                "thermal_fraction": breaker.thermal_fraction,
                "trips": breaker.stats.trips,
            }
            if breaker
            else None
        ),
    }
    try:
        doc["violations"] = run.monitor.violation_count(name)
    except KeyError:
        doc["violations"] = None
    return doc


def state_doc(run) -> dict:
    """``views.state_doc`` with every group figure taken server by server."""
    monitor = run.monitor
    groups = run.groups()
    return jsonsafe(
        {
            "kind": run.SNAPSHOT_KIND,
            "sim_now": run.engine.now,
            "facility_budget_watts": monitor.facility_budget_watts,
            "facility_power_watts": sum(
                group_power_watts(g) for g in groups.values()
            ),
            "in_outage": monitor.in_outage,
            "sensor_bias": monitor.sensor_bias,
            "groups": [
                _group_summary(run, name, group)
                for name, group in groups.items()
            ],
        }
    )


# ---------------------------------------------------------------------------
# Capping orders
# ---------------------------------------------------------------------------
def hottest_first(group) -> list:
    """Live servers by power, descending; ``sorted`` keeps ties in order."""
    return sorted(
        (s for s in group.servers if _live(s)),
        key=lambda s: s.power_watts(),
        reverse=True,
    )


def restore_order(group) -> list:
    """Live capped servers by frequency, descending, ties in group order."""
    return sorted(
        (s for s in group.servers if s.is_capped and _live(s)),
        key=lambda s: s.frequency,
        reverse=True,
    )


def slam_victims(group) -> list:
    """Live servers above the DVFS floor, in group order."""
    floor = DVFS_FREQUENCIES[-1]
    return [s for s in group.servers if _live(s) and s.frequency > floor]


def capped_time_order(group) -> list:
    """Server ids that accrue capped time this tick, in group order."""
    return [s.server_id for s in group.servers if s.is_capped and _live(s)]


# ---------------------------------------------------------------------------
# Per-server readings
# ---------------------------------------------------------------------------
def snapshot_server_powers(monitor, group) -> Dict[int, float]:
    """``PowerMonitor.snapshot_server_powers``: one noise draw per server."""
    readings: Dict[int, float] = {}
    for server in group.servers:
        factor = 1.0
        if monitor.noise_sigma > 0:
            factor = 1.0 + monitor.noise_sigma * monitor.rng.standard_normal()
        readings[server.server_id] = (
            server.power_watts() * factor * monitor.sensor_bias
        )
    return readings


# ---------------------------------------------------------------------------
# Capping engine
# ---------------------------------------------------------------------------
class OracleCappingEngine(CappingEngine):
    """A capping engine whose orders and capped-time books are the loops."""

    def _account_capped_time(self) -> None:
        per = self.stats.per_server_capped_seconds
        for server_id in capped_time_order(self.group):
            self.stats.capped_server_seconds += self.interval
            per[server_id] = per.get(server_id, 0.0) + self.interval

    def _live_hottest_first(self) -> list:
        return hottest_first(self.group)

    def _restore_order(self) -> list:
        return restore_order(self.group)

    def _slam_victims(self) -> list:
        return slam_victims(self.group)


# ---------------------------------------------------------------------------
# Operator acts
# ---------------------------------------------------------------------------
def set_group_frozen(run, name: str, frozen: bool) -> dict:
    """An operator group freeze or thaw, one scheduler call per server.

    Each live server not yet in the target state gets its own
    ``freeze``/``unfreeze``: one control event per call and, on a thaw,
    one queue drain per server.
    """
    scheduler = run.scheduler_for(name)
    changed = 0
    for server in run.groups()[name].servers:
        if not _live(server):
            continue
        if frozen and not server.frozen:
            scheduler.freeze(server.server_id)
            changed += 1
        elif not frozen and server.frozen:
            scheduler.unfreeze(server.server_id)
            changed += 1
    return {
        "group": name,
        "action": "freeze" if frozen else "unfreeze",
        "servers_changed": changed,
        "sim_now": run.engine.now,
    }


# ---------------------------------------------------------------------------
# Batch arrivals
# ---------------------------------------------------------------------------
class PerCandidateGenerator(BatchWorkloadGenerator):
    """Poisson thinning with one engine event per candidate.

    Each generator schedules its own candidates, so generators sharing
    an rng interleave their draws in engine (time, schedule) order; the
    arrival stream a production generator joins is ignored.
    """

    def start(self, until: float) -> None:
        self._max_rate = self.rate_profile.max_rate
        if self._max_rate <= 0:
            return
        self._until = until
        self._schedule_next_candidate()

    def _schedule_next_candidate(self) -> None:
        gap = self.rng.exponential(1.0 / self._max_rate)
        t = self.engine.now + gap
        if t >= self._until:
            return
        self.engine.schedule(t, EventPriority.JOB_ARRIVAL, self._candidate_arrival)

    def _candidate_arrival(self) -> None:
        now = self.engine.now
        accept_probability = self.rate_profile.rate(now) / self._max_rate
        if self.rng.random() < accept_probability:
            self._emit_job(now)
        self._schedule_next_candidate()


def use_per_candidate_arrivals(monkeypatch) -> None:
    """Build every testbed generator as a :class:`PerCandidateGenerator`."""
    monkeypatch.setattr(testbed, "BatchWorkloadGenerator", PerCandidateGenerator)


def use_oracle_loops(monkeypatch) -> None:
    """Run whole simulations on the oracle loops instead of the arrays.

    Swaps the group power and rated sums, ``server_powers``, the monitor's
    per-server readings and the capping orders and books of the
    production classes for the scalar loops above, for the duration of
    one test. Trajectories must not move: the loops are bit-identical
    references, not approximations.
    """
    monkeypatch.setattr(ServerGroup, "power_watts", group_power_watts)
    monkeypatch.setattr(ServerGroup, "server_powers", group_server_powers)
    monkeypatch.setattr(ServerGroup, "rated_watts", group_rated_watts)
    monkeypatch.setattr(
        PowerMonitor,
        "snapshot_server_powers",
        lambda monitor, name: snapshot_server_powers(monitor, monitor._groups[name]),
    )
    for name in (
        "_account_capped_time",
        "_live_hottest_first",
        "_restore_order",
        "_slam_victims",
    ):
        monkeypatch.setattr(CappingEngine, name, getattr(OracleCappingEngine, name))


# ---------------------------------------------------------------------------
# PCP references (Section 3.6)
# ---------------------------------------------------------------------------
def pcp_cost(controls: Sequence[float]) -> float:
    """The PCP cost function C(U_t) = sum of freezing ratios (Eq. 2)."""
    return float(sum(controls))


def simulate_power_trajectory(
    p_t: float,
    e_sequence: Sequence[float],
    controls: Sequence[float],
    k_r: float,
) -> List[float]:
    """Power trajectory P_{t+1..t+N} under the PCP dynamics (Eq. 8)."""
    if len(e_sequence) != len(controls):
        raise ValueError(
            f"length mismatch: {len(e_sequence)} demands vs {len(controls)} controls"
        )
    trajectory: List[float] = []
    power = p_t
    for e_k, u_k in zip(e_sequence, controls):
        if not 0.0 <= u_k <= 1.0:
            raise ValueError(f"control {u_k} outside [0, 1]")
        power = power + e_k - k_r * u_k
        trajectory.append(power)
    return trajectory


def spcp_optimal_ratio_nonlinear(
    p_t: float,
    e_t: float,
    f: Callable[[float], float],
    p_m: float = 1.0,
    u_max: float = 1.0,
    tolerance: float = 1e-9,
) -> float:
    """SPCP solution for a general monotone non-decreasing freeze effect.

    Finds the smallest ``u`` in ``[0, u_max]`` with
    ``p_t + e_t - f(u) <= p_m`` by bisection; returns ``u_max`` when even
    maximal freezing cannot satisfy the constraint (the controller then
    saturates, exactly as with the paper's 50% limit in Figure 10b).
    """
    required = p_t + e_t - p_m
    if required <= 0.0:
        return 0.0
    if f(u_max) < required - tolerance:
        return u_max
    lo, hi = 0.0, u_max
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if f(mid) >= required:
            hi = mid
        else:
            lo = mid
    return hi
