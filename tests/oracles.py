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
:func:`plan_freeze_set` is the freeze planner over ``{server_id: watts}``
dicts and id sets that the array planner in :mod:`repro.core.policy`
replaced; ``tests/test_properties.py`` checks the two make the same plan.

The PCP references at the end (:func:`pcp_cost`,
:func:`simulate_power_trajectory`, :func:`spcp_optimal_ratio_nonlinear`)
are what ``tests/test_rhc.py`` and ``tests/test_properties.py`` check
the controller's closed-form SPCP and iterated PCP against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Sequence, Set

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
def read_server_powers(monitor, group) -> np.ndarray:
    """``PowerMonitor.read_server_powers``: one noise draw per server."""
    readings: List[float] = []
    for server in group.servers:
        factor = 1.0
        if monitor.noise_sigma > 0:
            factor = 1.0 + monitor.noise_sigma * monitor.rng.standard_normal()
        readings.append(server.power_watts() * factor * monitor.sensor_bias)
    return np.array(readings, dtype=np.float64)


# ---------------------------------------------------------------------------
# Freeze planning
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FreezePlan:
    """The actions produced by one planning step."""

    to_freeze: FrozenSet[int]
    to_unfreeze: FrozenSet[int]
    new_frozen: FrozenSet[int]


def plan_freeze_set(
    server_powers: Dict[int, float],
    n_freeze: int,
    currently_frozen: Set[int],
    r_stable: float = 0.8,
) -> FreezePlan:
    """One step of Algorithm 1's candidate-selection logic for a row.

    Parameters
    ----------
    server_powers:
        Power reading per server id for every server in the row.
    n_freeze:
        Target size of the frozen set (already clamped by the caller to
        ``floor(u_t * n)`` and the operational ceiling).
    currently_frozen:
        Frozen set from the previous interval, ``S_f[k]``.
    r_stable:
        Stability ratio; servers whose power exceeds ``r_stable * min(S)``
        join the candidate set so that near-ties don't cause churn.

    Returns
    -------
    FreezePlan
        The freeze/unfreeze actions and the resulting frozen set, with
        ``len(new_frozen) == min(n_freeze, len(server_powers))``.
    """
    if n_freeze < 0:
        raise ValueError(f"n_freeze must be non-negative, got {n_freeze}")
    if not 0.0 < r_stable <= 1.0:
        raise ValueError(f"r_stable must be in (0, 1], got {r_stable}")
    unknown = currently_frozen - server_powers.keys()
    if unknown:
        raise KeyError(f"frozen servers missing power readings: {sorted(unknown)}")

    n_freeze = min(n_freeze, len(server_powers))
    if n_freeze == 0:
        return FreezePlan(
            to_freeze=frozenset(),
            to_unfreeze=frozenset(currently_frozen),
            new_frozen=frozenset(),
        )

    # S <- n_freeze servers with highest power. Ties broken by id so the
    # plan is deterministic for identical readings.
    by_power_desc: List[int] = sorted(
        server_powers, key=lambda sid: (-server_powers[sid], sid)
    )
    top = by_power_desc[:n_freeze]
    candidates: Set[int] = set(top)

    # Stability band: any server within r_stable of the set's floor is an
    # acceptable member, so current members inside the band are kept.
    power_floor = min(server_powers[sid] for sid in top)
    p_threshold = r_stable * power_floor
    for sid in by_power_desc[n_freeze:]:
        if server_powers[sid] > p_threshold:
            candidates.add(sid)
        else:
            break  # sorted descending; everything after is colder

    # Unfreeze servers that fell out of the candidate set entirely.
    kept = currently_frozen & candidates
    dropped = currently_frozen - candidates

    if len(kept) > n_freeze:
        # Too many survivors: release the coldest surplus ("arbitrary" in
        # the paper; coldest-first minimizes capacity cost and is
        # deterministic).
        surplus = sorted(kept, key=lambda sid: (server_powers[sid], -sid))
        release = set(surplus[: len(kept) - n_freeze])
        kept -= release
        dropped |= release
        newly_frozen: Set[int] = set()
    else:
        # Fill up with the hottest non-frozen candidates.
        need = n_freeze - len(kept)
        fill_pool = [sid for sid in by_power_desc if sid in candidates and sid not in kept]
        newly_frozen = set(fill_pool[:need])
        kept |= newly_frozen

    return FreezePlan(
        to_freeze=frozenset(newly_frozen),
        to_unfreeze=frozenset(dropped),
        new_frozen=frozenset(kept),
    )


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

    Each server not yet in the target state gets its own one-slot
    ``set_frozen`` (a freeze skips dark servers): one control event per
    call and, on a thaw, one queue drain per server.
    """
    scheduler = run.scheduler_for(name)
    group = run.groups()[name]
    changed = 0
    for server, slot in zip(group.servers, group.state_indices.tolist()):
        if frozen and not server.frozen and _live(server):
            changed += len(scheduler.set_frozen([slot], True))
        elif not frozen and server.frozen:
            changed += len(scheduler.set_frozen([slot], False))
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
        "read_server_powers",
        lambda monitor, name: read_server_powers(monitor, monitor._groups[name]),
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
