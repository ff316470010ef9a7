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
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.capping import CappingEngine
from repro.cluster.group import ServerGroup
from repro.cluster.power import DVFS_FREQUENCIES
from repro.monitor.power_monitor import PowerMonitor
from repro.service.views import jsonsafe


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
# IPMI
# ---------------------------------------------------------------------------
class BmcEndpoint:
    """The management controller of one server, read one poll at a time.

    Parameters
    ----------
    server:
        The managed server (source of true power).
    rng:
        Random source for noise and timeouts.
    noise_sigma:
        Relative standard deviation of sensor noise.
    failure_rate:
        Probability that a poll times out (returns ``None``).
    quantize_watts:
        Reading resolution; IPMI power sensors report whole watts.
    """

    def __init__(
        self,
        server,
        rng: np.random.Generator,
        noise_sigma: float = 0.01,
        failure_rate: float = 0.001,
        quantize_watts: float = 1.0,
    ) -> None:
        if noise_sigma < 0:
            raise ValueError(f"noise_sigma must be non-negative, got {noise_sigma}")
        if not 0.0 <= failure_rate < 1.0:
            raise ValueError(f"failure_rate must be in [0, 1), got {failure_rate}")
        if quantize_watts <= 0:
            raise ValueError(f"quantize_watts must be positive, got {quantize_watts}")
        self.server = server
        self.rng = rng
        self.noise_sigma = noise_sigma
        self.failure_rate = failure_rate
        self.quantize_watts = quantize_watts
        self.polls = 0
        self.timeouts = 0
        self._queued_u: Optional[float] = None
        self._queued_z: Optional[float] = None

    def queue_draws(self, u: Optional[float], z: Optional[float]) -> None:
        """Hand this endpoint its slice of a fleet sweep's draws."""
        self._queued_u = u
        self._queued_z = z

    def read_power(self) -> Optional[float]:
        """One poll: quantized noisy watts, or ``None`` on timeout.

        Uses queued draws when a sweep handed them over, else draws
        lazily, as a lone BMC conversation would.
        """
        u, z = self._queued_u, self._queued_z
        self._queued_u = self._queued_z = None
        self.polls += 1
        if self.failure_rate > 0:
            if u is None:
                u = self.rng.random()
            if u < self.failure_rate:
                self.timeouts += 1
                return None
        reading = self.server.power_watts()
        if self.noise_sigma > 0:
            if z is None:
                z = self.rng.standard_normal()
            reading *= 1.0 + self.noise_sigma * z
        quantized = round(reading / self.quantize_watts) * self.quantize_watts
        return max(0.0, quantized)


class IpmiFleetOracle:
    """``IpmiFleet.poll_all`` as a dict-building loop over endpoints.

    Draws follow the fleet contract one scalar at a time: every
    endpoint's timeout uniform, then every endpoint's noise normal.
    """

    def __init__(
        self,
        servers,
        rng: np.random.Generator,
        noise_sigma: float = 0.01,
        failure_rate: float = 0.001,
        max_fallback_polls: int = 5,
        quantize_watts: float = 1.0,
    ) -> None:
        self.servers = list(servers)
        self.rng = rng
        self.noise_sigma = noise_sigma
        self.failure_rate = failure_rate
        self.max_fallback_polls = max_fallback_polls
        self.endpoints: Dict[int, BmcEndpoint] = {
            s.server_id: BmcEndpoint(
                s,
                rng,
                noise_sigma=noise_sigma,
                failure_rate=failure_rate,
                quantize_watts=quantize_watts,
            )
            for s in self.servers
        }
        self.last_known = {s.server_id: s.power_params.idle_watts for s in self.servers}
        self.streak = {s.server_id: 0 for s in self.servers}
        self.stale_ids: set = set()
        self.total_polls = 0
        self.total_timeouts = 0
        self.fallbacks_used = 0
        self.stale_reads = 0

    def poll_all(self) -> Dict[int, float]:
        n = len(self.servers)
        us: List[Optional[float]] = [None] * n
        zs: List[Optional[float]] = [None] * n
        if self.failure_rate > 0:
            us = [self.rng.random() for _ in range(n)]
        if self.noise_sigma > 0:
            zs = [self.rng.standard_normal() for _ in range(n)]
        readings: Dict[int, float] = {}
        self.total_polls += n
        for pos, (server_id, endpoint) in enumerate(self.endpoints.items()):
            endpoint.queue_draws(us[pos], zs[pos])
            value = endpoint.read_power()
            if value is None:
                self.total_timeouts += 1
                self.streak[server_id] += 1
                if self.streak[server_id] > self.max_fallback_polls:
                    self.stale_ids.add(server_id)
                    self.stale_reads += 1
                    value = math.nan
                else:
                    self.fallbacks_used += 1
                    value = self.last_known[server_id]
            else:
                self.streak[server_id] = 0
                self.stale_ids.discard(server_id)
                self.last_known[server_id] = value
            readings[server_id] = value
        return readings


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
