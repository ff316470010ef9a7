"""Simulated IPMI/BMC power readings.

The paper's monitor "collects server-level power utilization, among other
metrics, through the intelligent platform management interface (IPMI)".
Real BMC reads are imperfect: readings are quantized to whole watts,
carry sensor noise, and occasionally time out. This layer models those
properties so the monitor's resilience path (carrying the last known
reading through a failed poll) is actually exercised.

RNG draw-order contract
-----------------------
A fleet sweep consumes the shared generator in a *fixed, batched*
order: first one uniform per endpoint (timeout lottery, drawn only when
the fleet's ``failure_rate`` is positive), then one standard normal per
endpoint (sensor noise, drawn only when ``noise_sigma`` is positive) --
each batch covering every endpoint in fleet order, including the ones
that time out. The sweep is one array expression over those batches and
is bit-identical to a per-endpoint loop that reads each BMC with its
slice of the draws (the scalar oracle in ``tests/oracles.py``).
"""

from __future__ import annotations

import logging
from typing import Optional, Set

import numpy as np

from repro.cluster.state import shared_state_of
from repro.telemetry import Telemetry, counter_series

logger = logging.getLogger(__name__)


POLLS = counter_series("repro_ipmi_polls_total", "BMC power polls issued", label="group")
TIMEOUTS = counter_series(
    "repro_ipmi_timeouts_total", "BMC power polls that timed out", label="group"
)
FALLBACKS = counter_series(
    "repro_ipmi_fallbacks_total", "Timed-out polls covered by the last known reading", label="group"
)
STALE_READS = counter_series(
    "repro_ipmi_stale_reads_total",
    "Polls returned as NaN because the endpoint exceeded its fallback budget",
    label="group",
)


class IpmiFleet:
    """All BMC endpoints of a fleet, with *bounded* last-known-value fallback.

    ``poll_all`` returns a complete power map even when individual reads
    time out: a failed poll reuses the server's last successful reading
    (or its idle power before any success), which is exactly what a
    production aggregation pipeline does rather than dropping the row.

    The carry-through is bounded: after ``max_fallback_polls``
    *consecutive* timeouts the endpoint is declared stale and reads NaN
    until a poll succeeds again. Replaying an arbitrarily old value
    forever would let a dead BMC (or a dead server behind it) keep
    reporting its last busy-hour wattage indefinitely -- exactly the kind
    of fiction a power controller must not steer on. Stale endpoints are
    listed in :attr:`stale_ids`.

    Sweep state (last-known values, timeout streaks, staleness) lives in
    fleet-order arrays, and the servers must share one
    :class:`~repro.cluster.state.ClusterState`: :meth:`poll_all` runs the
    whole sweep as array expressions over its columns.

    Parameters
    ----------
    noise_sigma:
        Relative standard deviation of sensor noise.
    failure_rate:
        Probability that a poll times out.
    quantize_watts:
        Reading resolution; IPMI power sensors report whole watts.
    """

    def __init__(
        self,
        servers,
        rng: np.random.Generator,
        noise_sigma: float = 0.01,
        failure_rate: float = 0.001,
        max_fallback_polls: int = 5,
        telemetry: Optional[Telemetry] = None,
        group: str = "",
        quantize_watts: float = 1.0,
    ) -> None:
        if max_fallback_polls < 0:
            raise ValueError(
                f"max_fallback_polls must be non-negative, got {max_fallback_polls}"
            )
        if noise_sigma < 0:
            raise ValueError(f"noise_sigma must be non-negative, got {noise_sigma}")
        if not 0.0 <= failure_rate < 1.0:
            raise ValueError(f"failure_rate must be in [0, 1), got {failure_rate}")
        if quantize_watts <= 0:
            raise ValueError(f"quantize_watts must be positive, got {quantize_watts}")
        self._servers = list(servers)
        if not self._servers:
            raise ValueError("IpmiFleet needs at least one server")
        self.rng = rng
        self.noise_sigma = noise_sigma
        self.failure_rate = failure_rate
        self.quantize_watts = quantize_watts
        self.max_fallback_polls = max_fallback_polls
        n = len(self._servers)
        self._server_ids = np.array(
            [s.server_id for s in self._servers], dtype=np.int64
        )
        self._last_known = np.array(
            [s.power_params.idle_watts for s in self._servers], dtype=np.float64
        )
        self._timeout_streak = np.zeros(n, dtype=np.int64)
        self._stale = np.zeros(n, dtype=bool)
        self._state, self._indices = shared_state_of(self._servers)
        self.fallbacks_used = 0
        self.stale_reads = 0
        self._polls = 0
        self._timeouts = 0
        #: endpoints read as stale (NaN) by the last sweep
        self.stale_count = 0
        self._group = group or None
        tel = telemetry if telemetry is not None else Telemetry.disabled()
        tel.collect(self._metrics)

    def _metrics(self):
        group = self._group
        yield POLLS(self._polls, group)
        yield TIMEOUTS(self._timeouts, group)
        yield FALLBACKS(self.fallbacks_used, group)
        yield STALE_READS(self.stale_reads, group)

    def _draw_batches(self):
        """One sweep's randomness, in contract order: uniforms then normals."""
        n = len(self._servers)
        us = self.rng.random(n) if self.failure_rate > 0 else None
        zs = self.rng.standard_normal(n) if self.noise_sigma > 0 else None
        return us, zs

    def poll_all(self) -> np.ndarray:
        """One sweep: readings in fleet order, NaN where stale.

        Timed-out polls carry the last known reading within the fallback
        budget. Per element the arithmetic is the scalar BMC read's
        (``np.rint`` is round-half-even like Python's ``round``).
        """
        us, zs = self._draw_batches()
        n = len(self._servers)
        self._polls += n
        true_powers = self._state.server_powers(self._indices)
        if zs is not None:
            readings = true_powers * (1.0 + self.noise_sigma * zs)
        else:
            readings = true_powers
        readings = np.rint(readings / self.quantize_watts) * self.quantize_watts
        readings = np.maximum(0.0, readings)
        if us is not None:
            timed_out = us < self.failure_rate
        else:
            timed_out = np.zeros(n, dtype=bool)
        success = ~timed_out
        n_timeouts = int(np.count_nonzero(timed_out))
        if n_timeouts:
            self._timeouts += n_timeouts
            self._timeout_streak[timed_out] += 1
        self._timeout_streak[success] = 0
        was_stale = self._stale
        # A stale endpoint's streak only resets on success, so staleness
        # is exactly "streak exceeded the fallback budget".
        stale = self._timeout_streak > self.max_fallback_polls
        for pos in np.flatnonzero(stale & ~was_stale):
            logger.warning(
                "BMC %d exceeded %d consecutive timeouts; endpoint is stale",
                int(self._server_ids[pos]),
                self.max_fallback_polls,
            )
        self._stale = stale
        fallback = timed_out & ~stale
        n_fallbacks = int(np.count_nonzero(fallback))
        n_stale = int(np.count_nonzero(stale))
        self.stale_count = n_stale
        if n_fallbacks:
            self.fallbacks_used += n_fallbacks
        if n_stale:
            self.stale_reads += n_stale
        self._last_known[success] = readings[success]
        out = readings.copy()
        out[fallback] = self._last_known[fallback]
        out[stale] = np.nan
        return out

    @property
    def stale_ids(self) -> Set[int]:
        """Server ids of endpoints currently stale (reading NaN)."""
        return {int(self._server_ids[pos]) for pos in np.flatnonzero(self._stale)}

    @property
    def total_polls(self) -> int:
        return self._polls

    @property
    def total_timeouts(self) -> int:
        return self._timeouts


__all__ = ["IpmiFleet"]
