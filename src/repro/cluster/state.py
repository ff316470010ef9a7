"""Struct-of-arrays cluster state store: the single source of truth.

Facility-scale experiments (10k-100k servers) cannot afford a Python
object per hot-path read: one monitor sweep over 100k ``Server`` objects
costs tens of milliseconds of attribute chasing before any physics
happens. :class:`ClusterState` keeps every server's dynamic state
(utilization, DVFS frequency, frozen/failed/energized flags, cached
power) in dense NumPy columns; :class:`~repro.cluster.server.Server`,
:class:`~repro.cluster.row.Row` and the other ``ServerGroup`` layers are
thin views over slots in one shared store, so the established object API
is unchanged at its seams while the hot loops -- power aggregation, the
monitor sweep and capping's victim orders -- are array expressions over
the columns.

One path, three numerical contracts, pinned by oracles
------------------------------------------------------
There is one production path: the array expressions. The per-server
Python loops they replaced live on in ``tests/oracles.py`` as reference
oracles, and ``tests/test_backend_equivalence.py`` checks production
against them loop by loop, plus every pinned run against a recorded
sha256 digest (``tests/golden/trajectory_digests.json``). Three numerical
contracts keep the array path bit-identical to the scalar model:

1. *Elementwise power* replicates the scalar op order of
   :func:`~repro.cluster.power.server_power_watts` exactly. ``x ** e``
   on a float64 array is bit-identical to CPython's scalar ``**`` for
   the exponents used by real SKUs (0.0, 1.0, 2.0 -- both route to a
   correctly-rounded pow); any other exponent takes an exact per-element
   scalar fallback rather than NumPy's SIMD pow, which is *not*
   correctly rounded.
2. *Aggregation* uses ``cumsum()[-1]``, whose strictly sequential
   left-to-right additions match Python's built-in ``sum`` bit-for-bit
   (``np.sum``'s pairwise reduction does not).
3. *RNG batching*: ``Generator.random(n)`` / ``standard_normal(n)``
   consume the underlying bit stream exactly like ``n`` scalar draws,
   so batched noise is draw-order-compatible by construction.

Every group and tracker reads one store: servers registered
with different stores are rejected (:func:`shared_state_of`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.power import PowerModelParams

#: Exponents for which NumPy's vectorized ``**`` is bit-identical to
#: CPython's scalar ``**`` (verified: both are correctly rounded there).
_NUMPY_EXACT_EXPONENTS = (0.0, 1.0, 2.0)


def _exact_pow(base: np.ndarray, exponent: float) -> np.ndarray:
    """``base ** exponent`` with CPython scalar-`**` bit semantics."""
    if exponent == 1.0:
        return base
    if exponent in _NUMPY_EXACT_EXPONENTS:
        return base**exponent
    # Exotic exponent: NumPy's SIMD pow may differ in the last ulp from
    # libm; fall back to exact scalar semantics (rare SKUs only).
    return np.array([b**exponent for b in base.tolist()], dtype=np.float64)


class ClusterState:
    """Dense columnar state for a set of servers.

    Servers register at construction via :meth:`add_server` and receive a
    stable integer slot. Columns grow by doubling; references to column
    arrays must therefore be re-read from the store after registration
    (views never cache columns across ``add_server`` calls).

    Columns
    -------
    Static per-server parameters (written once at registration):
    ``server_ids``, ``cores``, ``memory_gb``, ``background_utilization``,
    ``idle_watts``, ``dynamic_watts``, ``rated_watts``, ``util_exp``,
    ``freq_exp``.

    Dynamic state (the authoritative values behind ``Server`` fields):
    ``used_cores``, ``used_memory_gb``, ``frequency``, ``frozen``,
    ``failed``, ``powered_off``, ``jobs_started``, ``jobs_completed``.

    Derived cache: ``power_cache`` (watts) valid where ``power_valid``.
    A mask mutation (e.g. :meth:`fail_servers`) invalidates exactly what
    a per-object mutation would, so the capped-time accounting cannot
    drift through batching.

    ``fit_index_of`` maps each slot to the placement fit index that
    covers it (see :mod:`repro.scheduler.resources`), or ``None``.
    ``Server`` mutations and :meth:`set_frozen` keep that index exact;
    :meth:`fail_servers` and :meth:`repair_servers` write the columns
    only, so a fit index over their slots drifts (the auditor's
    ``index`` check reports it). The list is derived state: it is not
    pickled and restores empty.
    """

    _FLOAT_COLUMNS = (
        "cores",
        "memory_gb",
        "background_utilization",
        "idle_watts",
        "dynamic_watts",
        "rated_watts",
        "util_exp",
        "freq_exp",
        "used_cores",
        "used_memory_gb",
        "frequency",
        "power_cache",
    )
    _BOOL_COLUMNS = ("frozen", "failed", "powered_off", "power_valid")
    _INT_COLUMNS = ("server_ids", "jobs_started", "jobs_completed", "tenant_ids")

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.n = 0
        for name in self._FLOAT_COLUMNS:
            setattr(self, name, np.zeros(capacity, dtype=np.float64))
        for name in self._BOOL_COLUMNS:
            setattr(self, name, np.zeros(capacity, dtype=bool))
        for name in self._INT_COLUMNS:
            setattr(self, name, np.zeros(capacity, dtype=np.int64))
        # Uniform-exponent fast path: ``None`` until the first server,
        # ``False`` once SKUs with differing exponents are mixed.
        self._uniform_util_exp: Optional[float] = None
        self._uniform_freq_exp: Optional[float] = None
        self._mixed_util_exp = False
        self._mixed_freq_exp = False
        self.fit_index_of: List[Optional[object]] = [None] * capacity

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["fit_index_of"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.fit_index_of = [None] * len(self.cores)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return len(self.cores)

    def _grow(self, minimum: int) -> None:
        new_capacity = max(minimum, 2 * self.capacity)
        for name in self._FLOAT_COLUMNS + self._BOOL_COLUMNS + self._INT_COLUMNS:
            old = getattr(self, name)
            grown = np.zeros(new_capacity, dtype=old.dtype)
            grown[: self.n] = old[: self.n]
            setattr(self, name, grown)
        self.fit_index_of.extend([None] * (new_capacity - len(self.fit_index_of)))

    def add_server(
        self,
        server_id: int,
        cores: float,
        memory_gb: float,
        power_params: "PowerModelParams",
        background_utilization: float,
    ) -> int:
        """Register one server; returns its slot index.

        Inputs are assumed validated by the caller (``Server.__init__``
        keeps its historical validation).
        """
        if self.n >= self.capacity:
            self._grow(self.n + 1)
        i = self.n
        self.server_ids[i] = server_id
        self.cores[i] = cores
        self.memory_gb[i] = memory_gb
        self.background_utilization[i] = background_utilization
        self.idle_watts[i] = power_params.idle_watts
        self.dynamic_watts[i] = power_params.dynamic_watts
        self.rated_watts[i] = power_params.rated_watts
        self.util_exp[i] = power_params.utilization_exponent
        self.freq_exp[i] = power_params.frequency_power_exponent
        self.frequency[i] = 1.0
        self._note_exponent(power_params)
        self.n += 1
        return i

    def _note_exponent(self, power_params: "PowerModelParams") -> None:
        ue = float(power_params.utilization_exponent)
        fe = float(power_params.frequency_power_exponent)
        if self._uniform_util_exp is None:
            self._uniform_util_exp = ue
        elif self._uniform_util_exp != ue:
            self._mixed_util_exp = True
        if self._uniform_freq_exp is None:
            self._uniform_freq_exp = fe
        elif self._uniform_freq_exp != fe:
            self._mixed_freq_exp = True

    # ------------------------------------------------------------------
    # Vectorized math (the hot loops)
    # ------------------------------------------------------------------
    def utilization_of(self, indices: np.ndarray) -> np.ndarray:
        """Per-server utilization, identical to ``Server.utilization``."""
        task_util = self.used_cores[indices] / self.cores[indices]
        return np.minimum(1.0, self.background_utilization[indices] + task_util)

    def _pow_column(
        self,
        base: np.ndarray,
        exponents: np.ndarray,
        uniform: Optional[float],
        mixed: bool,
    ) -> np.ndarray:
        if not mixed and uniform is not None:
            return _exact_pow(base, uniform)
        out = np.empty_like(base)
        for exponent in np.unique(exponents):
            mask = exponents == exponent
            out[mask] = _exact_pow(base[mask], float(exponent))
        return out

    def server_powers(self, indices: np.ndarray) -> np.ndarray:
        """True power draw per server, bit-identical to the scalar model.

        Replicates the op order of
        :func:`~repro.cluster.power.server_power_watts`:
        ``idle + (dynamic * util**ue) * freq**fe`` with dark (failed or
        powered-off) servers drawing exactly 0.0 W. The shared
        ``power_cache`` is *not* consulted: recomputation is cheaper than
        a gather-and-merge and yields the same bits (power is a pure
        function of the state columns).
        """
        util = self.utilization_of(indices)
        u_pow = self._pow_column(
            util, self.util_exp[indices], self._uniform_util_exp, self._mixed_util_exp
        )
        f_pow = self._pow_column(
            self.frequency[indices],
            self.freq_exp[indices],
            self._uniform_freq_exp,
            self._mixed_freq_exp,
        )
        powers = self.idle_watts[indices] + self.dynamic_watts[indices] * u_pow * f_pow
        dark = self.failed[indices] | self.powered_off[indices]
        if dark.any():
            powers = powers.copy() if powers.base is not None else powers
            powers[dark] = 0.0
        return powers

    def total_power(self, indices: np.ndarray) -> float:
        """Aggregate power with Python-``sum`` bit semantics.

        ``cumsum`` adds strictly left to right, matching the scalar
        ``sum(s.power_watts() for s in servers)`` bit-for-bit;
        ``np.sum``'s pairwise tree would differ in the last ulp.
        """
        powers = self.server_powers(indices)
        if powers.size == 0:
            return 0.0
        return float(powers.cumsum()[-1])

    def live_mask(self, indices: np.ndarray) -> np.ndarray:
        """Servers that are neither failed nor powered off."""
        return ~(self.failed[indices] | self.powered_off[indices])

    def capped_mask(self, indices: np.ndarray) -> np.ndarray:
        """Servers below full DVFS frequency (``Server.is_capped``)."""
        return self.frequency[indices] < 1.0

    def frozen_count(self, indices: np.ndarray) -> int:
        return int(np.count_nonzero(self.frozen[indices]))

    # ------------------------------------------------------------------
    # Vectorized mutations
    # ------------------------------------------------------------------
    def invalidate_power(self, indices) -> None:
        """Drop cached power for the given slots (scalar index or array)."""
        self.power_valid[indices] = False

    def fail_servers(self, indices) -> None:
        """Mask-apply ``Server.fail()`` semantics to many servers at once.

        Mirrors the scalar path exactly: the machine goes dark *and*
        loses its DVFS state (it will POST at full frequency), so a
        capped server that fails mid-tick stops accruing capped time.
        Listeners are not notified -- there are no running jobs left to
        re-time on a dark machine, and the caller (scheduler/injector)
        owns the kill-and-resubmit bookkeeping.
        """
        self.failed[indices] = True
        self.frequency[indices] = 1.0
        self.power_valid[indices] = False

    def repair_servers(self, indices) -> None:
        """Mask-apply ``Server.repair()``: back, empty, full frequency."""
        self.failed[indices] = False
        self.frequency[indices] = 1.0
        self.power_valid[indices] = False

    def set_frozen(self, indices, frozen: bool) -> None:
        """Mask-apply freeze/unfreeze to ``indices`` (a slot or an array).

        Power-neutral (the cache is untouched). Each slot's refit is
        queued in the fit index covering it, as ``Server.frozen`` does
        for one slot, so placement draws stay exact.
        """
        self.frozen[indices] = frozen
        slots = np.asarray(indices).ravel().tolist()
        fits = set(map(self.fit_index_of.__getitem__, slots)) - {None}
        for fit in fits:
            if len(fits) > 1:  # slots of several indexes: each gets its own
                stop = fit.first + fit.n
                fit.pending.update([s for s in slots if fit.first <= s < stop])
            else:
                fit.pending.update(slots)

    def set_tenant(self, indices, tenant_id: int) -> None:
        """Tag slots with a tenant ordinal (0 = untenanted, the default).

        Tenant ids are 1-based positions in the run's
        :class:`~repro.tenancy.TenancyConfig` tenant order; the mapping
        back to names lives with the config, keeping the hot columns
        free of Python objects. Tagging is observational only -- no hot
        loop branches on it -- so writes never invalidate power.
        """
        if tenant_id < 0:
            raise ValueError(f"tenant_id must be non-negative, got {tenant_id}")
        self.tenant_ids[indices] = tenant_id

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Total bytes held by the state columns (capacity included)."""
        return int(
            sum(
                getattr(self, name).nbytes
                for name in (
                    self._FLOAT_COLUMNS + self._BOOL_COLUMNS + self._INT_COLUMNS
                )
            )
        )

    def bytes_per_server(self) -> float:
        """Column bytes per registered server (the scaling-gate metric)."""
        return self.nbytes / self.n if self.n else 0.0

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ClusterState(n={self.n}, capacity={self.capacity}, "
            f"{self.nbytes / 1024:.0f} KiB)"
        )


def shared_state_of(servers: Sequence) -> Tuple[ClusterState, np.ndarray]:
    """The one store behind ``servers`` and their slot indices.

    Every production builder registers a group's servers with one store;
    servers from different stores are rejected rather than served by a
    slower per-object path. ``servers`` must not be empty.
    """
    state = servers[0]._state
    indices = []
    for server in servers:
        if server._state is not state:
            raise ValueError("servers must share one ClusterState")
        indices.append(server._index)
    return state, np.asarray(indices, dtype=np.intp)


__all__ = ["ClusterState", "shared_state_of"]
