"""Freeze-set selection: the server-choice half of Algorithm 1.

Given per-server power readings, the target number of servers to freeze
and the currently frozen set, compute the next frozen set. The paper
freezes the *highest-power* servers ("servers with lower power
utilization may have more computation capacity left and thus freezing
them may result in a higher cost") and adds hysteresis through
``r_stable``: a frozen server is only swapped out for another when that
other server's power exceeds ``r_stable`` times the freeze set's power
floor, which prevents freeze/unfreeze flapping on noisy readings.

A plan is made over a group's member arrays: readings, server ids and
the frozen mask in member order, and the plan is the next frozen mask.
The servers to thaw are ``frozen & ~plan`` and the servers to freeze
``plan & ~frozen``, so the controller sends at most one batch of each.
"""

from __future__ import annotations

import numpy as np


def plan_freeze_set(
    powers: np.ndarray,
    server_ids: np.ndarray,
    n_freeze: int,
    frozen: np.ndarray,
    r_stable: float = 0.8,
) -> np.ndarray:
    """One step of Algorithm 1's candidate-selection logic for a row.

    Parameters
    ----------
    powers:
        Power reading per member server (finite).
    server_ids:
        Member server ids, the tie-break between equal readings.
    n_freeze:
        Target size of the frozen set (already clamped by the caller to
        ``floor(u_t * n)`` and the operational ceiling).
    frozen:
        Boolean mask of the frozen set from the previous interval, ``S_f[k]``.
    r_stable:
        Stability ratio; servers whose power exceeds ``r_stable * min(S)``
        join the candidate set so that near-ties don't cause churn.

    Returns
    -------
    numpy.ndarray
        The next frozen mask, with ``min(n_freeze, len(powers))`` members.
    """
    if n_freeze < 0:
        raise ValueError(f"n_freeze must be non-negative, got {n_freeze}")
    if not 0.0 < r_stable <= 1.0:
        raise ValueError(f"r_stable must be in (0, 1], got {r_stable}")
    n_freeze = min(n_freeze, len(powers))
    plan = np.zeros(len(powers), dtype=bool)
    if n_freeze == 0:
        return plan

    # S <- n_freeze servers with highest power. Ties broken by id so the
    # plan is deterministic for identical readings.
    by_power_desc = np.lexsort((server_ids, -powers))

    # Stability band: any server within r_stable of the set's floor is an
    # acceptable member, so current members inside the band are kept.
    # Sorted descending, the band is a prefix of what follows the top.
    p_threshold = r_stable * powers[by_power_desc[n_freeze - 1]]
    in_band = powers[by_power_desc[n_freeze:]] > p_threshold
    n_candidates = n_freeze + int(np.count_nonzero(in_band))
    candidates = np.zeros(len(powers), dtype=bool)
    candidates[by_power_desc[:n_candidates]] = True

    # Frozen servers that fell out of the candidate set are unfrozen.
    kept = frozen & candidates
    n_kept = int(np.count_nonzero(kept))
    if n_kept > n_freeze:
        # Too many survivors: release the coldest surplus ("arbitrary" in
        # the paper; coldest-first minimizes capacity cost and is
        # deterministic).
        survivors = np.flatnonzero(kept)
        coldest = np.lexsort((-server_ids[survivors], powers[survivors]))
        kept[survivors[coldest[: n_kept - n_freeze]]] = False
        return kept
    # Fill up with the hottest non-frozen candidates.
    ranked = by_power_desc[:n_candidates]
    fill = ranked[~kept[ranked]][: n_freeze - n_kept]
    kept[fill] = True
    return kept


class FreezePolicy:
    """Pluggable freeze-set selection strategy.

    The controller calls :meth:`plan` once per control interval with the
    inputs :func:`plan_freeze_set` takes and sends the returned mask to
    the scheduler verbatim. This base class is the paper's tenancy-blind
    power-ordered selection; a subclass (the tenancy subsystem's
    :class:`~repro.tenancy.FairShareFreezePolicy`) overrides :meth:`plan`.
    Implementations must be deterministic (no RNG, no wall clock) and
    return a mask with ``min(n_freeze, len(powers))`` members.

    Policies may carry state between calls (e.g. per-tenant cumulative
    frozen time); that state is pickled with the controller, so a
    restored snapshot resumes byte-identically.
    """

    def plan(
        self,
        powers: np.ndarray,
        server_ids: np.ndarray,
        n_freeze: int,
        frozen: np.ndarray,
        r_stable: float = 0.8,
    ) -> np.ndarray:
        """Select the next frozen set for one row, as a member mask."""
        return plan_freeze_set(powers, server_ids, n_freeze, frozen, r_stable)


__all__ = [
    "FreezePolicy",
    "plan_freeze_set",
]
