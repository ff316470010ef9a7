"""Weighted max-min (DRF-style) allocation of freeze quota over tenants.

The dominant resource of the power plane is frozen capacity: every
server-interval a tenant spends frozen is capacity it cannot use. The
fairness-aware freeze policy therefore runs a weighted max-min
allocation over *cumulative* per-tenant frozen time: each control tick's
freeze quota is handed out one server at a time to the tenant whose
normalized burden -- ``(cumulative + granted) / weight`` -- is lowest,
exactly the greedy DRF step with frozen-server-intervals as the single
dominant resource.

The greedy gives the two properties the tests pin down:

- **conservation**: the per-tenant counts always sum to the full quota
  (clamped only by total capacity);
- **envy-freeness up to one server**: after allocation, no tenant with
  spare capacity could take a server from another tenant without the
  donor ending up strictly better normalized than the recipient was
  before the transfer -- burdens are equalized to within one grant.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.policy import FreezePolicy


def fair_freeze_counts(
    quota: int,
    order: Sequence[str],
    weights: Mapping[str, float],
    cumulative: Mapping[str, float],
    capacity: Mapping[str, int],
) -> Dict[str, int]:
    """Split a freeze quota across tenants by weighted max-min burden.

    Parameters
    ----------
    quota:
        Servers to freeze this tick (clamped to total capacity).
    order:
        Tenant names in declared order -- the deterministic tie-break.
    weights:
        Fairness weight per tenant (share x SLA freeze tolerance).
    cumulative:
        Frozen server-intervals each tenant has already absorbed.
    capacity:
        Freezable servers each tenant has available this tick.

    Returns
    -------
    dict
        Servers to freeze per tenant; ``sum(counts.values()) ==
        min(quota, sum(capacity.values()))``.
    """
    if quota < 0:
        raise ValueError(f"quota must be non-negative, got {quota}")
    counts = {name: 0 for name in order}
    quota = min(quota, sum(capacity.get(name, 0) for name in order))
    if quota == 0:
        return counts
    # The greedy hands each server to the tenant whose key -- (normalized
    # burden, declared rank) -- is lowest. A tenant's j-th grant comes at
    # burden (cumulative + j) / weight, increasing in j, so the greedy
    # merges the tenants' key sequences and grants exactly the quota
    # lowest keys of all. One sort of every tenant's first ``quota``
    # candidate keys finds them, with no Python loop per grant.
    burdens, ranks = [], []
    for rank, name in enumerate(order):
        grants = min(capacity.get(name, 0), quota)
        if grants > 0:
            burdens.append(
                (cumulative.get(name, 0.0) + np.arange(grants)) / weights[name]
            )
            ranks.append(np.full(grants, rank))
    burden, rank = np.concatenate(burdens), np.concatenate(ranks)
    granted = rank[np.lexsort((rank, burden))[:quota]]
    for index, count in enumerate(np.bincount(granted, minlength=len(order)).tolist()):
        counts[order[index]] = count
    return counts


class FairShareFreezePolicy(FreezePolicy):
    """Tenancy-aware freeze selection for the controller's policy seam.

    Each tick, the target freeze count is divided across tenants by
    :func:`fair_freeze_counts` over the policy's own cumulative
    frozen-interval ledger; within a tenant, currently frozen servers
    are kept first (hysteresis) and new picks go hottest-first, matching
    the paper's cost argument. The cumulative ledger is plain state and
    pickles with the controller, so snapshots resume byte-identically.

    Servers missing from ``tenant_of`` are grouped under ``"-"`` with
    weight 1.0, so a partially tagged row still produces a full plan.
    """

    UNTENANTED = "-"

    def __init__(
        self,
        tenant_of: Mapping[int, str],
        weights: Mapping[str, float],
        order: Sequence[str],
    ) -> None:
        unknown = set(tenant_of.values()) - set(order)
        if unknown:
            raise ValueError(f"tenants missing from order: {sorted(unknown)}")
        bad = [n for n in order if weights.get(n, 0.0) <= 0.0]
        if bad:
            raise ValueError(f"tenants need positive weights: {bad}")
        self.tenant_of = dict(tenant_of)
        self.weights = dict(weights)
        self.order = tuple(order)
        #: frozen server-intervals granted so far, the max-min burden
        self.cumulative: Dict[str, float] = {name: 0.0 for name in order}
        # Per-tick tenant-ordinal cache: the server population of a row
        # is stable across control ticks, so the sid -> tenant ordinal
        # mapping is resolved once and reused while the sid vector
        # matches (plain arrays; pickles with the controller).
        self._cached_sids: Optional[np.ndarray] = None
        self._cached_ordinals: Optional[np.ndarray] = None

    def _full_order(self) -> List[str]:
        if self.UNTENANTED in self.order:
            return list(self.order)
        return list(self.order) + [self.UNTENANTED]

    def plan(
        self,
        powers: np.ndarray,
        server_ids: np.ndarray,
        n_freeze: int,
        frozen: np.ndarray,
        r_stable: float = 0.8,
    ) -> np.ndarray:
        if n_freeze < 0:
            raise ValueError(f"n_freeze must be non-negative, got {n_freeze}")
        if not 0.0 < r_stable <= 1.0:
            raise ValueError(f"r_stable must be in (0, 1], got {r_stable}")
        n = len(powers)
        n_freeze = min(n_freeze, n)
        plan = np.zeros(n, dtype=bool)
        if n_freeze == 0:
            return plan

        if self._cached_sids is None or not np.array_equal(
            self._cached_sids, server_ids
        ):
            ordinal = {
                name: index
                for index, name in enumerate(self._full_order())
            }
            untenanted = ordinal[self.UNTENANTED]
            self._cached_ordinals = np.fromiter(
                (
                    ordinal.get(
                        self.tenant_of.get(int(sid), self.UNTENANTED),
                        untenanted,
                    )
                    for sid in server_ids
                ),
                dtype=np.int64,
                count=n,
            )
            self._cached_sids = np.array(server_ids)
        ordinals = self._cached_ordinals
        # Keep-frozen-first is the hysteresis: a frozen server stays in
        # its tenant's slice while the tenant's quota covers it, so the
        # per-tenant churn profile mirrors the r_stable band's intent.
        # lexsort's last key is primary; the full key (frozen-first,
        # hottest-first, sid) is a total order.
        ranked = np.lexsort((server_ids, -powers, ~frozen))
        ranked_ordinals = ordinals[ranked]
        order = self._full_order()
        weights = dict(self.weights)
        weights.setdefault(self.UNTENANTED, 1.0)
        per_tenant = np.bincount(ordinals, minlength=len(order))
        counts = fair_freeze_counts(
            n_freeze,
            order,
            weights,
            self.cumulative,
            {name: int(per_tenant[i]) for i, name in enumerate(order)},
        )
        for index, name in enumerate(order):
            take = counts.get(name, 0)
            if take:
                plan[ranked[ranked_ordinals == index][:take]] = True
                self.cumulative[name] = (
                    self.cumulative.get(name, 0.0) + take
                )
        return plan


__all__ = ["FairShareFreezePolicy", "fair_freeze_counts"]
