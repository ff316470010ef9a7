"""Tenant model: SLA classes, shares, entitlements and builtin mixes.

A :class:`TenantSpec` names one tenant, its SLA class and its *share* --
the fraction of the row's capacity (servers and workload) the tenant is
entitled to. A :class:`TenancyConfig` is an ordered set of tenants plus
the freeze-fairness policy to run (``fair`` or the tenancy-``blind``
baseline used as the A/B control arm).

Fairness weights combine the share with the SLA class's *freeze
tolerance*: a ``critical`` tenant tolerates a quarter of its
share-proportional frozen time, ``batch`` tolerates double. The
fairness-aware policies target frozen time proportional to
``share * tolerance``, so normalized frozen time (frozen / weight) comes
out equal across tenants -- that is what Jain's index is computed on.

Everything here is a pure function of its inputs: server-to-tenant
assignment consumes no RNG, so enabling tenancy never perturbs any other
random stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Sequence, Tuple

#: recognized SLA classes, most to least freeze-averse
SLA_CLASSES = ("critical", "standard", "batch")

#: how much frozen time an SLA class tolerates, relative to its share
#: (multiplied into the fairness weight: critical tenants should absorb
#: a quarter of their share-proportional frozen time, batch double)
SLA_FREEZE_TOLERANCE = {"critical": 0.25, "standard": 1.0, "batch": 2.0}

#: freeze-selection policies a tenancy-enabled run can use ("blind" is
#: the tenancy-ignorant baseline, the control arm of the A/B)
TENANCY_POLICIES = ("fair", "blind")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a name, an SLA class and a capacity share."""

    name: str
    sla: str = "standard"
    share: float = 1.0

    def __post_init__(self) -> None:
        if not self.name or "=" in self.name or "," in self.name:
            raise ValueError(f"invalid tenant name {self.name!r}")
        if self.sla not in SLA_CLASSES:
            raise ValueError(
                f"unknown SLA class {self.sla!r}; expected one of {SLA_CLASSES}"
            )
        if self.share <= 0:
            raise ValueError(f"share must be positive, got {self.share}")

    @property
    def freeze_weight(self) -> float:
        """Fairness weight: share scaled by the SLA freeze tolerance."""
        return self.share * SLA_FREEZE_TOLERANCE[self.sla]


@dataclass(frozen=True)
class TenancyConfig:
    """An ordered tenant mix plus the freeze-fairness policy to apply."""

    tenants: Tuple[TenantSpec, ...] = field(default_factory=tuple)
    #: "fair" runs the weighted max-min freeze policy; "blind" keeps the
    #: paper's power-ordered selection but still tags and accounts per
    #: tenant (the A/B baseline)
    policy: str = "fair"

    def __post_init__(self) -> None:
        object.__setattr__(self, "tenants", tuple(self.tenants))
        if not self.tenants:
            raise ValueError("tenancy needs at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        if self.policy not in TENANCY_POLICIES:
            raise ValueError(
                f"unknown tenancy policy {self.policy!r}; "
                f"expected one of {TENANCY_POLICIES}"
            )

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(t.name for t in self.tenants)

    def weights(self) -> Dict[str, float]:
        """Fairness weight per tenant (share x SLA freeze tolerance)."""
        return {t.name: t.freeze_weight for t in self.tenants}

    def entitlements(self) -> Dict[str, float]:
        """Share of capacity per tenant, normalized to sum to 1."""
        total = sum(t.share for t in self.tenants)
        return {t.name: t.share / total for t in self.tenants}


def assign_to_tenants(
    items: Sequence[Hashable], config: TenancyConfig
) -> Dict[Hashable, str]:
    """Deterministic share-weighted interleave of ``items`` over tenants.

    Walks ``items`` in the given order and hands each to the tenant with
    the lowest filled fraction of its share (ties broken by declared
    tenant order), so any prefix of the assignment is as close to the
    share proportions as integer counts allow. Used for servers (by
    sorted id) and fleet rows (by position); pure and RNG-free.
    """
    counts = {t.name: 0 for t in config.tenants}
    order = {t.name: i for i, t in enumerate(config.tenants)}
    shares = {t.name: t.share for t in config.tenants}
    assignment: Dict[Hashable, str] = {}
    for item in items:
        name = min(
            counts,
            key=lambda n: ((counts[n] + 1) / shares[n], order[n]),
        )
        counts[name] += 1
        assignment[item] = name
    return assignment


def builtin_mixes() -> Dict[str, TenancyConfig]:
    """Named tenant mixes selectable from the CLI (``--tenants``)."""
    return {
        # The representative facility: a small latency-critical tenant,
        # a standard production tenant and an opportunistic batch tier.
        "three-tier": TenancyConfig(
            tenants=(
                TenantSpec("alpha", sla="critical", share=0.2),
                TenantSpec("bravo", sla="standard", share=0.5),
                TenantSpec("charlie", sla="batch", share=0.3),
            )
        ),
        # Two equal standard tenants: fairness should be trivially even.
        "even-pair": TenancyConfig(
            tenants=(
                TenantSpec("left", sla="standard", share=0.5),
                TenantSpec("right", sla="standard", share=0.5),
            )
        ),
        # Maximum SLA contrast at equal shares: the blind policy freezes
        # both tenants alike while the weights differ 8x, so this mix
        # shows the largest Jain-index delta in the A/B.
        "critical-batch": TenancyConfig(
            tenants=(
                TenantSpec("prod", sla="critical", share=0.5),
                TenantSpec("backfill", sla="batch", share=0.5),
            )
        ),
    }


__all__ = [
    "SLA_CLASSES",
    "SLA_FREEZE_TOLERANCE",
    "TENANCY_POLICIES",
    "TenancyConfig",
    "TenantSpec",
    "assign_to_tenants",
    "builtin_mixes",
]
