"""Fairness metrics over per-tenant allocations.

Jain's fairness index over a vector of non-negative allocations::

    J(x) = (sum x)^2 / (n * sum x^2)

ranges from ``1/n`` (one tenant absorbs everything) to ``1.0`` (perfect
equality). The tenancy subsystem evaluates it on *normalized* frozen
time -- per-tenant frozen server-time divided by the tenant's fairness
weight -- so a perfectly fair policy scores 1.0 regardless of how skewed
the entitlements themselves are.
"""

from __future__ import annotations

from typing import Sequence


def jains_index(values: Sequence[float]) -> float:
    """Jain's fairness index of ``values``; 1.0 for empty/all-zero input.

    An all-zero vector means nothing was allocated at all, which is
    vacuously fair -- returning 1.0 keeps short runs (no freezing before
    warm-up) from reading as maximally unfair.
    """
    xs = [float(v) for v in values]
    if any(v < 0 for v in xs):
        raise ValueError(f"allocations must be non-negative, got {xs}")
    peak = max(xs, default=0.0)
    if peak == 0.0:
        return 1.0
    # Scale by the largest value first: the index is scale-free, and
    # squares of tiny values would otherwise lose precision or
    # underflow (2.8e-160 squared is subnormal).
    xs = [v / peak for v in xs]
    total = sum(xs)
    return (total * total) / (len(xs) * sum(v * v for v in xs))


__all__ = ["jains_index"]
