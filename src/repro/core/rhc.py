"""Receding-horizon control: the PCP and SPCP of Section 3.6.

All power quantities are normalized to the provisioned budget ``P_M``
(so ``P_M == 1.0`` in these equations, as in the paper's Table 1).

The Power Control Problem (PCP) minimizes total freezing
``C(U_t) = sum_k u_k`` over a horizon of N intervals subject to
``P_{k+1} = P_k + E_k - f(u_k) <= P_M`` and ``0 <= u_k <= 1``. With the
empirically linear freeze effect ``f(u) = k_r * u`` the problem reduces
(Lemma 3.1) to solving the one-step SPCP at each interval:

    u_t = max(min((P_t + E_t - P_M) / k_r, 1.0), 0.0)        (Eq. 13)

Both the closed-form SPCP and the iterated-SPCP construction of the
optimal PCP sequence are implemented here. ``tests/oracles.py`` holds the
references they are checked against: the PCP cost, the Eq. 8 power
trajectory and a bisection SPCP for any monotone ``f`` (the paper notes
PCP does not require linearity).
"""

from __future__ import annotations

import math
from typing import List, Sequence


def spcp_optimal_ratio(
    p_t: float,
    e_t: float,
    k_r: float,
    p_m: float = 1.0,
    u_max: float = 1.0,
) -> float:
    """Optimal freezing ratio of the simplified PCP (Eq. 13).

    Parameters
    ----------
    p_t:
        Current row power, normalized to the budget.
    e_t:
        Predicted power increase over the next interval (normalized).
    k_r:
        Slope of the linear freeze-effect model ``f(u) = k_r * u``.
    p_m:
        Power limit (1.0 when working in normalized units).
    u_max:
        Operational ceiling on the freezing ratio (the paper's 50% limit).
        The paper's Eq. 13 uses ``u_max = 1.0``; production clamps lower.
    """
    if k_r <= 0:
        raise ValueError(f"k_r must be positive, got {k_r}")
    if not 0.0 < u_max <= 1.0:
        raise ValueError(f"u_max must be in (0, 1], got {u_max}")
    if not (math.isfinite(p_t) and math.isfinite(e_t)):
        # A NaN/inf reading reaching the optimizer means an upstream
        # staleness guard failed; refusing loudly beats a silent clamp
        # that would freeze nothing (NaN compares false everywhere).
        raise ValueError(f"non-finite SPCP inputs: p_t={p_t}, e_t={e_t}")
    unclamped = (p_t + e_t - p_m) / k_r
    return max(min(unclamped, u_max), 0.0)


def threshold_ratio(e_t: float, p_m: float = 1.0) -> float:
    """The r_threshold of Algorithm 1: control engages when P_t exceeds it.

    The safety margin is ``[P_M - E_t, P_M]`` (Figure 6): below
    ``P_M - E_t`` even the predicted worst-case increase cannot violate
    the budget, so no control is needed.
    """
    return p_m - e_t


def pcp_optimal_sequence(
    p_t: float,
    e_sequence: Sequence[float],
    k_r: float,
    p_m: float = 1.0,
    u_max: float = 1.0,
) -> List[float]:
    """Optimal control sequence for the N-step PCP via iterated SPCP.

    Lemma 3.1: with linear ``f``, solving the one-step SPCP at each step of
    the horizon (propagating the resulting power forward) yields an optimal
    solution of the full PCP. Raises ``ValueError`` when no feasible
    solution exists within ``u_max`` (power would exceed the budget even
    with maximal freezing).
    """
    controls: List[float] = []
    power = p_t
    for step, e_k in enumerate(e_sequence):
        u_k = spcp_optimal_ratio(power, e_k, k_r, p_m=p_m, u_max=u_max)
        next_power = power + e_k - k_r * u_k
        if next_power > p_m + 1e-9:
            raise ValueError(
                f"PCP infeasible at step {step}: power {next_power:.4f} "
                f"exceeds limit {p_m} even at u_max={u_max}"
            )
        controls.append(u_k)
        power = next_power
    return controls


__all__ = [
    "spcp_optimal_ratio",
    "threshold_ratio",
    "pcp_optimal_sequence",
]
