"""ServerGroup: a named set of servers with a power budget.

Rows, racks and the virtual experiment/control groups of the paper's
controlled experiments (Section 4.1.2) are all "a set of servers with a
provisioned power budget" from the point of view of the monitor and the
controller, so they share this base class.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.cluster.server import Server
from repro.cluster.state import shared_state_of


class ServerGroup:
    """A collection of servers sharing a provisioned power budget.

    Parameters
    ----------
    name:
        Human-readable identifier used in monitor series keys.
    servers:
        Member servers. Membership is fixed after construction.
    power_budget_watts:
        Provisioned budget ``P_M``. Defaults to the sum of member rated
        power (i.e. conservative rated-power provisioning, the paper's
        baseline). The experiment harness *scales this down* to emulate
        over-provisioning per Eq. 16 of the paper.
    """

    def __init__(
        self,
        name: str,
        servers: Iterable[Server],
        power_budget_watts: Optional[float] = None,
    ) -> None:
        self.name = name
        self.servers: List[Server] = list(servers)
        if not self.servers:
            raise ValueError(f"server group {name!r} must contain at least one server")
        # Every member lives in one ClusterState, so the group is a set
        # of slots in it and the hot loops are array expressions.
        self.state, self.state_indices = shared_state_of(self.servers)
        if power_budget_watts is None:
            power_budget_watts = self.rated_watts()
        if power_budget_watts <= 0:
            raise ValueError(
                f"power_budget_watts must be positive, got {power_budget_watts}"
            )
        self.power_budget_watts = float(power_budget_watts)

    def __len__(self) -> int:
        return len(self.servers)

    def __iter__(self):
        return iter(self.servers)

    # ------------------------------------------------------------------
    # Power
    # ------------------------------------------------------------------
    def power_watts(self) -> float:
        """Instantaneous true aggregate power of all member servers.

        Aggregated with sequential-``cumsum`` semantics, bit-identical to
        a left-to-right ``sum`` of the members' ``power_watts()``.
        """
        return self.state.total_power(self.state_indices)

    def server_powers(self) -> np.ndarray:
        """Per-server true power in member order (monitor hot path)."""
        return self.state.server_powers(self.state_indices)

    def rated_watts(self) -> float:
        """Sum of member rated power (the conservative provisioning base).

        Sequential ``cumsum``, like :meth:`power_watts`: bit-identical to
        a left-to-right ``sum`` of the members' ``rated_watts``.
        """
        return float(self.state.rated_watts[self.state_indices].cumsum()[-1])

    def normalized_power(self) -> float:
        """Aggregate power normalized to the provisioned budget ``P_M``."""
        return self.power_watts() / self.power_budget_watts

    def unused_power_watts(self) -> float:
        """The paper's Eq. 1: budget minus realtime power (can be negative)."""
        return self.power_budget_watts - self.power_watts()

    def set_over_provision_ratio(self, r_o: float) -> None:
        """Scale the budget down to emulate over-provisioning (Eq. 16).

        With budget ``P'_M = rated / (1 + r_O)``, the group behaves as if
        ``r_O`` extra servers-per-provisioned-server had been added to a
        fixed budget: ``r_O = P_M / P'_M - 1``.
        """
        if r_o < 0:
            raise ValueError(f"over-provision ratio must be non-negative, got {r_o}")
        self.power_budget_watts = self.rated_watts() / (1.0 + r_o)

    @property
    def over_provision_ratio(self) -> float:
        """Current ``r_O`` implied by the budget (0 when budget == rated)."""
        return self.rated_watts() / self.power_budget_watts - 1.0

    # ------------------------------------------------------------------
    # Freeze state
    # ------------------------------------------------------------------
    def frozen_servers(self) -> List[Server]:
        return [s for s in self.servers if s.frozen]

    def freezing_ratio(self) -> float:
        """Fraction of member servers currently frozen (the paper's u_t)."""
        return self.state.frozen_count(self.state_indices) / len(self.servers)

    def flag_masks(self) -> Dict[str, np.ndarray]:
        """The per-server flags as boolean columns in member order:
        ``frozen``, ``capped`` (``Server.is_capped``), ``failed`` and
        ``powered_off``, each gathered from the store in one read."""
        state, indices = self.state, self.state_indices
        return {
            "frozen": state.frozen[indices],
            "capped": state.capped_mask(indices),
            "failed": state.failed[indices],
            "powered_off": state.powered_off[indices],
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ServerGroup({self.name!r}, n={len(self.servers)}, "
            f"budget={self.power_budget_watts:.0f}W)"
        )


__all__ = ["ServerGroup"]
