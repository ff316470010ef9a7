"""Per-tenant accounting of control impact (frozen time, shed actions).

The accountant is a passive listener on the scheduler's control stream:
``freeze`` opens a per-server interval, ``unfreeze`` closes it, ``shed``
counts against the server's tenant. It consumes no randomness and never
schedules events, so attaching it leaves trajectories byte-identical --
which is what lets the tenancy-blind A/B arm be measured with the exact
same instrument as the fair arm.

At collection time, :meth:`TenancyAccountant.stats_snapshot` closes any
still-open intervals at the current simulation time and rolls the ledger
up into a picklable :class:`TenancyStats`, including Jain's index on
weight-normalized frozen time (see :mod:`repro.telemetry.fairness`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence, Tuple

from repro.telemetry import Telemetry, counter_series, jains_index
from repro.tenancy.config import TenancyConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine

FREEZE_EVENTS = counter_series(
    "repro_tenant_freeze_events_total",
    "freeze commands attributed to a tenant's servers",
    label="tenant",
)
SHED_EVENTS = counter_series(
    "repro_tenant_shed_events_total",
    "emergency shed actions attributed to a tenant's servers",
    label="tenant",
)


@dataclass(frozen=True)
class TenantStats:
    """One tenant's measured control impact over a run."""

    name: str
    sla: str
    share: float
    n_servers: int
    #: server-minutes this tenant's servers spent frozen
    frozen_server_minutes: float
    #: freeze commands that landed on this tenant's servers
    freeze_events: int
    #: emergency shed actions that hit this tenant's servers
    shed_events: int
    #: frozen server-minutes divided by the fairness weight -- the
    #: quantity the fair policy equalizes and Jain's index is read on
    normalized_frozen: float


@dataclass(frozen=True)
class TenancyStats:
    """Roll-up of a tenancy-enabled run (picklable, serializable)."""

    policy: str
    jain_index: float
    tenants: Tuple[TenantStats, ...]

    @property
    def total_frozen_server_minutes(self) -> float:
        return sum(t.frozen_server_minutes for t in self.tenants)

    @property
    def total_shed_events(self) -> int:
        return sum(t.shed_events for t in self.tenants)


class TenancyAccountant:
    """Attribute freeze/shed control actions to tenants as they happen."""

    def __init__(
        self,
        engine: "Engine",
        config: TenancyConfig,
        tenant_of: Mapping[int, str],
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.tenant_of = dict(tenant_of)
        telemetry = telemetry if telemetry is not None else Telemetry.disabled()
        self._frozen_seconds: Dict[str, float] = {
            name: 0.0 for name in config.names
        }
        self._freeze_events: Dict[str, int] = {name: 0 for name in config.names}
        self._shed_events: Dict[str, int] = {name: 0 for name in config.names}
        self._open_since: Dict[int, float] = {}
        self._n_servers: Dict[str, int] = {name: 0 for name in config.names}
        for tenant in self.tenant_of.values():
            if tenant in self._n_servers:
                self._n_servers[tenant] += 1
        telemetry.collect(self._metrics)

    def _metrics(self):
        for name in self.config.names:
            yield FREEZE_EVENTS(self._freeze_events[name], name)
            yield SHED_EVENTS(self._shed_events[name], name)

    def resolve(self, server_id: int) -> str:
        """Tenant name owning ``server_id`` (``"-"`` when untagged)."""
        return self.tenant_of.get(server_id, "-")

    # ------------------------------------------------------------------
    # scheduler.control_listeners signature: (action, server_ids)
    # ------------------------------------------------------------------
    def on_control_event(self, action: str, server_ids: Sequence[int]) -> None:
        """Book one action against every listed server, in order, in one
        loop (untagged servers are ignored)."""
        tenant_of = self.tenant_of
        now = self.engine.now
        if action == "freeze":
            open_since, events = self._open_since, self._freeze_events
            for server_id in server_ids:
                tenant = tenant_of.get(server_id)
                if tenant is not None:
                    open_since[server_id] = now
                    events[tenant] += 1
        elif action == "unfreeze":
            # only tagged servers hold an open interval
            open_since, seconds = self._open_since, self._frozen_seconds
            for server_id in server_ids:
                opened = open_since.pop(server_id, None)
                if opened is not None:
                    seconds[tenant_of[server_id]] += now - opened
        elif action == "shed":
            events = self._shed_events
            for server_id in server_ids:
                tenant = tenant_of.get(server_id)
                if tenant is not None:
                    events[tenant] += 1

    # ------------------------------------------------------------------
    def frozen_server_seconds(self, at: Optional[float] = None) -> Dict[str, float]:
        """Per-tenant frozen server-seconds, counting open intervals to
        ``at`` (default: the current simulation time)."""
        now = self.engine.now if at is None else float(at)
        totals = dict(self._frozen_seconds)
        for server_id, opened in self._open_since.items():
            tenant = self.tenant_of.get(server_id)
            if tenant is not None and now > opened:
                totals[tenant] += now - opened
        return totals

    def stats_snapshot(self) -> TenancyStats:
        """Roll the ledger up (open freeze intervals counted to now)."""
        weights = self.config.weights()
        seconds = self.frozen_server_seconds()
        tenants = []
        for spec in self.config.tenants:
            minutes = seconds[spec.name] / 60.0
            tenants.append(
                TenantStats(
                    name=spec.name,
                    sla=spec.sla,
                    share=spec.share,
                    n_servers=self._n_servers[spec.name],
                    frozen_server_minutes=minutes,
                    freeze_events=self._freeze_events[spec.name],
                    shed_events=self._shed_events[spec.name],
                    normalized_frozen=minutes / weights[spec.name],
                )
            )
        return TenancyStats(
            policy=self.config.policy,
            jain_index=jains_index([t.normalized_frozen for t in tenants]),
            tenants=tuple(tenants),
        )


__all__ = ["TenancyAccountant", "TenancyStats", "TenantStats"]
