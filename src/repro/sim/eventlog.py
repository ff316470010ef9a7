"""Structured log of control-plane actions.

Production power controllers need an audit trail: who froze what, when,
and what the hardware safety net did underneath. The log subscribes to
the scheduler's control hooks (freeze/unfreeze/fail/repair/shed) and to
per-server DVFS changes, timestamps everything against the simulation
clock, and supports range queries for post-mortems.

It keeps one record per server even when one call changed many (a group
freeze): :meth:`ControlEventLog.record_many` builds the records in bulk,
without a Python call per server.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import repeat
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence

from repro.cluster.server import Server
from repro.sim.engine import Engine
from repro.telemetry import Telemetry, counter_series

KNOWN_KINDS = (
    "freeze",
    "unfreeze",
    "fail",
    "repair",
    "cap",
    "uncap",
    #: emergency actions: breaker open/close (group-level, server_id -1)
    #: and supervisor load shedding
    "trip",
    "reset",
    "shed",
    #: fleet-coordinator budget reallocations (group-level, server_id -2)
    "budget",
)

#: kinds whose ``detail`` gains a ``tenant=<name>`` annotation (``-``
#: for an untagged server) -- the per-server allocation actions a
#: fairness post-mortem needs to attribute
TENANT_ANNOTATED_KINDS = frozenset({"freeze", "unfreeze", "shed"})

CONTROL_EVENTS = counter_series(
    "repro_control_events_total",
    "Control-plane actions recorded by the audit event log, by kind",
    label="kind",
)


class ControlEvent(NamedTuple):
    """One control action against one server (an immutable tuple)."""

    time: float
    kind: str
    server_id: int
    detail: str = ""


#: ``tenant=`` details of the untenanted log
_UNTENANTED = {"-": "tenant=-"}


class ControlEventLog:
    """Time-ordered record of every control action.

    One :class:`ControlEvent` per server and action, whether the
    scheduler reported the server alone or in a batch; the ``tenant=``
    detail strings are built once per tenant.
    """

    def __init__(
        self, engine: Engine, telemetry: Optional[Telemetry] = None
    ) -> None:
        self.engine = engine
        self.events: List[ControlEvent] = []
        #: events per kind, in first-seen order (kept as events append)
        self._counts: Dict[str, int] = {}
        tel = (
            telemetry
            if telemetry is not None
            else getattr(engine, "telemetry", None) or Telemetry.disabled()
        )
        tel.collect(self._metrics)
        #: server id -> tenant name (untagged servers are absent)
        self._tenant_of: Mapping[int, str] = {}
        #: tenant name -> its ``tenant=<name>`` detail, "-" included
        self._tenant_details: Dict[str, str] = _UNTENANTED

    def _metrics(self):
        counts = self.counts_by_kind()
        for kind in KNOWN_KINDS:
            yield CONTROL_EVENTS(counts.get(kind, 0), kind)

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def attach_tenants(self, tenant_of: Mapping[int, str]) -> None:
        """Annotate freeze/unfreeze/shed events with the owning tenant.

        ``tenant_of`` maps a server id to its tenant name; servers it
        does not name are marked ``"-"``. Annotation only fills an empty
        ``detail`` field, so caller-provided details always win.
        """
        self._tenant_of = tenant_of
        # sorted: a snapshot pickles the dict in insertion order
        names = sorted({*tenant_of.values(), "-"})
        self._tenant_details = {name: f"tenant={name}" for name in names}

    def record(self, kind: str, server_id: int, detail: str = "") -> None:
        """Log one action against one server (or a group-level id)."""
        if not detail:
            self.record_many(kind, (server_id,))
            return
        if kind not in KNOWN_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        self._append(ControlEvent(self.engine.now, kind, server_id, detail))

    def record_many(self, kind: str, server_ids: Sequence[int]) -> None:
        """Log one action against each of ``server_ids``, in order, at the
        current time: the scheduler's control-listener entry point.

        Every freeze/unfreeze/shed is attributed: the tenant name on a
        tenanted run, ``"-"`` otherwise, so the operator-facing format
        never depends on the run's config. Other kinds get no detail.
        """
        if kind not in KNOWN_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        if not server_ids:
            return
        if kind in TENANT_ANNOTATED_KINDS:
            tenants = map(self._tenant_of.get, server_ids, repeat("-"))
            details = map(self._tenant_details.__getitem__, tenants)
        else:
            details = repeat("")
        rows = zip(repeat(self.engine.now), repeat(kind), server_ids, details)
        self.events.extend(map(tuple.__new__, repeat(ControlEvent), rows))
        self._counts[kind] = self._counts.get(kind, 0) + len(server_ids)

    def _append(self, event: ControlEvent) -> None:
        self._counts[event.kind] = self._counts.get(event.kind, 0) + 1
        self.events.append(event)

    def attach_scheduler(self, scheduler) -> None:
        """Subscribe to a scheduler's freeze/unfreeze/fail/repair/shed hooks."""
        scheduler.control_listeners.append(self.record_many)

    def attach_servers(self, servers: Iterable[Server]) -> None:
        """Subscribe to DVFS changes (capping activity) on servers."""
        for server in servers:
            server.frequency_listeners.append(self._on_frequency_change)

    def _on_frequency_change(self, server: Server, old: float, new: float) -> None:
        kind = "cap" if new < old else "uncap"
        self._append(
            ControlEvent(
                self.engine.now, kind, server.server_id, f"{old:.2f}->{new:.2f}"
            )
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def between(self, start: float, end: float) -> List[ControlEvent]:
        """Events with ``start <= time < end`` (log is append-ordered)."""
        times = [e.time for e in self.events]
        lo = bisect_left(times, start)
        hi = bisect_left(times, end)
        return self.events[lo:hi]

    def counts_by_kind(self) -> Dict[str, int]:
        """Events per kind, in first-seen order."""
        return dict(self._counts)


__all__ = [
    "ControlEvent",
    "ControlEventLog",
    "KNOWN_KINDS",
    "TENANT_ANNOTATED_KINDS",
]
