"""Simulated physical substrate: servers, racks, rows, PDUs and capping.

The paper's controller observes and manages power at the row level; the
classes here model the power behaviour of that hardware. The substitution
for real IPMI-instrumented machines is documented in DESIGN.md: a server's
power is an affine function of its task utilization and DVFS frequency,
with measurement noise added by the monitor (not here), so the controller
sees the same minute-granularity, noisy, aggregated signal it sees in
production.
"""

from repro.cluster.power import PowerModelParams, server_power_watts
from repro.cluster.server import Server
from repro.cluster.rack import Rack
from repro.cluster.row import Row
from repro.cluster.group import ServerGroup
from repro.cluster.datacenter import (
    DataCenter,
    ServerSpec,
    build_row,
    build_heterogeneous_row,
    build_datacenter,
)
from repro.cluster.capping import CappingEngine, CappingStats
from repro.cluster.breaker import BreakerCurve, BreakerStats, RowBreaker
from repro.cluster.state import ClusterState, shared_state_of

__all__ = [
    "BreakerCurve",
    "BreakerStats",
    "RowBreaker",
    "ClusterState",
    "shared_state_of",
    "PowerModelParams",
    "server_power_watts",
    "Server",
    "Rack",
    "Row",
    "ServerGroup",
    "DataCenter",
    "ServerSpec",
    "build_row",
    "build_heterogeneous_row",
    "build_datacenter",
    "CappingEngine",
    "CappingStats",
]
