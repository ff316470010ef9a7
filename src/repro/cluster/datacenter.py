"""DataCenter topology and construction helpers.

The paper's reference topology: the data-center power budget is statically
partitioned into dozens of row-level PDUs; each row feeds ~20 racks of ~40
servers (250 W rated, 10 kW rack budget), i.e. ~800 servers per row. The
helpers below build arbitrarily scaled versions of that topology with
stable, globally unique server ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.cluster.group import ServerGroup
from repro.cluster.power import PowerModelParams
from repro.cluster.rack import Rack
from repro.cluster.row import Row
from repro.cluster.server import Server
from repro.cluster.state import ClusterState


@dataclass(frozen=True)
class ServerSpec:
    """A hardware SKU for heterogeneous fleets.

    Real fleets mix server generations; the controller is agnostic to this
    (it ranks servers by absolute watts), but the simulator must model it
    to check that claim.
    """

    cores: int = 16
    memory_gb: float = 64.0
    power_params: PowerModelParams = PowerModelParams()
    background_utilization: float = 0.05

    def build(self, server_id: int, state: Optional[ClusterState] = None) -> Server:
        return Server(
            server_id,
            cores=self.cores,
            memory_gb=self.memory_gb,
            power_params=self.power_params,
            background_utilization=self.background_utilization,
            state=state,
        )


class DataCenter(ServerGroup):
    """The full facility: a set of rows under one design power budget."""

    def __init__(
        self,
        rows: Iterable[Row],
        power_budget_watts: Optional[float] = None,
    ) -> None:
        self.rows: List[Row] = list(rows)
        if not self.rows:
            raise ValueError("data center must contain at least one row")
        servers = [s for row in self.rows for s in row.servers]
        if power_budget_watts is None:
            power_budget_watts = sum(r.power_budget_watts for r in self.rows)
        super().__init__("datacenter", servers, power_budget_watts)

    @property
    def racks(self) -> List[Rack]:
        return [rack for row in self.rows for rack in row.racks]


def build_row(
    row_id: int,
    racks: int = 10,
    servers_per_rack: int = 40,
    power_params: PowerModelParams = PowerModelParams(),
    cores: int = 16,
    memory_gb: float = 64.0,
    first_server_id: int = 0,
    breaker_trip_ratio: float = 1.10,
    state: Optional[ClusterState] = None,
) -> Row:
    """Build one homogeneous row; server ids start at ``first_server_id``.

    All servers of the row register with one :class:`ClusterState` (a
    fresh, exactly-sized one unless ``state`` is shared by the caller),
    so the row is a contiguous array slice in the columnar store.
    """
    if racks <= 0 or servers_per_rack <= 0:
        raise ValueError("racks and servers_per_rack must be positive")
    if state is None:
        state = ClusterState(capacity=racks * servers_per_rack)
    built_racks = []
    server_id = first_server_id
    for rack_index in range(racks):
        servers = []
        for _ in range(servers_per_rack):
            servers.append(
                Server(
                    server_id,
                    cores=cores,
                    memory_gb=memory_gb,
                    power_params=power_params,
                    state=state,
                )
            )
            server_id += 1
        built_racks.append(Rack(row_id * 1000 + rack_index, servers))
    return Row(row_id, built_racks, breaker_trip_ratio=breaker_trip_ratio)


def build_heterogeneous_row(
    row_id: int,
    sku_counts: Sequence[Tuple[int, ServerSpec]],
    servers_per_rack: int = 40,
    first_server_id: int = 0,
    breaker_trip_ratio: float = 1.10,
    state: Optional[ClusterState] = None,
) -> Row:
    """Build a row mixing several server SKUs.

    ``sku_counts`` is a list of ``(count, spec)`` pairs; servers are
    created in order and packed into racks of ``servers_per_rack`` (the
    total must fill whole racks, as in a real deployment plan).
    """
    if servers_per_rack <= 0:
        raise ValueError(f"servers_per_rack must be positive, got {servers_per_rack}")
    if state is None:
        total = sum(max(count, 0) for count, _ in sku_counts)
        state = ClusterState(capacity=max(total, 1))
    servers: List[Server] = []
    server_id = first_server_id
    for count, spec in sku_counts:
        if count <= 0:
            raise ValueError(f"SKU count must be positive, got {count}")
        for _ in range(count):
            servers.append(spec.build(server_id, state=state))
            server_id += 1
    if not servers:
        raise ValueError("heterogeneous row needs at least one server")
    if len(servers) % servers_per_rack != 0:
        raise ValueError(
            f"total servers ({len(servers)}) must fill whole racks of "
            f"{servers_per_rack}"
        )
    racks = []
    for rack_index in range(len(servers) // servers_per_rack):
        chunk = servers[rack_index * servers_per_rack:(rack_index + 1) * servers_per_rack]
        racks.append(Rack(row_id * 1000 + rack_index, chunk))
    return Row(row_id, racks, breaker_trip_ratio=breaker_trip_ratio)


def build_datacenter(
    rows: int = 4,
    racks_per_row: int = 10,
    servers_per_rack: int = 40,
    power_params: PowerModelParams = PowerModelParams(),
    cores: int = 16,
    memory_gb: float = 64.0,
) -> DataCenter:
    """Build a homogeneous multi-row data center with contiguous server ids.

    All rows share one :class:`ClusterState`, so facility-level rollups
    vectorize across the whole fleet in a single slice.
    """
    if rows <= 0:
        raise ValueError(f"rows must be positive, got {rows}")
    state = ClusterState(capacity=rows * racks_per_row * servers_per_rack)
    built_rows = []
    next_id = 0
    for row_id in range(rows):
        row = build_row(
            row_id,
            racks=racks_per_row,
            servers_per_rack=servers_per_rack,
            power_params=power_params,
            cores=cores,
            memory_gb=memory_gb,
            first_server_id=next_id,
            state=state,
        )
        next_id += len(row.servers)
        built_rows.append(row)
    return DataCenter(built_rows)


__all__ = [
    "DataCenter",
    "ServerSpec",
    "build_row",
    "build_heterogeneous_row",
    "build_datacenter",
]
