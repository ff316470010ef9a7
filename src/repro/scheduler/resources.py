"""Low-level resource tracking with vectorized candidate search.

A placement query ("which unfrozen servers fit 2 cores / 4 GB in row
3?") is a single vectorized filter over the
:class:`~repro.cluster.state.ClusterState` columns the servers already
live in; no second copy of server state is kept. This is the part of the
paper's low-level scheduler that "tracks the status of resources [and]
bundles them into abstract resource containers".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.server import Server
from repro.cluster.state import shared_state_of


class ResourceTracker:
    """Placement queries over the servers' shared ``ClusterState`` columns.

    The servers must occupy contiguous slots of one store, as
    ``build_row`` lays them out; the tracker keeps only that slice.
    """

    #: the store columns a placement query reads, in ``_columns`` order
    _COLUMNS = ("used_cores", "used_memory_gb", "frozen", "failed", "powered_off",
                "cores", "memory_gb")

    def __init__(self, servers: Sequence[Server]) -> None:
        if not servers:
            raise ValueError("ResourceTracker requires at least one server")
        self.servers: List[Server] = list(servers)
        self.index_of: Dict[int, int] = {
            s.server_id: i for i, s in enumerate(self.servers)
        }
        if len(self.index_of) != len(self.servers):
            raise ValueError("duplicate server ids in tracker")
        state, slots = shared_state_of(self.servers)
        self.state = state
        first = int(slots[0])
        if not np.array_equal(slots, np.arange(first, first + len(slots))):
            raise ValueError("a scheduler's servers must occupy contiguous store slots")
        self._slots = slice(first, first + len(slots))
        self._views: Optional[Tuple[np.ndarray, ...]] = None
        self._row_ids = np.array([s.row_id for s in self.servers], dtype=np.int64)
        self._row_mask_cache: Dict[frozenset, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.servers)

    def __getstate__(self) -> dict:
        # Views would pickle as copies: a restored tracker rebuilds them.
        state = self.__dict__.copy()
        state["_views"] = None
        return state

    def _columns(self) -> Tuple[np.ndarray, ...]:
        """Views of this tracker's slice of ``_COLUMNS``, rebuilt when the
        store grows (reallocating its columns)."""
        views = self._views
        if views is None or views[0].base is not self.state.used_cores:
            views = tuple(getattr(self.state, name)[self._slots] for name in self._COLUMNS)
            self._views = views
        return views

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def candidates(
        self,
        cores: float,
        memory_gb: float,
        allowed_rows: Optional[frozenset] = None,
    ) -> np.ndarray:
        """Indices of unfrozen, live servers that fit the demand.

        A server fits when ``used <= capacity - (demand - 1e-9)``, the
        slack of ``Server.can_fit``.
        """
        (used_cores, used_memory_gb, frozen, failed, powered_off,
         cores_cap, memory_cap) = self._columns()
        mask = used_cores <= cores_cap - (cores - 1e-9)
        mask &= used_memory_gb <= memory_cap - (memory_gb - 1e-9)
        blocked = frozen | failed
        blocked |= powered_off
        np.greater(mask, blocked, out=mask)  # fits and not blocked
        if allowed_rows is not None:
            mask &= self._row_mask(allowed_rows)
        return mask.nonzero()[0]

    def _row_mask(self, allowed_rows: frozenset) -> np.ndarray:
        cached = self._row_mask_cache.get(allowed_rows)
        if cached is None:
            cached = np.isin(self._row_ids, np.fromiter(allowed_rows, dtype=np.int64))
            self._row_mask_cache[allowed_rows] = cached
        return cached

    def free_cores_array(self, indices: np.ndarray) -> np.ndarray:
        """Free-core counts for the given server indices."""
        used_cores, _, _, _, _, cores, _ = self._columns()
        return cores[indices] - used_cores[indices]

    def server_at(self, index: int) -> Server:
        return self.servers[index]


__all__ = ["ResourceTracker"]
