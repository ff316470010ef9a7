"""Low-level resource tracking: placement queries and the fit index.

This is the part of the paper's low-level scheduler that "tracks the
status of resources [and] bundles them into abstract resource
containers". The servers' state lives in one
:class:`~repro.cluster.state.ClusterState`; the tracker answers
placement queries over its contiguous slice of that store in two ways.

The scan
    :meth:`ResourceTracker.candidates` is one vectorized filter over the
    store columns and returns every fitting, unfrozen, live server. A
    server fits a demand when ``used <= capacity - (demand - 1e-9)``, the
    slack of ``Server.can_fit``. Policies that rank the fitting servers
    (least-loaded, best-fit, coolest-row) read this array, and so does
    any demand the fit index cannot hold.

The fit index
    Random-available placement (the default, and what Ampere's
    statistical control relies on) needs only *how many* servers fit and
    *which is the k-th*. :class:`FitIndex` answers both without a scan.
    Demand classes ``(cores, memory_gb)`` register on first query, kept
    in ascending order; a class that does not nest with the registered
    ones (more cores but less memory, say) is never registered and takes
    the scan. Because the classes nest and IEEE subtraction is monotone,
    fitting class ``j + 1`` implies fitting class ``j`` exactly, so each
    server has a *fit level*: how many registered classes fit on it (0
    when frozen, failed or powered off). Servers are grouped into blocks
    of :data:`BLOCK` that never straddle a row, and blocks into
    superblocks of :data:`SUPERBLOCK` blocks within one row. For every
    class ``j`` the index keeps the number of servers with level
    ``> j`` per block, per superblock and in total; the k-th fitting
    server is a walk over superblocks, then blocks, then one block's
    servers. ``allowed_rows`` restricts the walk to those rows'
    superblocks.

    The index is exact at every query wherever state changes through a
    ``Server``: ``add_task``/``remove_task`` refit the slot at once from
    the values they wrote, and the ``frozen``/``failed``/``powered_off``
    and usage setters (behind ``freeze``, ``fail``, ``power_off`` and
    their inverses) queue the slot, which the next query re-reads from
    the columns -- one vectorized rebuild when a whole group was frozen
    at once. Raw column writes, such as
    ``ClusterState.fail_servers``, bypass it; the auditor's ``index``
    check reports the drift. The index is derived state: it is built on
    the first indexed query, is not pickled, and rebuilds on the first
    query after a restore.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cluster.server import Server
from repro.cluster.state import shared_state_of

#: servers per block of the fit index (a block never straddles a row)
BLOCK = 64
#: blocks per superblock (a superblock never straddles a row either)
SUPERBLOCK = 16
#: a sync rebuilds the whole index, instead of refreshing slot by slot,
#: once more than REBUILD_BASE + n / REBUILD_SHARE slots are pending: a
#: rebuild costs about 40 us + 0.025 us per server and one refresh about
#: 0.9 us (measured at 40, 400 and 10k servers)
REBUILD_BASE = 48
REBUILD_SHARE = 32


class FitIndex:
    """Per-block counts of the servers that fit each registered demand class.

    Built over a tracker's slice of the store; every slot of the slice
    points back at it through ``ClusterState.fit_index_of``. A second
    index built over the same slots takes them over and marks this one
    ``stale``, so its tracker rebuilds instead of reading drifted counts.
    """

    def __init__(self, tracker: "ResourceTracker") -> None:
        state = tracker.state
        slots = tracker._slots
        self.state = state
        self.first = slots.start
        self.n = len(tracker)
        self.stale = False
        #: slots whose flags or usage changed outside add/remove_task,
        #: re-read by :meth:`sync` before the next query
        self.pending: Set[int] = set()
        self.cap_cores: List[float] = state.cores[slots].tolist()
        self.cap_memory: List[float] = state.memory_gb[slots].tolist()
        self._layout(tracker._row_ids.tolist())
        #: registered demand classes, ascending, and their slack-adjusted
        #: demands ``(cores - 1e-9, memory_gb - 1e-9)``
        self.classes: List[Tuple[float, float]] = []
        self._slack: List[Tuple[float, float]] = []
        self._slack_desc: List[Tuple[int, float, float]] = []
        self._class_of: Dict[Tuple[float, float], int] = {}
        self._non_nested: set = set()
        self._row_supers_cache: Dict[frozenset, Tuple[int, ...]] = {}
        self._rebuild()
        owners = state.fit_index_of
        for slot in range(self.first, self.first + self.n):
            previous = owners[slot]
            if previous is not None and previous is not self:
                previous.stale = True
            owners[slot] = self

    def _layout(self, row_ids: List[int]) -> None:
        """Blocks of at most BLOCK servers and superblocks of at most
        SUPERBLOCK blocks, cut at every change of row id."""
        self.block_starts: List[int] = []
        self.block_ends: List[int] = []
        self.super_blocks: List[Tuple[int, int]] = []  # block range per superblock
        self.row_of_super: List[int] = []
        block_of = [0] * self.n
        start = 0
        while start < self.n:
            row = row_ids[start]
            end = start
            while end < self.n and row_ids[end] == row:
                end += 1
            first_block = len(self.block_starts)
            for block_start in range(start, end, BLOCK):
                block_end = min(block_start + BLOCK, end)
                b = len(self.block_starts)
                self.block_starts.append(block_start)
                self.block_ends.append(block_end)
                block_of[block_start:block_end] = [b] * (block_end - block_start)
            last_block = len(self.block_starts)
            for super_start in range(first_block, last_block, SUPERBLOCK):
                self.super_blocks.append(
                    (super_start, min(super_start + SUPERBLOCK, last_block))
                )
                self.row_of_super.append(row)
            start = end
        self.block_of = block_of
        self.super_of: List[int] = [0] * len(self.block_starts)
        for s, (first_block, last_block) in enumerate(self.super_blocks):
            for b in range(first_block, last_block):
                self.super_of[b] = s

    # ------------------------------------------------------------------
    # Classes
    # ------------------------------------------------------------------
    def class_for(self, cores: float, memory_gb: float) -> Optional[int]:
        """The class id of a demand, registering it when it nests with
        every registered class; ``None`` when it does not (scan it)."""
        key = (cores, memory_gb)
        known = self._class_of.get(key)
        if known is not None:
            return known
        if key in self._non_nested:
            return None
        for other_cores, other_memory in self.classes:
            if not (
                (other_cores <= cores and other_memory <= memory_gb)
                or (other_cores >= cores and other_memory >= memory_gb)
            ):
                self._non_nested.add(key)
                return None
        self.classes = sorted(self.classes + [key])
        self._rebuild()
        return self._class_of[key]

    def _rebuild(self) -> None:
        """Levels and counts from the store columns (one scan per class)."""
        self.pending = set()
        self._class_of = {key: j for j, key in enumerate(self.classes)}
        self._slack = [(c - 1e-9, m - 1e-9) for c, m in self.classes]
        #: ``(level, slack cores, slack memory)``, largest class first: a
        #: refit stops at the largest class that fits, usually the first
        self._slack_desc = [
            (level, c, m) for level, (c, m) in enumerate(self._slack, 1)
        ][::-1]
        state, slots = self.state, slice(self.first, self.first + self.n)
        used_cores = state.used_cores[slots]
        used_memory = state.used_memory_gb[slots]
        cores_cap = state.cores[slots]
        memory_cap = state.memory_gb[slots]
        blocked = state.frozen[slots] | state.failed[slots] | state.powered_off[slots]
        self.blocked: List[bool] = blocked.tolist()
        levels = np.zeros(self.n, dtype=np.int64)
        for cores, memory_gb in self._slack:
            fits = used_cores <= cores_cap - cores
            fits &= used_memory <= memory_cap - memory_gb
            levels += fits
        levels[blocked] = 0
        self.levels: List[int] = levels.tolist()
        starts = np.asarray(self.block_starts, dtype=np.intp)
        super_starts = np.asarray([first for first, _ in self.super_blocks], dtype=np.intp)
        self.block_counts: List[List[int]] = []
        self.super_counts: List[List[int]] = []
        self.totals: List[int] = []
        for j in range(len(self.classes)):
            per_block = np.add.reduceat((levels > j).astype(np.int64), starts)
            self.block_counts.append(per_block.tolist())
            self.super_counts.append(np.add.reduceat(per_block, super_starts).tolist())
            self.totals.append(int(per_block.sum()))

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def refit(self, slot: int, used_cores: float, used_memory_gb: float) -> None:
        """Re-level one slot after its usage changed to the given values."""
        i = slot - self.first
        if self.blocked[i]:
            return  # a blocked server stays at level 0
        cores_cap = self.cap_cores[i]
        memory_cap = self.cap_memory[i]
        level = 0
        for fit_level, cores, memory_gb in self._slack_desc:
            if used_cores <= cores_cap - cores and used_memory_gb <= memory_cap - memory_gb:
                level = fit_level
                break
        if level != self.levels[i]:
            self._move(i, level)

    def sync(self) -> None:
        """Apply the pending slots: one by one, or by one rebuild when
        they are many (a whole group frozen at once, say)."""
        pending, self.pending = self.pending, set()
        if len(pending) > REBUILD_BASE + self.n // REBUILD_SHARE:
            self._rebuild()
            return
        for slot in pending:
            self.refresh(slot)

    def refresh(self, slot: int) -> None:
        """Re-read one slot's flags and usage from the store."""
        state = self.state
        i = slot - self.first
        self.blocked[i] = bool(
            state.frozen[slot] or state.failed[slot] or state.powered_off[slot]
        )
        if self.blocked[i]:
            if self.levels[i]:
                self._move(i, 0)
            return
        self.refit(slot, state.used_cores.item(slot), state.used_memory_gb.item(slot))

    def _move(self, i: int, level: int) -> None:
        old = self.levels[i]
        self.levels[i] = level
        b = self.block_of[i]
        s = self.super_of[b]
        step = 1 if level > old else -1
        for j in range(min(old, level), max(old, level)):
            self.block_counts[j][b] += step
            self.super_counts[j][s] += step
            self.totals[j] += step

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def supers_of(self, allowed_rows: frozenset) -> Tuple[int, ...]:
        """The superblocks of the allowed rows, in index order."""
        cached = self._row_supers_cache.get(allowed_rows)
        if cached is None:
            cached = tuple(
                s for s, row in enumerate(self.row_of_super) if row in allowed_rows
            )
            self._row_supers_cache[allowed_rows] = cached
        return cached

    def count(self, j: int, supers: Optional[Sequence[int]] = None) -> int:
        """Servers that fit class ``j`` (within ``supers`` when given)."""
        if supers is None:
            return self.totals[j]
        counts = self.super_counts[j]
        return sum(counts[s] for s in supers)

    def kth(self, j: int, k: int, supers: Optional[Sequence[int]] = None) -> int:
        """Tracker index of the k-th server (0-based, index order) that
        fits class ``j``, within ``supers`` when given; ``k`` must be
        below :meth:`count`."""
        counts = self.super_counts[j]
        for s in range(len(counts)) if supers is None else supers:
            here = counts[s]
            if k < here:
                break
            k -= here
        counts = self.block_counts[j]
        first_block, last_block = self.super_blocks[s]
        for b in range(first_block, last_block):
            here = counts[b]
            if k < here:
                break
            k -= here
        start = self.block_starts[b]
        end = self.block_ends[b]
        if here == end - start:  # every server in the block fits
            return start + k
        for i, level in enumerate(self.levels[start:end], start):
            if level > j:
                if k == 0:
                    return i
                k -= 1
        raise AssertionError("fit index counts disagree with levels")


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
        self._fit: Optional[FitIndex] = None

    def __len__(self) -> int:
        return len(self.servers)

    @property
    def first_slot(self) -> int:
        """Store slot of ``servers[0]`` (server ``i`` is at ``first_slot + i``)."""
        return self._slots.start

    def __getstate__(self) -> dict:
        # Views would pickle as copies, and the fit index is derived: a
        # restored tracker rebuilds both.
        state = self.__dict__.copy()
        state["_views"] = None
        del state["_fit"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._fit = None

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
        """Indices of unfrozen, live servers that fit the demand (the scan).

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

    @property
    def fit_index(self) -> Optional[FitIndex]:
        """The built fit index, synced, or ``None`` when none is built or
        it went stale (auditing reads it here: it never builds one)."""
        fit = self._fit
        if fit is None or fit.stale:
            return None
        if fit.pending:
            fit.sync()
        return fit

    def _fit_index(self) -> FitIndex:
        """The fit index, built on first use and synced."""
        fit = self._fit
        if fit is None or fit.stale:
            fit = self._fit = FitIndex(self)
        elif fit.pending:
            fit.sync()
        return fit

    def draw_fitting(
        self,
        cores: float,
        memory_gb: float,
        allowed_rows: Optional[frozenset],
        rng: np.random.Generator,
    ) -> Optional[int]:
        """A uniformly random fitting server: ``k = rng.integers(count)``,
        then the k-th in index order -- the same draw and the same server
        as indexing :meth:`candidates` with it. ``None``, without drawing,
        when nothing fits. Non-nested demands fall back to the scan."""
        fit = self._fit
        if fit is None or fit.stale or fit.pending:
            fit = self._fit_index()
        j = fit._class_of.get((cores, memory_gb))
        if j is None:
            j = fit.class_for(cores, memory_gb)
            if j is None:
                candidates = self.candidates(cores, memory_gb, allowed_rows)
                if len(candidates) == 0:
                    return None
                return int(candidates[rng.integers(len(candidates))])
        if allowed_rows is None:
            n = fit.totals[j]
            if n == 0:
                return None
            return fit.kth(j, int(rng.integers(n)))
        supers = fit.supers_of(allowed_rows)
        n = fit.count(j, supers)
        if n == 0:
            return None
        return fit.kth(j, int(rng.integers(n)), supers)

    def free_cores_array(self, indices: np.ndarray) -> np.ndarray:
        """Free-core counts for the given server indices."""
        used_cores, _, _, _, _, cores, _ = self._columns()
        return cores[indices] - used_cores[indices]

    def server_at(self, index: int) -> Server:
        return self.servers[index]


__all__ = ["BLOCK", "REBUILD_BASE", "REBUILD_SHARE", "SUPERBLOCK", "FitIndex", "ResourceTracker"]
