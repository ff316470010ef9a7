"""Process-pool campaign execution with deterministic fan-out.

The paper's Table 3 is a 20-day grid of independent experiment "days";
:class:`~repro.sim.campaign.Campaign` reproduces the grid but the serial
path pays for it one cell at a time. This module fans cells out across a
:class:`concurrent.futures.ProcessPoolExecutor` while keeping the result
*indistinguishable* from the serial run:

- **Determinism.** The unit of work is the pure function
  :func:`repro.sim.campaign.run_cell`, whose only randomness is derived
  from the cell's own seed. Workers therefore compute bit-identical rows
  no matter how cells are distributed, and results are re-sorted into
  cell order before aggregation, so worker count and completion order are
  unobservable in the output.
- **Picklable boundary.** Workers receive ``(cell, config)`` dataclasses
  and return lightweight :class:`~repro.sim.campaign.CampaignRow`
  records -- never live engines, monitors or numpy-heavy results.
- **Fault isolation.** A cell that raises inside a worker is retried
  (bounded, with optional exponential backoff -- transient failures:
  OOM kills, flaky imports) and, when it keeps failing, *quarantined*
  as a failed row carrying the exception message. One bad day must not
  abort a 20-day sweep. ``cell_timeout`` adds straggler re-dispatch: a
  chunk whose worker goes silent gets one speculative duplicate, and
  the first result per cell wins (duplicates are byte-identical because
  cells are pure functions of their seed). If the pool itself breaks
  (e.g. a worker process dies hard), the affected cells fall back to
  in-process execution rather than losing the campaign.

Every future distributed feature (sharded datacenters, multi-row
steering sweeps) should reuse this discipline: pure picklable work
units, lightweight row records back, deterministic re-assembly.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.sim.campaign import (
    CampaignCell,
    CampaignRow,
    CampaignRunConfig,
    run_cell,
)

logger = logging.getLogger(__name__)

#: ``runner(cell, config) -> CampaignRow``; must be a picklable
#: module-level callable (workers import it by reference).
CellRunner = Callable[[CampaignCell, CampaignRunConfig], CampaignRow]

#: ``on_row(cell, row)`` progress hook, fired in completion order.
RowCallback = Callable[[CampaignCell, CampaignRow], None]

#: (cell index, row or None, error message or None)
_ChunkItem = Tuple[int, Optional[CampaignRow], Optional[str]]


def default_worker_count(n_cells: int) -> int:
    """Pool size when the caller does not pin one: every core, but never
    more processes than cells."""
    return max(1, min(os.cpu_count() or 1, n_cells))


def _execute_chunk(
    runner: CellRunner,
    config: CampaignRunConfig,
    indexed_cells: Sequence[Tuple[int, CampaignCell]],
) -> List[_ChunkItem]:
    """Worker-side loop: run each cell, trapping per-cell exceptions.

    Trapping inside the worker keeps one bad cell from poisoning its
    chunk-mates and gives the parent a per-cell error message instead of
    an opaque broken future.
    """
    out: List[_ChunkItem] = []
    for index, cell in indexed_cells:
        try:
            out.append((index, runner(cell, config), None))
        except Exception as exc:  # noqa: BLE001 - isolate arbitrary cell failures
            out.append((index, None, f"{type(exc).__name__}: {exc}"))
    return out


def _chunked(
    items: Sequence[Tuple[int, CampaignCell]], chunksize: int
) -> List[List[Tuple[int, CampaignCell]]]:
    return [list(items[i : i + chunksize]) for i in range(0, len(items), chunksize)]


#: Cap on exponential retry backoff so a high retry count cannot stall
#: the dispatch loop for minutes per cell.
_MAX_BACKOFF_SECONDS = 60.0


def run_cells_parallel(
    cells: Sequence[CampaignCell],
    config: CampaignRunConfig,
    max_workers: Optional[int] = None,
    on_row: Optional[RowCallback] = None,
    chunksize: int = 1,
    cell_runner: CellRunner = run_cell,
    retries: int = 1,
    retry_backoff: float = 0.0,
    cell_timeout: Optional[float] = None,
) -> List[CampaignRow]:
    """Run every cell on a process pool; return rows in *cell order*.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to :func:`default_worker_count`.
    on_row:
        Progress callback fired as results arrive (completion order --
        the only place worker scheduling is observable).
    chunksize:
        Cells submitted per task. 1 maximizes load balance; larger
        values amortize submission overhead for very short cells.
    cell_runner:
        The work function; override only with another picklable
        module-level function (tests use this for fault injection).
    retries:
        How many times a failing cell is resubmitted before being
        quarantined as a failed row.
    retry_backoff:
        Base delay in seconds before a retry resubmission; doubles per
        attempt (capped at 60s). 0 retries immediately.
    cell_timeout:
        Seconds a dispatched chunk may run before a speculative
        duplicate is submitted (straggler re-dispatch: lost workers,
        stuck cells). The first result per cell wins -- :func:`run_cell`
        is a pure function of the cell seed, so duplicates are
        byte-identical and the race is benign. At most one speculative
        copy per chunk; ``None`` disables.
    """
    if chunksize < 1:
        raise ValueError(f"chunksize must be >= 1, got {chunksize}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if retry_backoff < 0:
        raise ValueError(f"retry_backoff must be >= 0, got {retry_backoff}")
    if cell_timeout is not None and cell_timeout <= 0:
        raise ValueError(f"cell_timeout must be > 0, got {cell_timeout}")
    cells = list(cells)
    if not cells:
        return []
    workers = (
        default_worker_count(len(cells)) if max_workers is None else int(max_workers)
    )
    if workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")

    rows: Dict[int, CampaignRow] = {}
    attempts: Dict[int, int] = {}
    indexed = list(enumerate(cells))

    def record(index: int, row: CampaignRow) -> None:
        # First result wins: a straggler finishing after its speculative
        # duplicate (or vice versa) is dropped here.
        if index in rows:
            return
        rows[index] = row
        if on_row is not None:
            on_row(cells[index], row)

    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        pending: Dict[Future, List[Tuple[int, CampaignCell]]] = {}
        dispatched_at: Dict[Future, float] = {}

        def submit(chunk: List[Tuple[int, CampaignCell]]) -> None:
            future = pool.submit(_execute_chunk, cell_runner, config, chunk)
            pending[future] = chunk
            dispatched_at[future] = time.monotonic()

        for chunk in _chunked(indexed, chunksize):
            submit(chunk)
        #: index-tuples of chunks that already have a speculative copy
        speculated: Set[Tuple[int, ...]] = set()
        pool_broken = False
        while pending and len(rows) < len(cells):
            done, _ = wait(
                pending, timeout=cell_timeout, return_when=FIRST_COMPLETED
            )
            if cell_timeout is not None and not pool_broken:
                now = time.monotonic()
                for future, chunk in list(pending.items()):
                    if future in done or now - dispatched_at[future] < cell_timeout:
                        continue
                    key = tuple(index for index, _ in chunk)
                    if key in speculated:
                        continue
                    remaining = [
                        (index, cell) for index, cell in chunk if index not in rows
                    ]
                    if not remaining:
                        continue
                    speculated.add(key)
                    logger.warning(
                        "chunk %s exceeded cell_timeout=%.1fs; dispatching "
                        "speculative duplicate for %d unfinished cell(s)",
                        key,
                        cell_timeout,
                        len(remaining),
                    )
                    submit(remaining)
            for future in done:
                chunk = pending.pop(future)
                dispatched_at.pop(future, None)
                try:
                    items: List[_ChunkItem] = future.result()
                except Exception:  # pool-level failure (crashed worker, ...)
                    # The pool may be unusable now; run the chunk in-process
                    # so the campaign still completes deterministically.
                    pool_broken = True
                    logger.warning(
                        "process pool broke; running %d cell(s) in-process",
                        len(chunk),
                    )
                    items = _execute_chunk(cell_runner, config, chunk)
                for index, row, error in items:
                    if index in rows:
                        continue  # a duplicate already delivered this cell
                    if error is None:
                        record(index, row)
                        continue
                    attempts[index] = attempts.get(index, 0) + 1
                    if attempts[index] <= retries and not pool_broken:
                        delay = min(
                            retry_backoff * (2 ** (attempts[index] - 1)),
                            _MAX_BACKOFF_SECONDS,
                        )
                        logger.info(
                            "cell %s failed (%s); retry %d/%d%s",
                            cells[index].label(),
                            error,
                            attempts[index],
                            retries,
                            f" after {delay:.1f}s" if delay > 0 else "",
                        )
                        if delay > 0:
                            time.sleep(delay)
                        submit([(index, cells[index])])
                    else:
                        logger.warning(
                            "cell %s quarantined after %d attempt(s): %s",
                            cells[index].label(),
                            attempts[index],
                            error,
                        )
                        record(index, CampaignRow.failed(cells[index], error))
    finally:
        # A straggler whose speculative duplicate already delivered every
        # cell may still be running; don't block the campaign on it.
        pool.shutdown(wait=not pending, cancel_futures=bool(pending))

    # Completion order is nondeterministic; cell order is the contract.
    return [rows[i] for i in range(len(cells))]


__all__ = [
    "CellRunner",
    "RowCallback",
    "default_worker_count",
    "run_cells_parallel",
]
