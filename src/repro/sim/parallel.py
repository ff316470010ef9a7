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
  (bounded -- transient failures: OOM kills, flaky imports) and, when it
  keeps failing, *quarantined* as a failed row carrying the exception
  message. One bad day must not abort a 20-day sweep. ``cell_timeout``
  adds straggler re-dispatch: a cell whose worker goes silent gets one
  speculative duplicate, and
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

#: (row or None, error message or None)
_CellOutcome = Tuple[Optional[CampaignRow], Optional[str]]


def default_worker_count(n_cells: int) -> int:
    """Pool size when the caller does not pin one: every core, but never
    more processes than cells."""
    return max(1, min(os.cpu_count() or 1, n_cells))


def _execute_cell(
    runner: CellRunner, config: CampaignRunConfig, cell: CampaignCell
) -> _CellOutcome:
    """Worker-side call: run one cell, trapping its exception.

    Trapping inside the worker gives the parent a per-cell error message
    instead of an opaque broken future.
    """
    try:
        return runner(cell, config), None
    except Exception as exc:  # noqa: BLE001 - isolate arbitrary cell failures
        return None, f"{type(exc).__name__}: {exc}"


def run_cells_parallel(
    cells: Sequence[CampaignCell],
    config: CampaignRunConfig,
    max_workers: Optional[int] = None,
    on_row: Optional[RowCallback] = None,
    cell_runner: CellRunner = run_cell,
    retries: int = 1,
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
    cell_runner:
        The work function; override only with another picklable
        module-level function (tests use this for fault injection).
    retries:
        How many times a failing cell is resubmitted before being
        quarantined as a failed row.
    cell_timeout:
        Seconds a dispatched cell may run before a speculative
        duplicate is submitted (straggler re-dispatch: lost workers,
        stuck cells). The first result per cell wins -- :func:`run_cell`
        is a pure function of the cell seed, so duplicates are
        byte-identical and the race is benign. At most one speculative
        copy per cell; ``None`` disables.
    """
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
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
        pending: Dict[Future, int] = {}
        dispatched_at: Dict[Future, float] = {}

        def submit(index: int) -> None:
            future = pool.submit(_execute_cell, cell_runner, config, cells[index])
            pending[future] = index
            dispatched_at[future] = time.monotonic()

        for index in range(len(cells)):
            submit(index)
        #: indices of cells that already have a speculative copy
        speculated: Set[int] = set()
        pool_broken = False
        while pending and len(rows) < len(cells):
            done, _ = wait(
                pending, timeout=cell_timeout, return_when=FIRST_COMPLETED
            )
            if cell_timeout is not None and not pool_broken:
                now = time.monotonic()
                for future, index in list(pending.items()):
                    if future in done or now - dispatched_at[future] < cell_timeout:
                        continue
                    if index in speculated or index in rows:
                        continue
                    speculated.add(index)
                    logger.warning(
                        "cell %s exceeded cell_timeout=%.1fs; dispatching "
                        "a speculative duplicate",
                        cells[index].label(),
                        cell_timeout,
                    )
                    submit(index)
            for future in done:
                index = pending.pop(future)
                dispatched_at.pop(future, None)
                try:
                    row, error = future.result()
                except Exception:  # pool-level failure (crashed worker, ...)
                    # The pool may be unusable now; run the cell in-process
                    # so the campaign still completes deterministically.
                    pool_broken = True
                    logger.warning(
                        "process pool broke; running cell %s in-process",
                        cells[index].label(),
                    )
                    row, error = _execute_cell(cell_runner, config, cells[index])
                if index in rows:
                    continue  # a duplicate already delivered this cell
                if error is None:
                    record(index, row)
                    continue
                attempts[index] = attempts.get(index, 0) + 1
                if attempts[index] <= retries and not pool_broken:
                    logger.info(
                        "cell %s failed (%s); retry %d/%d",
                        cells[index].label(),
                        error,
                        attempts[index],
                        retries,
                    )
                    submit(index)
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
