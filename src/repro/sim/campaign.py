"""Experiment campaigns: the paper's 20-day Table 3 study as a harness.

Table 3 comes from running Ampere "over an experiment period of 20 days
... using different over-provisioning ratio under varying production
workload". A :class:`Campaign` is the reusable version of that: a list of
cells (over-provision ratio x workload x seed/day), executed with the
Section 4.4 design, aggregated into rows, and exportable to CSV/JSON for
archival.

Execution comes in two flavours:

- :meth:`Campaign.run` -- the serial reference implementation, one cell
  after another in this process.
- :meth:`Campaign.run_parallel` -- fans cells out across a process pool
  (:mod:`repro.sim.parallel`). Because :func:`run_cell` derives *all*
  randomness from the cell's own seed, the parallel path returns rows
  byte-identical to the serial one regardless of worker count or
  completion order.

The unit shipped across the worker boundary is :func:`run_cell`, a pure
module-level function of picklable inputs (:class:`CampaignCell`,
:class:`CampaignRunConfig`) returning a picklable :class:`CampaignRow`
-- never a live engine object.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.safety import SafetyConfig
from repro.durability.atomic import atomic_write_text
from repro.faults.scenario import FaultScenario
from repro.fleet.config import FleetConfig
from repro.sim.experiment import ControlledExperiment, ExperimentConfig
from repro.sim.testbed import WorkloadSpec
from repro.telemetry import MetricsRegistry
from repro.tenancy import TenancyConfig

CellCallback = Callable[["CampaignCell", "CampaignRow"], None]


@dataclass(frozen=True)
class CampaignCell:
    """One experiment day: a ratio, a workload, a seed."""

    over_provision_ratio: float
    workload_name: str
    workload: WorkloadSpec
    seed: int

    def label(self) -> str:
        return f"r_O={self.over_provision_ratio:.2f} {self.workload_name} seed={self.seed}"


@dataclass(frozen=True)
class CampaignRunConfig:
    """Per-cell experiment configuration shared by every cell of a grid.

    Frozen and built only from plain values so it pickles cheaply across
    the worker boundary.
    """

    n_servers: int = 400
    duration_hours: float = 12.0
    warmup_hours: float = 1.0
    #: control-plane fault schedule applied identically to every cell
    #: (the fault-sweep experiments run one campaign per scenario)
    faults: Optional[FaultScenario] = None
    #: breaker physics + emergency ladder applied to every cell
    safety: Optional[SafetyConfig] = None
    #: collect per-cell metrics registries (merged campaign-wide via
    #: :meth:`CampaignResult.merged_telemetry`)
    telemetry: bool = False
    #: when set, every cell runs the multi-row fleet harness under this
    #: coordinator config instead of the single-row A/B experiment
    fleet: Optional[FleetConfig] = None
    #: cold-row intensity as a fraction of the cell workload (fleet
    #: cells split servers into a hot row at the cell's workload and a
    #: cold row at ``workload.scaled(fleet_skew)``)
    fleet_skew: float = 0.25
    #: multi-tenant mix applied identically to every cell (None =
    #: untenanted; rows then leave the tenancy columns blank)
    tenancy: Optional[TenancyConfig] = None


#: Canonical column order of a campaign row record. ``save_csv`` writes
#: exactly these columns even for an empty result (header-only CSV).
CAMPAIGN_RECORD_FIELDS = (
    "r_o",
    "workload",
    "seed",
    "p_mean",
    "p_max",
    "u_mean",
    "r_t",
    "g_tpw",
    "violations",
    "trips",
    "jobs_shed",
    "frozen_server_minutes",
    "reallocations",
    "tenancy_policy",
    "jain_index",
    "error",
)


@dataclass
class CampaignRow:
    """Measured outcome of one cell (a row of Table 3).

    A row either carries measurements (``error is None``) or records a
    cell that failed in a worker (metrics are NaN, ``error`` holds the
    exception message) -- a crashed cell must not abort a 20-day sweep.
    """

    cell: CampaignCell
    p_mean: float
    p_max: float
    u_mean: float
    r_t: float
    g_tpw: float
    violations: int
    #: breaker trips suffered by the cell (0 when no breaker was armed)
    trips: int = 0
    #: batch tasks dropped by emergency load shedding
    jobs_shed: int = 0
    #: server-minutes of frozen capacity commanded over the measurement
    #: window (the capacity cost Ampere pays; fleet cells sum all rows)
    frozen_server_minutes: float = 0.0
    #: fleet-coordinator budget moves (0 for non-fleet cells)
    reallocations: int = 0
    #: freeze-fairness policy of the cell (None for untenanted cells)
    tenancy_policy: Optional[str] = None
    #: Jain's index over weight-normalized per-tenant frozen time
    #: (None for untenanted cells)
    jain_index: Optional[float] = None
    error: Optional[str] = None
    #: copy of the cell's metrics registry (None unless the run config
    #: enabled telemetry). Deliberately excluded from :meth:`as_record`: records
    #: are flat Table 3 rows; registries aggregate via
    #: :meth:`CampaignResult.merged_telemetry`.
    telemetry: Optional[MetricsRegistry] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @classmethod
    def failed(cls, cell: CampaignCell, message: str) -> "CampaignRow":
        nan = float("nan")
        return cls(
            cell=cell,
            p_mean=nan,
            p_max=nan,
            u_mean=nan,
            r_t=nan,
            g_tpw=nan,
            violations=0,
            frozen_server_minutes=nan,
            error=message,
        )

    def as_record(self) -> Dict[str, object]:
        return {
            "r_o": self.cell.over_provision_ratio,
            "workload": self.cell.workload_name,
            "seed": self.cell.seed,
            "p_mean": self.p_mean,
            "p_max": self.p_max,
            "u_mean": self.u_mean,
            "r_t": self.r_t,
            "g_tpw": self.g_tpw,
            "violations": self.violations,
            "trips": self.trips,
            "jobs_shed": self.jobs_shed,
            "frozen_server_minutes": self.frozen_server_minutes,
            "reallocations": self.reallocations,
            "tenancy_policy": self.tenancy_policy,
            "jain_index": self.jain_index,
            "error": self.error,
        }


def run_cell(cell: CampaignCell, config: CampaignRunConfig) -> CampaignRow:
    """Execute one campaign cell and return its Table 3 row.

    Pure function of its (picklable) arguments: every source of
    randomness in the experiment is derived from ``cell.seed``, so the
    same cell produces a bit-identical row no matter which process --
    or how many sibling processes -- runs it. This is the unit of work
    shipped to pool workers by :mod:`repro.sim.parallel`; keep it free
    of global state.

    With ``config.fleet`` set the cell runs the multi-row fleet harness
    instead: a hot row at the cell's workload and a cold row at
    ``workload.scaled(config.fleet_skew)``, under one facility budget.
    Fleet cells have no control group, so ``r_t``/``g_tpw`` are NaN.
    """
    if config.fleet is not None:
        return _run_fleet_cell(cell, config)
    experiment_config = ExperimentConfig(
        n_servers=config.n_servers,
        duration_hours=config.duration_hours,
        warmup_hours=config.warmup_hours,
        over_provision_ratio=cell.over_provision_ratio,
        scale_control_budget=False,  # Section 4.4 design
        workload=cell.workload,
        seed=cell.seed,
        faults=config.faults,
        safety=config.safety,
        telemetry_enabled=config.telemetry,
        tenancy=config.tenancy,
    )
    outcome = ControlledExperiment(experiment_config).run()
    summary = outcome.experiment.summary
    # Commanded freeze ratio per one-minute tick, so summing the u
    # series over the experiment group gives server-minutes directly.
    group_size = config.n_servers // 2
    interval_minutes = experiment_config.ampere.control_interval / 60.0
    frozen_minutes = float(
        np.sum(outcome.experiment.u_values) * group_size * interval_minutes
    )
    return CampaignRow(
        cell=cell,
        p_mean=summary.p_mean,
        p_max=summary.p_max,
        u_mean=summary.u_mean,
        r_t=outcome.r_t,
        g_tpw=outcome.g_tpw,
        violations=summary.violations,
        trips=(
            outcome.breaker_stats.trips if outcome.breaker_stats is not None else 0
        ),
        jobs_shed=(
            outcome.safety_stats.jobs_shed
            if outcome.safety_stats is not None
            else 0
        ),
        frozen_server_minutes=frozen_minutes,
        tenancy_policy=(
            outcome.tenancy.policy if outcome.tenancy is not None else None
        ),
        jain_index=(
            outcome.tenancy.jain_index if outcome.tenancy is not None else None
        ),
        telemetry=outcome.telemetry,
    )


def _run_fleet_cell(cell: CampaignCell, config: CampaignRunConfig) -> CampaignRow:
    """Fleet flavour of :func:`run_cell` (hot row + cold row, one budget)."""
    from repro.sim.fleet_experiment import (
        FleetExperiment,
        FleetExperimentConfig,
        FleetRowSpec,
    )

    half = config.n_servers // 2
    fleet_config = FleetExperimentConfig(
        rows=(
            FleetRowSpec(n_servers=half, workload=cell.workload),
            FleetRowSpec(
                n_servers=half,
                workload=cell.workload.scaled(config.fleet_skew),
            ),
        ),
        duration_hours=config.duration_hours,
        warmup_hours=config.warmup_hours,
        over_provision_ratio=cell.over_provision_ratio,
        fleet=config.fleet,
        seed=cell.seed,
        safety=config.safety,
        faults=config.faults,
        telemetry_enabled=config.telemetry,
        tenancy=config.tenancy,
    )
    result = FleetExperiment(fleet_config).run()
    duration_minutes = config.duration_hours * 60.0
    nan = float("nan")
    return CampaignRow(
        cell=cell,
        p_mean=result.facility.p_mean_watts / result.facility.budget_watts,
        p_max=result.facility.p_max_watts / result.facility.budget_watts,
        u_mean=result.total_frozen_server_minutes
        / (2 * half * duration_minutes),
        r_t=nan,
        g_tpw=nan,
        violations=result.total_violations,
        trips=result.total_breaker_trips,
        frozen_server_minutes=result.total_frozen_server_minutes,
        reallocations=(
            result.coordinator_stats.reallocations
            if result.coordinator_stats is not None
            else 0
        ),
        tenancy_policy=(
            result.tenancy.policy if result.tenancy is not None else None
        ),
        jain_index=(
            result.tenancy.jain_index if result.tenancy is not None else None
        ),
        telemetry=result.telemetry,
    )


@dataclass
class CampaignResult:
    """All rows of a finished campaign plus aggregation helpers."""

    rows: List[CampaignRow] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def failed_rows(self) -> List[CampaignRow]:
        return [r for r in self.rows if not r.ok]

    def filter(
        self,
        r_o: Optional[float] = None,
        workload: Optional[str] = None,
    ) -> List[CampaignRow]:
        out = self.rows
        if r_o is not None:
            out = [r for r in out if abs(r.cell.over_provision_ratio - r_o) < 1e-12]
        if workload is not None:
            out = [r for r in out if r.cell.workload_name == workload]
        return out

    def merged_telemetry(self) -> Optional[MetricsRegistry]:
        """One campaign-wide registry: every cell's registry merged.

        Merging always happens in *cell order* (``self.rows`` order), so
        serial and parallel runs -- which both return rows in cell order
        -- produce byte-identical merged snapshots. Returns ``None``
        when no row carries a registry (telemetry was off).
        """
        registries = [r.telemetry for r in self.rows if r.telemetry is not None]
        if not registries:
            return None
        return MetricsRegistry.merged(registries)

    def mean_gtpw(self, r_o: float, workload: Optional[str] = None) -> float:
        rows = [r for r in self.filter(r_o=r_o, workload=workload) if r.ok]
        if not rows:
            raise KeyError(f"no campaign rows for r_O={r_o}, workload={workload}")
        return sum(r.g_tpw for r in rows) / len(rows)

    def best_ratio(self, by: str = "worst_case") -> float:
        """The r_O maximizing mean G_TPW ('mean') or the minimum across
        workload levels ('worst_case', the robust choice)."""
        ratios = sorted({r.cell.over_provision_ratio for r in self.rows})
        workloads = sorted({r.cell.workload_name for r in self.rows})
        if not ratios:
            raise ValueError("empty campaign")

        def score(r_o: float) -> float:
            gains = [self.mean_gtpw(r_o, w) for w in workloads]
            return min(gains) if by == "worst_case" else sum(gains) / len(gains)

        return max(ratios, key=score)

    # ------------------------------------------------------------------
    def save_csv(self, path: Union[str, Path]) -> None:
        # Rendered fully in memory, then write-temp-then-rename: a crash
        # mid-save leaves the previous file intact, never a torn CSV.
        buffer = io.StringIO()
        # csv's default \r\n terminator is kept so the bytes match what
        # the previous direct-to-file writer produced.
        writer = csv.DictWriter(buffer, fieldnames=list(CAMPAIGN_RECORD_FIELDS))
        writer.writeheader()
        writer.writerows(row.as_record() for row in self.rows)
        atomic_write_text(path, buffer.getvalue())


class Campaign:
    """Runs a grid of Section 4.4 experiments.

    Parameters
    ----------
    ratios / workloads / seeds:
        The grid: every combination becomes one cell ("day").
    n_servers / duration_hours / warmup_hours:
        Per-cell experiment configuration.
    """

    def __init__(
        self,
        ratios: Sequence[float] = (0.13, 0.17, 0.21, 0.25),
        workloads: Optional[Dict[str, WorkloadSpec]] = None,
        seeds: Sequence[int] = (13,),
        n_servers: int = 400,
        duration_hours: float = 12.0,
        warmup_hours: float = 1.0,
        faults: Optional[FaultScenario] = None,
        safety: Optional[SafetyConfig] = None,
        telemetry: bool = False,
        fleet: Optional[FleetConfig] = None,
        fleet_skew: float = 0.25,
        tenancy: Optional[TenancyConfig] = None,
    ) -> None:
        if not ratios:
            raise ValueError("campaign needs at least one over-provision ratio")
        if not seeds:
            raise ValueError("campaign needs at least one seed")
        if workloads is None:
            workloads = {
                "light": WorkloadSpec.light(),
                "typical": WorkloadSpec.typical(),
                "heavy": WorkloadSpec.heavy(),
            }
        self.cells: List[CampaignCell] = [
            CampaignCell(r_o, name, spec, seed)
            for r_o in ratios
            for name, spec in workloads.items()
            for seed in seeds
        ]
        self.run_config = CampaignRunConfig(
            n_servers=n_servers,
            duration_hours=duration_hours,
            warmup_hours=warmup_hours,
            faults=faults,
            safety=safety,
            telemetry=telemetry,
            fleet=fleet,
            fleet_skew=fleet_skew,
            tenancy=tenancy,
        )

    def __len__(self) -> int:
        return len(self.cells)

    def _open_checkpoint(
        self, checkpoint_dir: Optional[Union[str, Path]], resume: bool
    ):
        """Returns (checkpoint, completed-rows-by-index); (None, {}) if off."""
        if checkpoint_dir is None:
            if resume:
                raise ValueError("resume=True requires a checkpoint_dir")
            return None, {}
        from repro.sim.checkpoint import CampaignCheckpoint

        checkpoint = CampaignCheckpoint(checkpoint_dir)
        completed = checkpoint.initialize(self.cells, self.run_config, resume=resume)
        return checkpoint, completed

    def run(
        self,
        on_cell: Optional[CellCallback] = None,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        resume: bool = False,
    ) -> CampaignResult:
        """Execute every cell serially; ``on_cell`` is called after each.

        This is the reference implementation that the parallel path is
        tested against; a cell that raises propagates the exception.

        With ``checkpoint_dir`` set, every finished cell is durably
        recorded (atomic write) before the next begins; ``resume=True``
        restores previously recorded rows instead of re-running them
        (``on_cell`` fires only for freshly executed cells).
        """
        checkpoint, completed = self._open_checkpoint(checkpoint_dir, resume)
        result = CampaignResult()
        for index, cell in enumerate(self.cells):
            if index in completed:
                result.rows.append(completed[index])
                continue
            row = run_cell(cell, self.run_config)
            if checkpoint is not None:
                checkpoint.record(index, row)
            result.rows.append(row)
            if on_cell is not None:
                on_cell(cell, row)
        return result

    def run_parallel(
        self,
        max_workers: Optional[int] = None,
        on_cell: Optional[CellCallback] = None,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        resume: bool = False,
        cell_timeout: Optional[float] = None,
        retries: int = 1,
    ) -> CampaignResult:
        """Execute the grid on a process pool (see :mod:`repro.sim.parallel`).

        Returns rows identical to :meth:`run` for any ``max_workers``;
        ``on_cell`` fires in *completion* order (progress), while the
        returned rows are always in cell order. A cell that raises in a
        worker is retried (``retries`` times) and then recorded as a
        failed row (``row.error``) instead of aborting the sweep;
        ``cell_timeout`` additionally re-dispatches cells whose worker
        has gone silent for that many seconds (stragglers, lost
        workers). Checkpointing semantics match :meth:`run`: finished
        cells are durably recorded as they complete, and ``resume=True``
        skips cells already on disk.
        """
        from repro.sim.parallel import run_cells_parallel

        checkpoint, completed = self._open_checkpoint(checkpoint_dir, resume)
        pending = [
            (index, cell)
            for index, cell in enumerate(self.cells)
            if index not in completed
        ]
        index_of = {id(cell): index for index, cell in pending}

        def record(cell: CampaignCell, row: CampaignRow) -> None:
            if checkpoint is not None:
                checkpoint.record(index_of[id(cell)], row)
            if on_cell is not None:
                on_cell(cell, row)

        fresh = run_cells_parallel(
            [cell for _, cell in pending],
            self.run_config,
            max_workers=max_workers,
            on_row=record,
            retries=retries,
            cell_timeout=cell_timeout,
        )
        rows: List[Optional[CampaignRow]] = [None] * len(self.cells)
        for index, row in completed.items():
            rows[index] = row
        for (index, _), row in zip(pending, fresh):
            rows[index] = row
        return CampaignResult(rows=rows)


__all__ = [
    "Campaign",
    "CampaignCell",
    "CampaignRow",
    "CampaignResult",
    "CampaignRunConfig",
    "CAMPAIGN_RECORD_FIELDS",
    "run_cell",
]
