"""Determinism suite for the process-pool campaign runner.

The contract under test: ``Campaign.run_parallel`` returns rows
*byte-identical* to the serial reference ``Campaign.run`` for any worker
count or completion order, and a cell that raises inside a
worker surfaces as a failed row instead of aborting the sweep.
"""

import json
import os
import pickle
import time
from pathlib import Path

import pytest

from repro.analysis.serialize import campaign_rows_to_dicts
from repro.sim.campaign import (
    Campaign,
    CampaignCell,
    CampaignRow,
    CampaignRunConfig,
    run_cell,
)
from repro.sim.experiment import ControlledExperiment, ExperimentConfig
from repro.sim.parallel import default_worker_count, run_cells_parallel
from repro.sim.testbed import WorkloadSpec

FAIL_DIR_ENV = "REPRO_TEST_PARALLEL_FAIL_DIR"


def tiny_campaign(**kwargs):
    defaults = dict(
        ratios=(0.17, 0.25),
        workloads={"low": WorkloadSpec(target_utilization=0.10, modulation_sigma=0.0)},
        seeds=(3, 4),
        n_servers=40,
        duration_hours=0.2,
        warmup_hours=0.05,
    )
    defaults.update(kwargs)
    return Campaign(**defaults)


def rows_as_bytes(result) -> bytes:
    """Canonical byte representation: what 'byte-identical' means here."""
    return json.dumps(campaign_rows_to_dicts(result.rows), sort_keys=True).encode()


# ---------------------------------------------------------------------------
# Picklable fault-injection / ordering runners (module-level on purpose:
# pool workers resolve them by reference).
# ---------------------------------------------------------------------------


def _poison_runner(cell: CampaignCell, config: CampaignRunConfig) -> CampaignRow:
    """Fails deterministically for seed 99; counts attempts on disk."""
    fail_dir = os.environ.get(FAIL_DIR_ENV)
    if cell.seed == 99:
        if fail_dir:
            marker = Path(fail_dir) / f"attempt-{time.time_ns()}"
            marker.touch()
        raise RuntimeError("poison cell")
    return run_cell(cell, config)


def _fail_once_runner(cell: CampaignCell, config: CampaignRunConfig) -> CampaignRow:
    """Transient failure: raises the first time each seed is attempted."""
    marker = Path(os.environ[FAIL_DIR_ENV]) / f"seen-{cell.seed}"
    if not marker.exists():
        marker.touch()
        raise OSError("transient failure")
    return run_cell(cell, config)


def _straggler_runner(cell: CampaignCell, config: CampaignRunConfig) -> CampaignRow:
    """First attempt at the lowest seed stalls well past any cell_timeout;
    the speculative duplicate (and every other cell) runs normally."""
    marker = Path(os.environ[FAIL_DIR_ENV]) / "stalled-once"
    if cell.seed == 3 and not marker.exists():
        marker.touch()
        time.sleep(8.0)
    return run_cell(cell, config)


def _config_recording_fail_once_runner(
    cell: CampaignCell, config: CampaignRunConfig
) -> CampaignRow:
    """Transient failure that keeps what every dispatch received: each
    attempt pickles its config to disk before the first one raises."""
    fail_dir = Path(os.environ[FAIL_DIR_ENV])
    prefix = f"config-{cell.seed}-{cell.over_provision_ratio}"
    attempt = len(list(fail_dir.glob(f"{prefix}-*")))
    (fail_dir / f"{prefix}-{attempt}").write_bytes(pickle.dumps(config))
    if attempt == 0:
        raise OSError("transient failure")
    return run_cell(cell, config)


def _sleepy_dummy_runner(cell: CampaignCell, config: CampaignRunConfig) -> CampaignRow:
    """Finishes in *reverse* cell order (earlier seeds sleep longer), so
    completion order is shuffled relative to submission order."""
    time.sleep(0.03 * (10 - cell.seed))
    return CampaignRow(
        cell=cell,
        p_mean=float(cell.seed),
        p_max=float(cell.seed),
        u_mean=0.0,
        r_t=1.0,
        g_tpw=0.0,
        violations=cell.seed,
    )


# ---------------------------------------------------------------------------
# Determinism: parallel == serial, bit for bit
# ---------------------------------------------------------------------------


class TestDeterminism:
    @pytest.fixture(scope="class")
    def serial_result(self):
        return tiny_campaign().run()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_parallel_matches_serial(self, serial_result, workers):
        parallel = tiny_campaign().run_parallel(max_workers=workers)
        assert rows_as_bytes(parallel) == rows_as_bytes(serial_result)

    def test_rows_keep_cell_order_under_shuffled_completion(self):
        campaign = tiny_campaign(seeds=(1, 2, 3, 4))
        completion = []
        rows = run_cells_parallel(
            campaign.cells,
            campaign.run_config,
            max_workers=4,
            cell_runner=_sleepy_dummy_runner,
            on_row=lambda cell, row: completion.append(cell.seed),
        )
        # Output order is the cell order, regardless of completion order.
        assert [r.cell for r in rows] == list(campaign.cells)
        assert [r.violations for r in rows] == [c.seed for c in campaign.cells]
        # With 4 workers and reverse-proportional sleeps, at least some
        # cells must have completed out of submission order.
        assert completion != [c.seed for c in campaign.cells]

    def test_worker_count_default_bounded_by_cells(self):
        assert default_worker_count(1) == 1
        assert 1 <= default_worker_count(1000) <= (os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# Fault isolation: a raising cell becomes a failed row
# ---------------------------------------------------------------------------


class TestFaultIsolation:
    def test_poison_cell_surfaces_as_failed_row(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAIL_DIR_ENV, str(tmp_path))
        campaign = tiny_campaign(seeds=(3, 99))
        rows = run_cells_parallel(
            campaign.cells,
            campaign.run_config,
            max_workers=2,
            cell_runner=_poison_runner,
        )
        assert len(rows) == len(campaign.cells)
        by_seed = {r.cell.seed: r for r in rows}
        assert by_seed[3].ok
        failed = [r for r in rows if not r.ok]
        assert {r.cell.seed for r in failed} == {99}
        for row in failed:
            assert "RuntimeError: poison cell" in row.error
            assert row.p_mean != row.p_mean  # NaN metrics on failure
        # Each poison cell was attempted twice: initial run + one retry.
        attempts = list(tmp_path.glob("attempt-*"))
        assert len(attempts) == 2 * len(failed)

    def test_transient_failure_recovered_by_retry(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAIL_DIR_ENV, str(tmp_path))
        campaign = tiny_campaign(seeds=(3,))
        rows = run_cells_parallel(
            campaign.cells,
            campaign.run_config,
            max_workers=2,
            cell_runner=_fail_once_runner,
        )
        assert all(r.ok for r in rows)
        reference = [run_cell(cell, campaign.run_config) for cell in campaign.cells]
        assert [r.as_record() for r in rows] == [r.as_record() for r in reference]

    def test_zero_retries_records_first_failure(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAIL_DIR_ENV, str(tmp_path))
        campaign = tiny_campaign(seeds=(99,))
        rows = run_cells_parallel(
            campaign.cells,
            campaign.run_config,
            max_workers=1,
            cell_runner=_poison_runner,
            retries=0,
        )
        assert all(not r.ok for r in rows)
        assert len(list(tmp_path.glob("attempt-*"))) == len(rows)

    def test_failed_rows_are_excluded_from_aggregation(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAIL_DIR_ENV, str(tmp_path))
        campaign = tiny_campaign(seeds=(3, 99))
        from repro.sim.campaign import CampaignResult

        rows = run_cells_parallel(
            campaign.cells,
            campaign.run_config,
            max_workers=2,
            cell_runner=_poison_runner,
        )
        result = CampaignResult(rows=rows)
        assert len(result.failed_rows) == 2  # one per ratio
        # mean_gtpw averages only healthy rows and still works.
        assert result.mean_gtpw(0.17, "low") == pytest.approx(
            [r for r in rows if r.ok and r.cell.over_provision_ratio == 0.17][0].g_tpw
        )


# ---------------------------------------------------------------------------
# Hardening: straggler re-dispatch, retry determinism, backoff
# ---------------------------------------------------------------------------


class TestHardening:
    def test_straggler_redispatch_is_byte_identical(self, tmp_path, monkeypatch):
        """A stalled worker's cell is speculatively re-dispatched and the
        campaign finishes without waiting out the stall; the duplicate's
        rows are byte-identical to the serial reference."""
        monkeypatch.setenv(FAIL_DIR_ENV, str(tmp_path))
        campaign = tiny_campaign(seeds=(3, 4))
        started = time.monotonic()
        rows = run_cells_parallel(
            campaign.cells,
            campaign.run_config,
            max_workers=2,
            cell_runner=_straggler_runner,
            cell_timeout=1.0,
        )
        elapsed = time.monotonic() - started
        assert (tmp_path / "stalled-once").exists(), "straggler never dispatched"
        assert elapsed < 8.0, "campaign waited out the stalled worker"
        reference = [run_cell(cell, campaign.run_config) for cell in campaign.cells]
        assert [r.as_record() for r in rows] == [r.as_record() for r in reference]

    def test_retry_redispatch_keeps_backend_pinned(self, tmp_path, monkeypatch):
        """Regression: a retried cell must run on exactly what its first
        dispatch and the serial reference ran on. With one engine left,
        nothing about the run is resolved on the worker: every attempt
        receives the parent's config unchanged, and the retried row
        equals the serial one."""
        monkeypatch.setenv(FAIL_DIR_ENV, str(tmp_path))
        campaign = tiny_campaign(seeds=(3,))
        rows = run_cells_parallel(
            campaign.cells,
            campaign.run_config,
            max_workers=2,
            cell_runner=_config_recording_fail_once_runner,
            retries=1,
        )
        assert all(r.ok for r in rows), [r.error for r in rows]
        for cell in campaign.cells:
            prefix = f"config-{cell.seed}-{cell.over_provision_ratio}"
            received = sorted(tmp_path.glob(f"{prefix}-*"))
            assert [p.name for p in received] == [f"{prefix}-0", f"{prefix}-1"]
            for path in received:
                assert pickle.loads(path.read_bytes()) == campaign.run_config
        reference = [run_cell(cell, campaign.run_config) for cell in campaign.cells]
        assert [r.as_record() for r in rows] == [r.as_record() for r in reference]

    def test_invalid_hardening_arguments_rejected(self):
        config = CampaignRunConfig()
        cells = tiny_campaign().cells
        with pytest.raises(ValueError):
            run_cells_parallel(cells, config, cell_timeout=0.0)


# ---------------------------------------------------------------------------
# API edges
# ---------------------------------------------------------------------------


class TestEdges:
    def test_empty_cell_list(self):
        assert run_cells_parallel([], CampaignRunConfig()) == []

    def test_invalid_arguments_rejected(self):
        config = CampaignRunConfig()
        cells = tiny_campaign().cells
        with pytest.raises(ValueError):
            run_cells_parallel(cells, config, max_workers=0)
        with pytest.raises(ValueError):
            run_cells_parallel(cells, config, retries=-1)

    def test_progress_callback_fires_once_per_cell(self):
        campaign = tiny_campaign()
        seen = []
        campaign.run_parallel(
            max_workers=2, on_cell=lambda cell, row: seen.append(cell)
        )
        assert sorted(seen, key=campaign.cells.index) == list(campaign.cells)


# ---------------------------------------------------------------------------
# The worker boundary: everything that crosses it must pickle
# ---------------------------------------------------------------------------


class TestPicklability:
    def test_cell_and_config_round_trip(self):
        campaign = tiny_campaign()
        for obj in (*campaign.cells, campaign.run_config):
            assert pickle.loads(pickle.dumps(obj)) == obj

    def test_campaign_row_round_trip(self):
        row = run_cell(tiny_campaign().cells[0], tiny_campaign().run_config)
        clone = pickle.loads(pickle.dumps(row))
        assert clone.as_record() == row.as_record()

    def test_experiment_config_and_result_round_trip(self):
        config = ExperimentConfig(
            n_servers=40, duration_hours=0.2, warmup_hours=0.05, seed=5
        )
        assert pickle.loads(pickle.dumps(config)) == config
        result = ControlledExperiment(config).run()
        clone = pickle.loads(pickle.dumps(result))
        assert clone.r_t == result.r_t
        assert clone.g_tpw == result.g_tpw
        assert clone.experiment.summary == result.experiment.summary
        light = result.without_series()
        assert light.experiment.normalized_power.size == 0
        assert light.r_t == result.r_t
        assert len(pickle.dumps(light)) < len(pickle.dumps(result))
