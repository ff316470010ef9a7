"""Tests for the experiment campaign runner."""

import pytest

from repro.sim.campaign import Campaign, CampaignResult, CampaignRow
from repro.sim.testbed import WorkloadSpec


def tiny_campaign(**kwargs):
    defaults = dict(
        ratios=(0.17, 0.25),
        workloads={
            "low": WorkloadSpec(target_utilization=0.10, modulation_sigma=0.0),
            "high": WorkloadSpec(target_utilization=0.30, modulation_sigma=0.0),
        },
        seeds=(3,),
        n_servers=80,
        duration_hours=0.5,
        warmup_hours=0.1,
    )
    defaults.update(kwargs)
    return Campaign(**defaults)


@pytest.fixture(scope="module")
def campaign_result():
    return tiny_campaign().run()


class TestCampaign:
    def test_grid_size(self):
        campaign = tiny_campaign(seeds=(1, 2))
        assert len(campaign) == 2 * 2 * 2

    def test_validation(self):
        with pytest.raises(ValueError):
            Campaign(ratios=())
        with pytest.raises(ValueError):
            Campaign(seeds=())

    def test_run_produces_row_per_cell(self, campaign_result):
        assert len(campaign_result) == 4
        for row in campaign_result.rows:
            assert 0.0 <= row.u_mean <= 0.5
        # A tiny half-hour cell carries about 0.13 (one standard
        # deviation) of throughput sampling noise on G_TPW, so the bound
        # holds for the mean over seeds 1-10, not for one seed's cell.
        seeds = tiny_campaign(seeds=tuple(range(1, 11))).run()
        for r_o in (0.17, 0.25):
            for workload in ("low", "high"):
                assert seeds.mean_gtpw(r_o, workload) <= r_o + 0.12

    def test_progress_callback(self):
        seen = []
        tiny_campaign(ratios=(0.17,), seeds=(3,)).run(
            on_cell=lambda cell, result: seen.append(cell.label())
        )
        assert len(seen) == 2
        assert all("r_O=0.17" in label for label in seen)

    def test_filter_and_mean(self, campaign_result):
        low_rows = campaign_result.filter(workload="low")
        assert len(low_rows) == 2
        mean = campaign_result.mean_gtpw(0.17, "low")
        assert mean == pytest.approx(
            campaign_result.filter(r_o=0.17, workload="low")[0].g_tpw
        )
        with pytest.raises(KeyError):
            campaign_result.mean_gtpw(0.99)

    def test_best_ratio_modes(self, campaign_result):
        assert campaign_result.best_ratio("worst_case") in (0.17, 0.25)
        assert campaign_result.best_ratio("mean") in (0.17, 0.25)

    def test_save_csv(self, campaign_result, tmp_path):
        csv_path = tmp_path / "campaign.csv"
        campaign_result.save_csv(csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(campaign_result)
        assert lines[0].startswith("r_o,workload,seed")
        assert lines[1].split(",")[1] in ("low", "high")

    def test_empty_result_helpers(self):
        result = CampaignResult()
        with pytest.raises(ValueError):
            result.best_ratio()

    def test_save_csv_empty_result_writes_header_only(self, tmp_path):
        """Regression: an empty campaign used to crash with IndexError."""
        from repro.sim.campaign import CAMPAIGN_RECORD_FIELDS

        path = tmp_path / "empty.csv"
        CampaignResult().save_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines == [",".join(CAMPAIGN_RECORD_FIELDS)]

    def test_failed_row_record(self):
        cell = tiny_campaign().cells[0]
        row = CampaignRow.failed(cell, "ValueError: boom")
        assert not row.ok
        record = row.as_record()
        assert record["error"] == "ValueError: boom"
        assert record["p_mean"] != record["p_mean"]  # NaN
        healthy = CampaignResult(rows=[row])
        assert healthy.failed_rows == [row]
        with pytest.raises(KeyError):
            healthy.mean_gtpw(cell.over_provision_ratio)
