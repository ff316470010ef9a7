"""Tests for experiment-result JSON export."""

import json

import pytest

from repro.analysis.serialize import result_to_dict
from repro.sim.experiment import ControlledExperiment, ExperimentConfig
from repro.sim.testbed import WorkloadSpec


@pytest.fixture(scope="module")
def small_result():
    config = ExperimentConfig(
        n_servers=80,
        duration_hours=0.5,
        warmup_hours=0.1,
        workload=WorkloadSpec(target_utilization=0.2, modulation_sigma=0.0),
        seed=3,
    )
    return ControlledExperiment(config).run()


class TestResultJson:
    def test_dict_structure(self, small_result):
        doc = result_to_dict(small_result)
        assert doc["config"]["n_servers"] == 80
        assert doc["config"]["workload"]["target_utilization"] == 0.2
        assert doc["experiment"]["summary"]["name"] == "experiment"
        assert doc["r_t"] == small_result.r_t
        assert len(doc["experiment"]["normalized_power"]) == len(
            small_result.experiment.normalized_power
        )

    def test_series_can_be_omitted(self, small_result):
        doc = result_to_dict(small_result, include_series=False)
        assert "normalized_power" not in doc["experiment"]
        assert "summary" in doc["experiment"]

    def test_json_round_trip(self, small_result):
        doc = result_to_dict(small_result)
        assert json.loads(json.dumps(doc)) == doc

    def test_non_serializable_config_fields_fall_back_to_repr(self, tmp_path):
        from repro.scheduler.policies import LeastLoadedPolicy

        config = ExperimentConfig(
            n_servers=80,
            duration_hours=0.2,
            warmup_hours=0.05,
            workload=WorkloadSpec(target_utilization=0.15, modulation_sigma=0.0),
            placement_policy=LeastLoadedPolicy(),
            seed=1,
        )
        result = ControlledExperiment(config).run()
        doc = result_to_dict(result, include_series=False)
        assert "LeastLoaded" in doc["config"]["placement_policy"]
        json.dumps(doc)  # must not raise
