"""Tests for the Section 4.1.2 group-similarity validation."""

from repro.sim.testbed import Testbed, WorkloadSpec
from repro.sim.validation import GroupSimilarityReport, validate_group_similarity


class TestReport:
    def test_acceptable_thresholds(self):
        good = GroupSimilarityReport(0.002, 0.9, 24.0, 400)
        assert good.acceptable()
        biased = GroupSimilarityReport(0.05, 0.9, 24.0, 400)
        assert not biased.acceptable()
        uncorrelated = GroupSimilarityReport(0.002, 0.1, 24.0, 400)
        assert not uncorrelated.acceptable()


class TestValidation:
    def test_small_run_passes(self):
        report = validate_group_similarity(
            hours=3.0,
            n_servers=400,
            workload=WorkloadSpec(target_utilization=0.2, modulation_sigma=0.1),
            seed=3,
        )
        assert report.acceptable()
        assert report.mean_power_difference < 0.01
        assert report.n_servers == 400
        assert report.hours == 3.0


class TestStartServices:
    def test_starts_monitor_and_generators(self):
        testbed = Testbed(rows=(80,), seed=0)
        testbed.monitor.register_group(testbed.row)
        testbed.add_batch_workload(WorkloadSpec(target_utilization=0.2), 1800.0).start(1800.0)
        testbed.monitor.start(1800.0)
        testbed.engine.run(until=1800.0)
        assert testbed.monitor.samples_taken > 20
        assert testbed.scheduler.stats.placed > 50
