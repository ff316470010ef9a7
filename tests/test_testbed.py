"""Tests for the Testbed builder, its seed contract and throughput tracking."""

import numpy as np
import pytest

from repro.sim.experiment import ControlledExperiment, ExperimentConfig
from repro.sim.fleet_experiment import (
    FleetExperiment,
    FleetExperimentConfig,
    FleetRowSpec,
)
from repro.sim.testbed import Testbed, ThroughputTracker, WorkloadSpec
from repro.workload.generator import (
    BurstyRateProfile,
    ModulatedRateProfile,
)


class TestWorkloadSpec:
    def test_presets_ordered_by_intensity(self):
        light = WorkloadSpec.light()
        typical = WorkloadSpec.typical()
        heavy = WorkloadSpec.heavy()
        assert light.target_utilization < typical.target_utilization
        assert typical.target_utilization < heavy.target_utilization

    def test_scaled(self):
        spec = WorkloadSpec(target_utilization=0.2).scaled(1.5)
        assert spec.target_utilization == pytest.approx(0.3)

    @pytest.mark.parametrize("target", [0.0, 1.5])
    def test_invalid_target(self, target):
        with pytest.raises(ValueError):
            WorkloadSpec(target_utilization=target)


class TestTestbedConstruction:
    def test_builds_requested_fleet(self):
        testbed = Testbed(rows=(80,), seed=0)
        assert len(testbed.row.servers) == 80
        assert len(testbed.row.racks) == 2

    def test_rejects_non_rack_multiple(self):
        with pytest.raises(ValueError, match="multiple"):
            Testbed(rows=(50,))

    def test_parity_split_covers_fleet(self):
        testbed = Testbed(rows=(80,), seed=0)
        experiment, control = testbed.split_by_parity()
        ids = {s.server_id for s in experiment.servers} | {
            s.server_id for s in control.servers
        }
        assert ids == {s.server_id for s in testbed.row.servers}

    def test_rate_profile_composition(self):
        testbed = Testbed(rows=(80,), seed=0)
        spec = WorkloadSpec(
            target_utilization=0.2, bursts_per_day=2.0, modulation_sigma=0.05
        )
        profile = testbed.build_rate_profile(spec, 3600.0)
        assert isinstance(profile, ModulatedRateProfile)
        assert isinstance(profile.base, BurstyRateProfile)

    def test_rate_profile_without_extras(self):
        testbed = Testbed(rows=(80,), seed=0)
        spec = WorkloadSpec(
            target_utilization=0.2, bursts_per_day=0.0, modulation_sigma=0.0
        )
        profile = testbed.build_rate_profile(spec, 3600.0)
        from repro.workload.generator import DiurnalRateProfile

        assert isinstance(profile, DiurnalRateProfile)

    def test_workload_runs_and_places_jobs(self):
        testbed = Testbed(rows=(80,), seed=0)
        generator = testbed.add_batch_workload(
            WorkloadSpec(target_utilization=0.2), 1800.0
        )
        generator.start(1800.0)
        testbed.engine.run(until=1800.0)
        assert testbed.scheduler.stats.placed > 50


def _rng_states(testbed: Testbed, row: int) -> tuple:
    return (
        testbed.schedulers[row].rng.bit_generator.state,
        testbed._workload_rngs[row].bit_generator.state,
        testbed._modulation_seeds[row],
    )


class TestSeedContract:
    """``SeedSequence(seed).spawn(1 + 3 * len(rows))``: the monitor takes
    child 1, the rows take the rest in order, three each."""

    def test_one_row_fleet_seeds_like_the_single_row_experiment(self):
        single = ControlledExperiment(ExperimentConfig(n_servers=80, seed=5))
        fleet = FleetExperiment(
            FleetExperimentConfig(rows=(FleetRowSpec(n_servers=80),), seed=5)
        )
        assert single.monitor.rng.bit_generator.state == (
            fleet.monitor.rng.bit_generator.state
        )
        assert _rng_states(single.testbed, 0) == _rng_states(fleet.testbed, 0)

    def test_three_row_fleet_takes_its_children_in_order(self):
        fleet = FleetExperiment(
            FleetExperimentConfig(rows=(FleetRowSpec(n_servers=40),) * 3, seed=5)
        )
        children = np.random.SeedSequence(5).spawn(10)
        assert fleet.monitor.rng.bit_generator.state == (
            np.random.default_rng(children[1]).bit_generator.state
        )
        # row 0: children 0, 2 and 3; rows 1 and 2: children 4-9
        for row, (sched, workload, modulation) in enumerate(
            [children[0:1] + children[2:4], children[4:7], children[7:10]]
        ):
            assert _rng_states(fleet.testbed, row) == (
                np.random.default_rng(sched).bit_generator.state,
                np.random.default_rng(workload).bit_generator.state,
                int(modulation.generate_state(1)[0]),
            )

    def test_rows_are_contiguous_pools_on_one_store(self):
        testbed = Testbed(rows=(40, 80), seed=0)
        assert [row.name for row in testbed.rows] == ["row-0", "row-1"]
        assert [s.server_id for s in testbed.rows[1].servers] == list(range(40, 120))
        assert testbed.rows[0].state is testbed.rows[1].state is testbed.state
        for row, scheduler in zip(testbed.rows, testbed.schedulers):
            assert scheduler.tracker.servers == row.servers
        with pytest.raises(ValueError):
            testbed.row  # several rows: name one


class TestThroughputTracker:
    def test_counts_by_group(self):
        testbed = Testbed(rows=(80,), seed=0)
        experiment, control = testbed.split_by_parity()
        testbed.throughput.track(experiment)
        testbed.throughput.track(control)
        generator = testbed.add_batch_workload(
            WorkloadSpec(target_utilization=0.2), 1800.0
        )
        generator.start(1800.0)
        testbed.engine.run(until=1800.0)
        total_e = testbed.throughput.total("experiment")
        total_c = testbed.throughput.total("control")
        assert total_e + total_c == testbed.scheduler.stats.placed
        # Statistically similar groups receive similar shares.
        assert abs(total_e - total_c) < 0.3 * (total_e + total_c)

    def test_window_total(self):
        engine_testbed = Testbed(rows=(80,), seed=0)
        experiment, _ = engine_testbed.split_by_parity()
        tracker = engine_testbed.throughput
        tracker.track(experiment)
        record = tracker.records["experiment"]
        record.record(5)
        record.record(5)
        record.record(10)
        assert tracker.window_total("experiment", 5 * 60.0, 6 * 60.0) == 2
        assert tracker.window_total("experiment", 0.0, 20 * 60.0) == 3

    def test_wait_times_recorded(self):
        testbed = Testbed(rows=(80,), seed=0)
        experiment, _ = testbed.split_by_parity()
        testbed.throughput.track(experiment)
        generator = testbed.add_batch_workload(
            WorkloadSpec(target_utilization=0.2), 1800.0
        )
        generator.start(1800.0)
        testbed.engine.run(until=1800.0)
        record = testbed.throughput.records["experiment"]
        assert len(record.wait_times) == record.total
        # Unsaturated cluster: jobs place immediately.
        assert record.mean_wait() == pytest.approx(0.0, abs=1e-6)
        assert record.wait_percentile(99) >= 0.0

    def test_wait_times_grow_when_frozen(self):
        testbed = Testbed(rows=(80,), seed=0)
        experiment, control = testbed.split_by_parity()
        testbed.throughput.track(experiment)
        testbed.throughput.track(control)
        testbed.scheduler.set_frozen(testbed.row.state_indices, True)

        from repro.sim.events import EventPriority

        def unfreeze_all():
            testbed.scheduler.set_frozen(testbed.row.state_indices, False)

        generator = testbed.add_batch_workload(
            WorkloadSpec(target_utilization=0.2), 1200.0
        )
        generator.start(600.0)
        testbed.engine.schedule(600.0, EventPriority.GENERIC, unfreeze_all)
        testbed.engine.run(until=1200.0)
        waits = (
            testbed.throughput.records["experiment"].wait_times
            + testbed.throughput.records["control"].wait_times
        )
        assert max(waits) > 60.0  # jobs queued while everything was frozen

    def test_empty_record_wait_stats(self):
        from repro.sim.testbed import ThroughputRecord

        record = ThroughputRecord()
        assert record.mean_wait() == 0.0
        assert record.wait_percentile(99.9) == 0.0

    def test_untracked_server_ignored(self):
        testbed = Testbed(rows=(80,), seed=0)
        tracker = ThroughputTracker(testbed.engine)
        # No groups tracked: placements on any server are ignored.
        from repro.workload.job import Job

        job = Job(1, 10.0)
        tracker.on_placement(job, testbed.row.servers[0])
        assert tracker.records == {}
