"""Integration tests for the controlled A/B experiment harness.

These run short (tens of simulated minutes) experiments on a small fleet;
the benchmarks run the full paper-scale configurations.
"""

import numpy as np
import pytest

from repro.sim.experiment import ControlledExperiment, ExperimentConfig
from repro.sim.testbed import Testbed, WorkloadSpec


def small_config(**kwargs):
    defaults = dict(
        n_servers=80,
        duration_hours=1.0,
        warmup_hours=0.25,
        workload=WorkloadSpec(target_utilization=0.20, modulation_sigma=0.0),
        seed=11,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestHarnessSetup:
    def test_parity_split_is_even(self):
        testbed = Testbed(rows=(80,), seed=0)
        experiment, control = testbed.split_by_parity()
        assert len(experiment) == len(control) == 40
        assert all(s.server_id % 2 == 0 for s in experiment.servers)
        assert all(s.server_id % 2 == 1 for s in control.servers)

    def test_budgets_scaled_on_both_groups(self):
        experiment = ControlledExperiment(small_config(over_provision_ratio=0.25))
        assert experiment.experiment_group.over_provision_ratio == pytest.approx(0.25)
        assert experiment.control_group.over_provision_ratio == pytest.approx(0.25)

    def test_scale_experiment_only_mode(self):
        experiment = ControlledExperiment(
            small_config(over_provision_ratio=0.25, scale_control_budget=False)
        )
        assert experiment.experiment_group.over_provision_ratio == pytest.approx(0.25)
        assert experiment.control_group.over_provision_ratio == pytest.approx(0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duration_hours": 0.0},
            {"warmup_hours": -1.0},
            {"over_provision_ratio": -0.1},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            small_config(**kwargs)


class TestRunBehaviour:
    def test_run_produces_balanced_groups(self):
        """Without control pressure, the parity groups behave identically
        (the paper verifies <0.46% mean power difference)."""
        result = ControlledExperiment(small_config(ampere_enabled=False)).run()
        p_e = result.experiment.summary.p_mean
        p_c = result.control.summary.p_mean
        assert abs(p_e - p_c) / p_c < 0.02
        assert 0.9 < result.r_t < 1.1

    def test_groups_power_correlated(self):
        """Both groups track the same demand swings (paper: corr 0.946).

        Correlation needs shared variation to measure, so this test keeps
        the AR(1) demand modulation on.
        """
        result = ControlledExperiment(
            small_config(
                ampere_enabled=False,
                n_servers=400,  # paper scale: per-group noise must not drown the signal
                duration_hours=3.0,
                workload=WorkloadSpec(target_utilization=0.20, modulation_sigma=0.10),
            )
        ).run()
        corr = np.corrcoef(
            result.experiment.normalized_power, result.control.normalized_power
        )[0, 1]
        assert corr > 0.6

    def test_series_cover_measurement_window_only(self):
        config = small_config()
        result = ControlledExperiment(config).run()
        times = result.experiment.power_times
        assert times.min() >= config.warmup_seconds
        assert times.max() < config.end_seconds
        expected_samples = int(config.duration_hours * 60)
        assert abs(len(times) - expected_samples) <= 1

    def test_queue_waits_cover_measurement_window_only(self):
        """A warm-up backlog (the whole row frozen for its first half)
        leaves long waits on the record, none of them in the result: the
        result reads the waits of the placements in [warmup, end)."""
        from repro.sim.events import EventPriority

        experiment = ControlledExperiment(small_config(ampere_enabled=False))
        experiment.start()
        testbed = experiment.testbed
        slots = testbed.row.state_indices
        testbed.scheduler.set_frozen(slots, True)
        testbed.engine.schedule(
            450.0, EventPriority.GENERIC, testbed.scheduler.set_frozen, slots, False
        )
        result = experiment.finish()
        config = experiment.config
        window = (int(config.warmup_seconds // 60), int(config.end_seconds // 60))
        for name, outcome in (("experiment", result.experiment), ("control", result.control)):
            record = testbed.throughput.records[name]
            waits = record.waits(window)
            assert len(waits) == outcome.throughput
            assert record.mean_wait() > 10.0  # the warm-up backlog
            assert max(record.wait_times) > 300.0
            assert outcome.mean_wait_seconds == record.mean_wait(window) < 1.0
            assert outcome.p99_wait_seconds == record.wait_percentile(99.0, window)

    def test_cannot_run_twice(self):
        experiment = ControlledExperiment(small_config())
        experiment.run()
        with pytest.raises(RuntimeError):
            experiment.run()

    def test_reproducible_for_seed(self):
        a = ControlledExperiment(small_config()).run()
        b = ControlledExperiment(small_config()).run()
        assert a.experiment.summary == b.experiment.summary
        assert a.control.summary == b.control.summary
        assert a.r_t == b.r_t

    def test_different_seeds_differ(self):
        a = ControlledExperiment(small_config(seed=1)).run()
        b = ControlledExperiment(small_config(seed=2)).run()
        assert a.experiment.throughput != b.experiment.throughput


class TestControlEffect:
    def overloaded_config(self, **kwargs):
        # Demand high enough that the scaled budget is breached.
        return small_config(
            workload=WorkloadSpec(target_utilization=0.36, modulation_sigma=0.0),
            over_provision_ratio=0.25,
            duration_hours=2.0,
            **kwargs,
        )

    def test_ampere_reduces_violations(self):
        with_control = ControlledExperiment(self.overloaded_config()).run()
        assert with_control.control.summary.violations > 0, "setup not hot enough"
        assert (
            with_control.experiment.summary.violations
            < with_control.control.summary.violations
        )

    def test_controller_active_under_load(self):
        result = ControlledExperiment(self.overloaded_config()).run()
        assert result.experiment.summary.u_mean > 0
        assert len(result.experiment.u_values) > 0

    def test_control_costs_throughput(self):
        result = ControlledExperiment(self.overloaded_config()).run()
        assert result.r_t < 1.0

    def test_no_ampere_means_no_freezing(self):
        result = ControlledExperiment(
            self.overloaded_config(ampere_enabled=False)
        ).run()
        assert result.experiment.summary.u_mean == 0.0
        assert len(result.experiment.u_values) == 0

    def test_capping_safety_net_prevents_sampled_violations(self):
        result = ControlledExperiment(
            self.overloaded_config(ampere_enabled=False, capping_enabled=True)
        ).run()
        assert result.capping_stats is not None
        assert result.capping_stats.cap_actions > 0
        # Capping reacts within seconds, so sampled violations are rare.
        assert (
            result.experiment.summary.violations
            < result.control.summary.violations
        )

    def test_gain_formula_consistency(self):
        result = ControlledExperiment(self.overloaded_config()).run()
        expected = result.r_t * 1.25 - 1.0
        assert result.g_tpw == pytest.approx(expected)
        assert result.violations() == {
            "experiment": result.experiment.summary.violations,
            "control": result.control.summary.violations,
        }
