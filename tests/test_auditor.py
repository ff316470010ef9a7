"""The online state-invariant auditor (``repro.sim.audit``).

Three contracts under test:

1. **Detection** -- each check fires on the corruption it claims to
   catch (seeded by mutating live state mid-run), and stays silent on a
   healthy simulation.
2. **Policy** -- ``on_violation`` modes behave as documented: ``raise``
   aborts, ``record`` accumulates (bounded), ``escalate`` drives the
   safety ladder to WARNING.
3. **Neutrality** -- arming the auditor at any sampling rate leaves the
   experiment trajectory byte-identical: it consumes no randomness and
   mutates nothing.
"""

import pickle

import numpy as np
import pytest

from repro.core.safety import SafetyConfig, SafetyState
from repro.sim.audit import (
    ALL_CHECKS,
    AuditorConfig,
    InvariantViolation,
    StateAuditor,
)
from repro.sim.experiment import ControlledExperiment
from repro.sim.fleet_experiment import FleetExperiment
from tests.test_durability import (
    result_json_without_config,
    tiny_config,
    tiny_fleet_config,
)


def advanced_experiment(**overrides) -> ControlledExperiment:
    """A small experiment advanced past warm-up, ready to be corrupted."""
    experiment = ControlledExperiment(tiny_config(**overrides))
    experiment.start()
    experiment.advance(1800.0)
    return experiment


def recording_auditor(experiment, **config_overrides) -> StateAuditor:
    defaults = dict(sample_fraction=1.0, on_violation="record")
    defaults.update(config_overrides)
    return experiment.build_auditor(AuditorConfig(**defaults))


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------


def test_healthy_run_has_no_violations():
    experiment = advanced_experiment(safety=SafetyConfig())
    assert recording_auditor(experiment).audit(sample=False) == []


def test_corrupt_power_cache_detected():
    experiment = advanced_experiment()
    state = experiment.testbed.state
    slots = np.arange(state.n, dtype=np.intp)
    live = slots[state.live_mask(slots)]
    assert live.size, "expected live servers mid-run"
    # Seed a coherent cache entry (whether or not the run happens to
    # have one valid right now), then corrupt it.
    target = live[:1]
    state.power_cache[target] = state.server_powers(target)
    state.power_valid[target] = True
    state.power_cache[target] += 7.5
    violations = recording_auditor(experiment).audit(sample=False)
    assert [v.check for v in violations] == ["power_cache"]
    assert "diverges from recompute" in violations[0].message


def test_nonpositive_frequency_detected():
    experiment = advanced_experiment()
    experiment.testbed.state.frequency[3] = -0.25
    violations = recording_auditor(experiment).audit(sample=False)
    assert any(
        v.check == "numeric" and "frequency" in v.message for v in violations
    )


def test_overcommitted_cores_detected():
    experiment = advanced_experiment()
    state = experiment.testbed.state
    state.used_cores[5] = state.cores[5] + 2.0
    violations = recording_auditor(experiment).audit(sample=False)
    assert any(
        v.check == "numeric" and "used_cores" in v.message for v in violations
    )


def test_frozen_mask_drift_detected():
    experiment = advanced_experiment()
    scheduler = experiment.testbed.scheduler
    server = scheduler.tracker.servers[0]
    assert server.server_id not in scheduler.frozen_server_ids()
    server.frozen = True  # bypass the scheduler's freeze bookkeeping
    violations = recording_auditor(experiment).audit(sample=False)
    assert [v.check for v in violations] == ["masks"]
    assert "disagrees with scheduler set" in violations[0].message


def test_failed_server_with_capped_frequency_detected():
    experiment = advanced_experiment()
    state = experiment.testbed.state
    state.fail_servers(np.array([2], dtype=np.intp))
    state.frequency[2] = 0.5  # violate the fail() full-frequency contract
    violations = recording_auditor(experiment).audit(sample=False)
    assert any(
        v.check == "masks" and "failed server" in v.message for v in violations
    )


def fitting_slot(experiment, parity=None) -> int:
    """A store slot the placement index holds at a positive fit level."""
    fit = experiment.testbed.scheduler.tracker.fit_index
    assert fit is not None, "placements build the fit index"
    for i, level in enumerate(fit.levels):
        slot = fit.first + i
        if level > 0 and (parity is None or slot % 2 == parity):
            return slot
    raise AssertionError("no server fits any demand class")


def test_raw_column_write_is_index_drift():
    experiment = advanced_experiment()
    state = experiment.testbed.state
    victim = fitting_slot(experiment)
    # Batched fail() semantics without Server.fail(): the index keeps the
    # server's old fit level.
    state.fail_servers(np.array([victim], dtype=np.intp))
    violations = recording_auditor(experiment).audit(sample=False)
    index = [v for v in violations if v.check == "index"]
    assert index and "fit level disagrees" in index[0].message
    assert index[0].details["server_ids"] == [int(state.server_ids[victim])]
    assert index[0].details["fresh_levels"] == [0]
    assert any("count" in v.message for v in index)


def test_sampled_index_check_sees_only_its_stratum():
    experiment = advanced_experiment()
    state = experiment.testbed.state
    state.fail_servers(np.array([fitting_slot(experiment, parity=0)], dtype=np.intp))
    auditor = recording_auditor(experiment, sample_fraction=0.5)
    seen = [
        [v.check for v in auditor.audit(sample=True) if v.check == "index"]
        for _ in range(2)
    ]
    # The victim falls in the even stratum only; a sampled pass compares
    # levels, never the O(N) block counts.
    assert seen == [["index"], []]


def test_index_check_skips_unbuilt_index():
    experiment = ControlledExperiment(tiny_config())
    experiment.start()
    assert experiment.testbed.scheduler.tracker.fit_index is None
    experiment.testbed.state.fail_servers(np.array([0], dtype=np.intp))
    violations = recording_auditor(experiment).audit(sample=False)
    assert "index" not in {v.check for v in violations}


def test_event_queue_corruption_detected():
    experiment = advanced_experiment()
    engine = experiment.testbed.engine
    heap = engine._heap
    assert heap, "engine should have pending events mid-run"
    # Date the root event before *now*: breaks time monotonicity.
    entry = heap[0]
    heap[0] = (engine.now - 100.0,) + tuple(entry[1:])
    violations = recording_auditor(experiment).audit(sample=False)
    assert violations and violations[0].check == "event_queue"


@pytest.mark.parametrize("corruption", ["past", "twice", "heap"])
def test_arrival_queue_corruption_detected(corruption):
    experiment = advanced_experiment()
    engine = experiment.testbed.engine
    arrivals = engine._arrivals
    assert len(arrivals) == 1, "the row's stream should have a job queued"
    time, priority, sequence, stream = arrivals[0]
    if corruption == "past":
        arrivals[0] = (engine.now - 100.0, priority, sequence, stream)
        message = "before now"
    elif corruption == "twice":
        arrivals.append((time + 1.0, priority, sequence + 10**6, stream))
        message = "queued twice"
    else:  # a child earlier than its parent, from another stream
        arrivals.append((engine.now, priority, sequence + 10**6, object()))
        message = "heap property"
    violations = recording_auditor(experiment).audit(sample=False)
    assert [v.check for v in violations] == ["event_queue"]
    assert message in violations[0].message


def test_ledger_overallocation_detected():
    experiment = FleetExperiment(tiny_fleet_config())
    experiment.start()
    experiment.advance(1800.0)
    row = experiment.ledger.rows()[0]
    row.allocation_watts = experiment.ledger.facility_budget_watts * 2.0
    violations = recording_auditor(experiment).audit(sample=False)
    checks = {v.check for v in violations}
    assert checks == {"ledger"}
    messages = " | ".join(v.message for v in violations)
    assert "above the facility budget" in messages
    assert "above its feed rating" in messages


# ---------------------------------------------------------------------------
# Policy
# ---------------------------------------------------------------------------


def test_raise_mode_aborts_with_structured_violation():
    experiment = advanced_experiment()
    experiment.testbed.state.frequency[0] = -1.0
    auditor = recording_auditor(experiment, on_violation="raise")
    with pytest.raises(InvariantViolation) as excinfo:
        auditor.audit(sample=False)
    assert excinfo.value.check == "numeric"
    assert excinfo.value.time == experiment.testbed.engine.now


def test_record_mode_accumulates_bounded():
    experiment = advanced_experiment()
    experiment.testbed.state.frequency[0] = -1.0
    auditor = recording_auditor(experiment, max_recorded=2)
    for _ in range(5):
        auditor.audit(sample=False)
    assert auditor.stats.violations == 5
    assert auditor.stats.violations_by_check == {"numeric": 5}
    assert len(auditor.stats.recorded) == 2  # bounded, counter keeps counting
    assert auditor.stats.passes == 5


def test_escalate_mode_drives_safety_ladder_to_warning():
    experiment = advanced_experiment(safety=SafetyConfig())
    assert experiment.safety is not None
    assert experiment.safety.state == SafetyState.NORMAL
    experiment.testbed.state.frequency[0] = -1.0
    auditor = recording_auditor(experiment, on_violation="escalate")
    auditor.audit(sample=False)
    assert experiment.safety.state >= SafetyState.WARNING


def test_violation_pickle_round_trip():
    violation = InvariantViolation(
        "ledger", "over budget", time=42.0, details={"total": 9.0}
    )
    clone = pickle.loads(pickle.dumps(violation))
    assert clone.check == "ledger"
    assert clone.message == "over budget"
    assert clone.time == 42.0
    assert clone.details == {"total": 9.0}
    assert str(clone) == str(violation)


def test_config_validation():
    with pytest.raises(ValueError):
        AuditorConfig(interval_seconds=0.0)
    with pytest.raises(ValueError):
        AuditorConfig(sample_fraction=0.0)
    with pytest.raises(ValueError):
        AuditorConfig(sample_fraction=1.5)
    with pytest.raises(ValueError):
        AuditorConfig(on_violation="ignore")
    with pytest.raises(ValueError):
        AuditorConfig(checks=("bogus",))
    with pytest.raises(ValueError):
        AuditorConfig(max_recorded=0)
    assert AuditorConfig().checks == ALL_CHECKS


# ---------------------------------------------------------------------------
# Sampling and neutrality
# ---------------------------------------------------------------------------


def test_sampling_rotation_covers_every_slot():
    experiment = advanced_experiment()
    auditor = recording_auditor(experiment, sample_fraction=0.25)
    n = experiment.testbed.state.n
    seen: set = set()
    for _ in range(4):  # stride 4: full coverage in four passes
        seen.update(auditor._sample_indices(sample=True).tolist())
        auditor.stats.passes += 1
    assert seen == set(range(n))


def test_sampled_pass_audits_fraction_of_fleet():
    experiment = advanced_experiment()
    auditor = recording_auditor(experiment, sample_fraction=0.25)
    indices = auditor._sample_indices(sample=True)
    n = experiment.testbed.state.n
    assert indices.size == pytest.approx(n / 4, abs=1)


@pytest.mark.parametrize("sample_fraction", [0.25, 1.0])
def test_auditor_leaves_trajectory_byte_identical(sample_fraction):
    plain = ControlledExperiment(tiny_config(safety=SafetyConfig())).run()
    audited_config = tiny_config(
        safety=SafetyConfig(),
        auditor=AuditorConfig(
            interval_seconds=120.0,
            sample_fraction=sample_fraction,
            on_violation="raise",
        ),
    )
    audited = ControlledExperiment(audited_config).run()
    assert audited.audit_stats is not None
    assert audited.audit_stats.passes > 0
    assert audited.audit_stats.violations == 0
    assert result_json_without_config(audited) == result_json_without_config(plain)


def test_experiment_result_carries_audit_stats():
    config = tiny_config(auditor=AuditorConfig(interval_seconds=300.0))
    result = ControlledExperiment(config).run()
    assert result.audit_stats is not None
    assert result.audit_stats.passes > 0
    assert result.audit_stats.servers_audited > 0
    plain = ControlledExperiment(tiny_config()).run()
    assert plain.audit_stats is None
