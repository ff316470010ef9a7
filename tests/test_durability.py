"""Durable snapshots and crash-consistent writes (``repro.durability``).

The headline contract: a simulation snapshotted at time T and restored
in a fresh process finishes with a result **byte-identical** to the
uninterrupted run -- on the production array loops and on the scalar
oracle loops, with chaos injected, for both the single-row and fleet
harnesses. Below it, the snapshot frame
(magic/version/checksum) rejects every corrupted input with a
structured error, and the atomic write helper never leaves torn files
or stray temporaries. Campaign checkpoint directories get the same
treatment at cell granularity.
"""

import json
import os
import pickle

import numpy as np
import pytest

from repro.analysis.serialize import result_to_dict
from repro.core.safety import SafetyConfig
from repro.durability import (
    SNAPSHOT_VERSION,
    SnapshotError,
    atomic_write_bytes,
    atomic_write_text,
    canonical_dumps,
    decode_snapshot,
    encode_snapshot,
    read_header,
    read_snapshot,
    write_snapshot,
)
from repro.faults.scenario import builtin_scenarios
from repro.fleet.config import FleetConfig
from repro.sim.campaign import Campaign
from repro.sim.checkpoint import CampaignCheckpoint, CheckpointError
from repro.sim.experiment import ControlledExperiment, ExperimentConfig
from repro.sim.fleet_experiment import (
    FleetExperiment,
    FleetExperimentConfig,
    FleetRowSpec,
)
from repro.sim.testbed import WorkloadSpec
from repro.tenancy import TenancyConfig, TenantSpec
from tests import oracles


def tiny_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        n_servers=40,
        duration_hours=1.0,
        warmup_hours=0.25,
        workload=WorkloadSpec.typical(),
        capping_enabled=True,
        seed=7,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def tiny_fleet_config(**overrides) -> FleetExperimentConfig:
    defaults = dict(
        rows=(
            FleetRowSpec(
                n_servers=40,
                workload=WorkloadSpec(target_utilization=0.40),
            ),
            FleetRowSpec(
                n_servers=40,
                workload=WorkloadSpec(target_utilization=0.06),
            ),
        ),
        duration_hours=1.0,
        warmup_hours=0.25,
        over_provision_ratio=0.25,
        fleet=FleetConfig(policy="demand-following"),
        safety=SafetyConfig(),
        seed=7,
    )
    defaults.update(overrides)
    return FleetExperimentConfig(**defaults)


def result_json_without_config(result) -> str:
    """Canonical result document minus the config (which differs when
    only the auditor knobs change, not the trajectory)."""
    doc = result_to_dict(result)
    doc.pop("config")
    return json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# Frame format
# ---------------------------------------------------------------------------


def test_frame_round_trip():
    payload = {"rows": [1, 2, 3], "label": "x"}
    data = encode_snapshot(payload, "experiment", {"seed": 7})
    obj, header = decode_snapshot(data, "experiment")
    assert obj == payload
    assert header["kind"] == "experiment"
    assert header["meta"] == {"seed": 7}


def test_frame_header_is_readable_without_payload(tmp_path):
    path = tmp_path / "x.snap"
    write_snapshot(path, {"a": 1}, "fleet", {"sim_now": 60.0, "seed": 3})
    header = read_header(path)
    assert header["kind"] == "fleet"
    assert header["meta"] == {"sim_now": 60.0, "seed": 3}


def test_frame_rejects_wrong_magic():
    with pytest.raises(SnapshotError, match="not a snapshot"):
        decode_snapshot(b'{"magic": "other", "version": 1}\nxx', "experiment")


def test_frame_rejects_future_version():
    data = encode_snapshot([1], "experiment", {})
    header, _, rest = data.partition(b"\n")
    doc = json.loads(header)
    doc["version"] = 99
    with pytest.raises(SnapshotError, match="version"):
        decode_snapshot(
            json.dumps(doc, sort_keys=True).encode() + b"\n" + rest, "experiment"
        )


def test_frame_rejects_version_2_snapshot():
    """Version 2 frames carried an engine backend in ``ClusterState`` and
    the header meta; version 3 frames pickled each run shape's own
    attribute layout (fleet lists/dicts named ``schedulers``,
    ``controllers``, ...) and kept runtime-armed injectors off the run;
    version 4 configs declared the shared fields per shape and carried
    the since-removed knobs (``monitor_noise_sigma``, ...); version 5
    telemetry registries held counter and gauge instruments instead of
    the components' collectors; version 6 event logs held control events
    as frozen dataclasses and a tenant resolver; version 7 power monitors
    held IPMI fleets and a stale-reading count; version 8 generators
    scheduled one engine event per thinning candidate; version 9
    controllers held no freeze policy when none was given; version 10
    testbeds held one row, scheduler and workload rng, and fleets built
    their topology without one. This build refuses all nine with the
    version error."""
    experiment = ControlledExperiment(tiny_config())
    experiment.start()
    header, _, payload = experiment.snapshot().partition(b"\n")
    doc = json.loads(header)
    assert doc["version"] == SNAPSHOT_VERSION == 11
    for version in (2, 3, 4, 5, 6, 7, 8, 9, 10):
        old = dict(doc, version=version, meta=dict(doc["meta"]))
        if version == 2:
            old["meta"]["backend"] = "object"
        old_frame = json.dumps(old, sort_keys=True).encode() + b"\n" + payload
        with pytest.raises(
            SnapshotError, match=f"unsupported snapshot version {version}"
        ):
            ControlledExperiment.restore(old_frame)


def test_frame_rejects_kind_mismatch():
    data = encode_snapshot([1], "fleet", {})
    with pytest.raises(SnapshotError, match="kind"):
        decode_snapshot(data, "experiment")


def test_frame_rejects_corrupt_payload():
    data = encode_snapshot({"a": 1}, "experiment", {})
    corrupted = data[:-3] + bytes([data[-3] ^ 0xFF]) + data[-2:]
    with pytest.raises(SnapshotError, match="checksum"):
        decode_snapshot(corrupted, "experiment")


def test_frame_rejects_truncation():
    data = encode_snapshot({"a": list(range(100))}, "experiment", {})
    with pytest.raises(SnapshotError):
        decode_snapshot(data[:-10], "experiment")


def test_canonical_pickle_dedups_equal_dtypes_by_value():
    # An array restored from a frame carries an unpickled dtype, one
    # built afterwards numpy's own: the graph must encode the same.
    restored = pickle.loads(pickle.dumps(np.zeros(3)))
    assert restored.dtype is not np.dtype("f8")
    fresh = encode_snapshot([np.zeros(3), np.ones(2)], "experiment", {})
    mixed = encode_snapshot([restored, np.ones(2)], "experiment", {})
    assert fresh == mixed


def test_canonical_pickle_writes_set_members_sorted():
    # Iteration order follows a set's history; a restored set is rebuilt
    # fresh, so the encoding must not depend on it.
    shrunk = set(range(64))
    shrunk.difference_update(set(range(64)) - {1, 8})
    assert list(shrunk) != list({8, 1})
    assert encode_snapshot(shrunk, "experiment", {}) == encode_snapshot(
        {8, 1}, "experiment", {}
    )


def test_canonical_pickle_writes_frozenset_members_sorted():
    # A union's table is sized by its operands, so its iteration order
    # differs from the same members rebuilt fresh by a restore.
    merged = frozenset(set(range(64, 72)) | frozenset(range(40, 56)))
    rebuilt = frozenset(list(merged))
    assert list(merged) != list(rebuilt)
    assert encode_snapshot(merged, "experiment", {}) == encode_snapshot(
        rebuilt, "experiment", {}
    )


class _Member:
    pass


def test_canonical_pickle_keeps_frozensets_reached_through_their_members():
    # A member whose state refers back to the frozenset: the stream must
    # still load as one frozenset shared by both references.
    member = _Member()
    holder = frozenset({member})
    member.back = holder
    restored = pickle.loads(canonical_dumps(holder))
    (inner,) = restored
    assert inner.back is restored


def test_canonical_pickle_dedups_equal_strings_by_value():
    # Two equal-but-distinct strings must encode identically to two
    # references to one string: restore round trips lose interning
    # history, and snapshot byte-identity must not depend on it.
    shared = "power-cap"
    aliased = encode_snapshot([shared, shared], "experiment", {})
    distinct = encode_snapshot(["power-cap", "POWER-CAP".lower()], "experiment", {})
    assert aliased == distinct


def test_canonical_pickle_survives_empty_numpy_buffer():
    # Empty ndarray payloads reach the pickler through PickleBuffer ->
    # save_bytes() directly, handing it the interned b"" singleton a
    # second time; the pure-Python base pickler asserts on that
    # (regression: the canonical pickler must tolerate and round-trip it).
    numpy = pytest.importorskip("numpy")
    payload = {"tag": b"", "column": numpy.zeros(0, dtype=numpy.float64)}
    obj, _ = decode_snapshot(
        encode_snapshot(payload, "experiment", {}), "experiment"
    )
    assert obj["tag"] == b""
    assert obj["column"].shape == (0,)


# ---------------------------------------------------------------------------
# Atomic writes
# ---------------------------------------------------------------------------


def test_atomic_write_creates_and_overwrites(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "first")
    assert path.read_text() == "first"
    atomic_write_text(path, "second")
    assert path.read_text() == "second"
    atomic_write_bytes(path, b"\x00\x01")
    assert path.read_bytes() == b"\x00\x01"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_atomic_write_cleans_temp_on_failure(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "keep me")

    def broken_replace(src, dst):
        raise OSError("disk detached")

    monkeypatch.setattr(os, "replace", broken_replace)
    with pytest.raises(OSError, match="disk detached"):
        atomic_write_text(path, "torn")
    monkeypatch.undo()
    # The target is untouched and no temporary litters the directory.
    assert path.read_text() == "keep me"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


# ---------------------------------------------------------------------------
# Snapshot/restore: run-to-T-then-resume == uninterrupted
# ---------------------------------------------------------------------------


@pytest.fixture(params=["object", "vectorized"])
def backend(request, monkeypatch):
    """The hot loops a resume test runs on.

    ``vectorized`` is production: array expressions over the store's
    columns. ``object`` swaps in the per-server loops of
    ``tests/oracles.py``, which read nothing but ``Server`` objects, so
    the resume contract is also held on a path with no derived arrays.
    """
    if request.param == "object":
        oracles.use_oracle_loops(monkeypatch)
    return request.param


def test_experiment_snapshot_resume_is_byte_identical(backend, tmp_path):
    config = tiny_config(safety=SafetyConfig())
    uninterrupted = ControlledExperiment(config).run()

    experiment = ControlledExperiment(config)
    experiment.start()
    experiment.advance(1800.0)
    path = tmp_path / "mid.snap"
    experiment.save_snapshot(path)

    resumed = ControlledExperiment.restore(path).finish()
    assert result_json_without_config(resumed) == result_json_without_config(
        uninterrupted
    )


def test_chaos_snapshot_resume_is_byte_identical(backend):
    config = tiny_config(
        duration_hours=1.5,
        warmup_hours=1.0,  # builtin scenario times assume the 1 h warm-up
        faults=builtin_scenarios()["data-chaos"],
        safety=SafetyConfig(),
    )
    uninterrupted = ControlledExperiment(config).run()

    experiment = ControlledExperiment(config)
    experiment.start()
    experiment.advance(4000.0)  # mid-chaos
    resumed = ControlledExperiment.restore(experiment.snapshot()).finish()
    assert result_json_without_config(resumed) == result_json_without_config(
        uninterrupted
    )


def test_tenanted_resume_with_a_pending_accepted_arrival_is_byte_identical():
    """Three tenant generators share the testbed's workload rng, so one
    arrival stream has thinned ahead to an accepted job when the frame is
    taken. The resumed run's frame and result match the uninterrupted
    twin's byte for byte."""
    config = tiny_config(
        tenancy=TenancyConfig(
            tenants=(
                TenantSpec("alpha", sla="critical", share=0.2),
                TenantSpec("bravo", sla="standard", share=0.5),
                TenantSpec("charlie", sla="batch", share=0.3),
            )
        )
    )
    twin = ControlledExperiment(config)
    twin.start()
    twin.advance(2400.0)
    twin_frame = twin.snapshot()
    twin_result = twin.finish()

    experiment = ControlledExperiment(config)
    experiment.start()
    experiment.advance(1800.0)
    (stream,) = experiment.testbed._arrivals
    assert len(experiment.testbed.generators) == 3
    assert stream._candidates and stream._cursor > 1800.0  # an accepted job pending
    resumed = ControlledExperiment.restore(experiment.snapshot())
    resumed.advance(2400.0)
    assert resumed.snapshot() == twin_frame
    assert result_json_without_config(resumed.finish()) == result_json_without_config(
        twin_result
    )


def test_fleet_snapshot_resume_is_byte_identical(backend, tmp_path):
    from repro.analysis.serialize import fleet_result_to_dict

    config = tiny_fleet_config()
    uninterrupted = FleetExperiment(config).run()

    experiment = FleetExperiment(config)
    experiment.start()
    experiment.advance(1800.0)
    path = tmp_path / "fleet.snap"
    experiment.save_snapshot(path)
    resumed = FleetExperiment.restore(path).finish()
    assert json.dumps(fleet_result_to_dict(resumed), sort_keys=True) == json.dumps(
        fleet_result_to_dict(uninterrupted), sort_keys=True
    )


def test_snapshot_header_describes_the_run(tmp_path):
    experiment = ControlledExperiment(tiny_config())
    experiment.start()
    experiment.advance(900.0)
    path = tmp_path / "x.snap"
    experiment.save_snapshot(path)
    header = read_header(path)
    assert header["kind"] == "experiment"
    assert header["meta"]["sim_now"] == 900.0
    assert header["meta"]["n_servers"] == 40
    assert header["meta"]["seed"] == 7
    assert "backend" not in header["meta"]


def test_restore_rejects_wrong_kind(tmp_path):
    experiment = FleetExperiment(tiny_fleet_config())
    experiment.start()
    path = tmp_path / "fleet.snap"
    experiment.save_snapshot(path)
    with pytest.raises(SnapshotError, match="kind"):
        ControlledExperiment.restore(path)


def test_restore_rejects_arbitrary_payload():
    data = encode_snapshot({"not": "an experiment"}, "experiment", {})
    with pytest.raises(SnapshotError):
        ControlledExperiment.restore(data)


def test_read_snapshot_round_trips_generic_payload(tmp_path):
    path = tmp_path / "blob.snap"
    write_snapshot(path, [1, 2, 3], "experiment", {})
    obj, _ = read_snapshot(path, "experiment")
    assert obj == [1, 2, 3]


def test_finished_experiment_refuses_second_run():
    experiment = ControlledExperiment(tiny_config())
    result = experiment.run()
    with pytest.raises(RuntimeError):
        experiment.run()
    # finish() is idempotent: it hands back the cached result instead of
    # re-collecting (the service's graceful-shutdown path relies on it).
    assert experiment.finish() is result


# ---------------------------------------------------------------------------
# Campaign checkpoints
# ---------------------------------------------------------------------------


def tiny_campaign(**kwargs):
    defaults = dict(
        ratios=(0.17, 0.25),
        workloads={
            "low": WorkloadSpec(target_utilization=0.10, modulation_sigma=0.0)
        },
        seeds=(3,),
        n_servers=40,
        duration_hours=0.2,
        warmup_hours=0.05,
        telemetry=True,
    )
    defaults.update(kwargs)
    return Campaign(**defaults)


def campaign_csv_bytes(result, tmp_path, name) -> bytes:
    path = tmp_path / name
    result.save_csv(path)
    return path.read_bytes()


def test_checkpointed_campaign_resumes_byte_identical(tmp_path):
    reference = campaign_csv_bytes(tiny_campaign().run(), tmp_path, "ref.csv")

    directory = tmp_path / "ck"
    full = tiny_campaign().run(checkpoint_dir=directory)
    assert campaign_csv_bytes(full, tmp_path, "full.csv") == reference

    # Simulate a crash after the first cell: drop later cell files.
    for cell_file in sorted(directory.glob("cell_*.json"))[1:]:
        cell_file.unlink()
    fired = []
    resumed = tiny_campaign().run(
        checkpoint_dir=directory,
        resume=True,
        on_cell=lambda cell, row: fired.append(cell.label()),
    )
    assert campaign_csv_bytes(resumed, tmp_path, "resumed.csv") == reference
    assert len(fired) == len(resumed.rows) - 1  # restored cells do not re-fire
    # Telemetry registries revive from the checkpoint's embedded snapshots.
    assert all(row.telemetry is not None for row in resumed.rows)


def test_parallel_checkpointed_campaign_resumes_byte_identical(tmp_path):
    reference = campaign_csv_bytes(tiny_campaign().run(), tmp_path, "ref.csv")
    directory = tmp_path / "ck"
    tiny_campaign().run(checkpoint_dir=directory)
    for cell_file in sorted(directory.glob("cell_*.json"))[1:]:
        cell_file.unlink()
    resumed = tiny_campaign().run_parallel(
        max_workers=2, checkpoint_dir=directory, resume=True
    )
    assert campaign_csv_bytes(resumed, tmp_path, "resumed.csv") == reference
    assert len(list(directory.glob("cell_*.json"))) == len(resumed.rows)


def test_checkpoint_refuses_unrelated_directory(tmp_path):
    directory = tmp_path / "ck"
    tiny_campaign().run(checkpoint_dir=directory)
    # Same directory without --resume: refuse rather than clobber.
    with pytest.raises(CheckpointError, match="already exists"):
        tiny_campaign().run(checkpoint_dir=directory)
    # Resume with a different grid: fingerprint mismatch.
    with pytest.raises(CheckpointError, match="fingerprint mismatch"):
        tiny_campaign(ratios=(0.13,)).run(checkpoint_dir=directory, resume=True)


def test_resume_on_empty_directory_starts_fresh(tmp_path):
    directory = tmp_path / "ck"
    result = tiny_campaign().run(checkpoint_dir=directory, resume=True)
    assert all(row.ok for row in result.rows)
    assert (directory / "manifest.json").exists()


def test_resume_without_checkpoint_dir_is_an_error():
    with pytest.raises(ValueError, match="checkpoint_dir"):
        tiny_campaign().run(resume=True)


def test_checkpoint_initialize_reports_completed_rows(tmp_path):
    campaign = tiny_campaign()
    directory = tmp_path / "ck"
    campaign.run(checkpoint_dir=directory)
    checkpoint = CampaignCheckpoint(directory)
    completed = checkpoint.initialize(
        campaign.cells, campaign.run_config, resume=True
    )
    assert sorted(completed) == list(range(len(campaign.cells)))
    assert all(row.ok for row in completed.values())
