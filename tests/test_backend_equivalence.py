"""One engine path, checked two ways: pinned digests and scalar oracles.

The engine runs one production path: array expressions over the
columnar :class:`~repro.cluster.state.ClusterState`. Two kinds of test
hold it to the per-server model it replaced.

- **Pinned trajectories.** The seeded experiment, two chaos scenarios,
  the fleet A/B and campaign rows (serial and parallel) must
  reproduce, byte for byte, the canonical documents recorded when the
  per-server loops still ran in production. Each document's sha256
  lives in ``tests/golden/trajectory_digests.json``.
- **Loop-level oracles.** Each hot loop is checked against its scalar
  oracle in ``tests/oracles.py``: the group power and rated sums and
  ``server_powers``, capping's three orderings (ties included), the
  per-server readings, the observe documents (the service's state
  summary and per-server group columns) and the operator group act
  (one scheduler call per server).

The three numerical contracts each have a test here that fails if the
contract breaks: exact-exponent pow (exotic SKU exponents, where NumPy's
SIMD pow differs from CPython's), ``cumsum()[-1]`` aggregation (a row
whose pairwise ``np.sum`` differs from the sequential sum), and RNG
batching (oracles draw one scalar at a time and must leave the
generator in the same state).

If a change is *intentional*, regenerate the digests:

    python -c "import tests.test_backend_equivalence as t; t.regenerate()"
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.serialize import (
    campaign_rows_to_dicts,
    fleet_result_to_dict,
    result_to_dict,
)
from repro.cluster.capping import CappingEngine
from repro.cluster.datacenter import ServerSpec, build_heterogeneous_row, build_row
from repro.cluster.power import DVFS_FREQUENCIES, PowerModelParams
from repro.core.safety import SafetyConfig
from repro.faults.scenario import builtin_scenarios
from repro.fleet.config import FleetConfig
from repro.monitor.power_monitor import PowerMonitor
from repro.service import views
from repro.service.wal import apply_act
from repro.sim.audit import AuditorConfig
from repro.sim.campaign import Campaign
from repro.sim.engine import Engine
from repro.sim.eventlog import ControlEvent
from repro.sim.experiment import ControlledExperiment, ExperimentConfig
from repro.sim.fleet_experiment import (
    FleetExperiment,
    FleetExperimentConfig,
    FleetRowSpec,
)
from repro.sim.testbed import WorkloadSpec
from repro.tenancy.config import builtin_mixes
from tests import oracles

DIGESTS_PATH = Path(__file__).parent / "golden" / "trajectory_digests.json"


def digest(document: dict) -> str:
    """sha256 of the canonical (key-sorted) JSON form of a document."""
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()


def pinned(name: str) -> str:
    return json.loads(DIGESTS_PATH.read_text())[name]


# ---------------------------------------------------------------------------
# The pinned runs
# ---------------------------------------------------------------------------
def seeded_experiment() -> dict:
    config = ExperimentConfig(
        n_servers=80,
        duration_hours=1.0,
        warmup_hours=0.25,
        over_provision_ratio=0.25,
        capping_enabled=True,
        workload=WorkloadSpec(target_utilization=0.33, modulation_sigma=0.05),
        seed=42,
    )
    return result_to_dict(ControlledExperiment(config).run(), include_series=True)


def chaos_experiment(scenario: str) -> dict:
    """Hazard paths (mass failures, demand surges) under the safety
    ladder, with telemetry on so the metrics snapshot is pinned too."""
    config = ExperimentConfig(
        n_servers=40,
        duration_hours=1.5,
        warmup_hours=1.0,  # builtin scenario times assume 1 h
        over_provision_ratio=0.25,
        workload=WorkloadSpec.typical(),
        capping_enabled=True,
        seed=7,
        faults=builtin_scenarios()[scenario],
        safety=SafetyConfig(),
        telemetry_enabled=True,
    )
    return result_to_dict(ControlledExperiment(config).run(), include_series=True)


def fleet_ab() -> dict:
    """Hot and cold rows under one facility budget with a coordinator."""
    config = FleetExperimentConfig(
        rows=(
            FleetRowSpec(n_servers=40, workload=WorkloadSpec(target_utilization=0.35)),
            FleetRowSpec(n_servers=40, workload=WorkloadSpec(target_utilization=0.08)),
        ),
        duration_hours=1.0,
        warmup_hours=0.25,
        fleet=FleetConfig(policy="demand-following"),
        seed=11,
    )
    return fleet_result_to_dict(FleetExperiment(config).run())


def campaign_rows(parallel: bool) -> dict:
    campaign = Campaign(
        ratios=(0.25,),
        workloads={"typical": WorkloadSpec.typical()},
        seeds=(3, 5),
        n_servers=80,
        duration_hours=0.2,
        warmup_hours=0.05,
    )
    result = campaign.run_parallel(max_workers=2) if parallel else campaign.run()
    return {"rows": campaign_rows_to_dicts(result.rows)}


def regenerate() -> None:  # pragma: no cover - maintenance helper
    documents = {
        "seeded-experiment": seeded_experiment(),
        "chaos-surge": chaos_experiment("surge"),
        "chaos-crash-storm": chaos_experiment("crash-storm"),
        "fleet-ab": fleet_ab(),
        "campaign-rows": campaign_rows(parallel=False),
    }
    digests = {name: digest(doc) for name, doc in documents.items()}
    DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


class TestExperimentTrajectories:
    def test_seeded_experiment_byte_identical(self):
        assert digest(seeded_experiment()) == pinned("seeded-experiment")

    @pytest.mark.parametrize("scenario", ["surge", "crash-storm"])
    def test_chaos_scenarios_byte_identical(self, scenario):
        assert digest(chaos_experiment(scenario)) == pinned(f"chaos-{scenario}")


class TestFleetTrajectories:
    def test_fleet_ab_byte_identical(self):
        assert digest(fleet_ab()) == pinned("fleet-ab")


class TestCampaignRows:
    def test_campaign_serial_matches_pinned_digest(self):
        assert digest(campaign_rows(parallel=False)) == pinned("campaign-rows")

    def test_campaign_parallel_matches_pinned_digest(self):
        assert digest(campaign_rows(parallel=True)) == pinned("campaign-rows")


# ---------------------------------------------------------------------------
# Loop-level: production vs the scalar oracles
# ---------------------------------------------------------------------------
def randomize_load(group, rng, frequencies=True) -> None:
    """Fractional core use (so utilizations are not on a small grid) and,
    optionally, a random DVFS level per server."""
    for server in group.servers:
        server.used_cores = float(rng.uniform(0.0, server.cores))
        if frequencies:
            server.frequency = float(rng.choice(DVFS_FREQUENCIES))
    group.state.invalidate_power(group.state_indices)


def loaded_row(seed: int = 1, racks: int = 10):
    """A row with random loads, every DVFS level, and two dark servers."""
    row = build_row(0, racks=racks, servers_per_rack=40)
    randomize_load(row, np.random.default_rng(seed))
    row.servers[3].fail()
    row.servers[17].power_off()
    return row


class TestGroupPower:
    def test_power_sum_is_the_sequential_sum(self):
        """``cumsum()[-1]`` contract, on a row where it matters."""
        row = loaded_row()
        expected = oracles.group_power_watts(row)
        assert row.power_watts() == expected
        # Pairwise summation lands on a different float for this row, so
        # a switch to ``np.sum`` cannot pass unnoticed.
        assert float(np.sum(row.server_powers())) != expected

    def test_server_powers_match_scalar_model(self):
        row = loaded_row()
        assert row.server_powers().tobytes() == oracles.group_server_powers(row).tobytes()

    def test_exotic_exponents_match_scalar_pow(self):
        """Exact-exponent pow contract: non-{0,1,2} exponents must match
        CPython's scalar ``**``, which NumPy's SIMD pow does not."""
        exotic = PowerModelParams(
            rated_watts=350.0, utilization_exponent=1.3, frequency_power_exponent=2.1
        )
        row = build_heterogeneous_row(
            0,
            [(160, ServerSpec(power_params=exotic)), (40, ServerSpec())],
            servers_per_rack=40,
        )
        randomize_load(row, np.random.default_rng(11))
        assert row.server_powers().tobytes() == oracles.group_server_powers(row).tobytes()
        assert row.power_watts() == oracles.group_power_watts(row)
        util = np.array([s.utilization for s in row.servers[:160]])
        assert (util**1.3 != np.array([u**1.3 for u in util.tolist()])).any()

    def test_rated_sum_is_the_sequential_sum(self):
        """Mixed SKUs: the rated column sums left to right, like power."""
        row = build_heterogeneous_row(
            0,
            [
                (40, ServerSpec(power_params=PowerModelParams(rated_watts=333.3))),
                (40, ServerSpec(power_params=PowerModelParams(rated_watts=0.1))),
                (40, ServerSpec()),
            ],
            servers_per_rack=40,
        )
        assert row.rated_watts() == oracles.group_rated_watts(row)
        rated = np.array([s.rated_watts for s in row.servers])
        assert float(np.sum(rated)) != oracles.group_rated_watts(row)


class TestObserveDocuments:
    """The observe documents read the store's columns; the oracles read
    every server object. A data-chaos row with capping and the safety
    ladder, plus operator failures and a power-off, sets all four
    per-server flags."""

    @pytest.fixture(scope="class")
    def chaos_run(self):
        run = ControlledExperiment(
            ExperimentConfig(
                n_servers=80,
                duration_hours=1.5,
                warmup_hours=1.0,
                over_provision_ratio=0.25,
                workload=WorkloadSpec(target_utilization=0.33, modulation_sigma=0.05),
                faults=builtin_scenarios()["data-chaos"],
                safety=SafetyConfig(),
                capping_enabled=True,
                seed=42,
            )
        )
        run.advance(100 * 60.0)
        scheduler = run.scheduler_for("experiment")
        experiment = run.groups()["experiment"].servers
        control = run.groups()["control"].servers
        # a repaired server of the frozen group stays idle: power it off
        scheduler.fail_server(experiment[3].server_id)
        scheduler.repair_server(experiment[3].server_id)
        scheduler.power_off_server(experiment[3].server_id)
        scheduler.fail_server(experiment[11].server_id)
        scheduler.fail_server(control[5].server_id)
        return run

    def test_every_flag_is_set_somewhere(self, chaos_run):
        counts = {
            name: oracles.group_flag_counts(group)
            for name, group in chaos_run.groups().items()
        }
        for flag in views.SERVER_FLAGS:
            assert sum(c[flag] for c in counts.values()) > 0, flag

    def test_state_doc_bytes_match_the_per_server_oracle(self, chaos_run):
        ours = json.dumps(views.state_doc(chaos_run), sort_keys=True)
        theirs = json.dumps(oracles.state_doc(chaos_run), sort_keys=True)
        assert ours == theirs

    def test_counts_and_rated_watts_match(self, chaos_run):
        for group in chaos_run.groups().values():
            counts = {
                flag: int(np.count_nonzero(mask))
                for flag, mask in group.flag_masks().items()
            }
            assert counts == oracles.group_flag_counts(group)
            assert group.rated_watts() == oracles.group_rated_watts(group)

    @pytest.mark.parametrize("name", ["experiment", "control"])
    def test_group_columns_match_the_per_server_dicts(self, chaos_run, name):
        columns = views.group_doc(chaos_run, name)["servers"]
        expected = oracles.group_server_dicts(chaos_run.groups()[name])
        assert {len(column) for column in columns.values()} == {len(expected)}
        for i, server in enumerate(expected):
            assert columns["id"][i] == server["id"]
            assert columns["power_watts"][i] == server["power_watts"]
            for bit, flag in enumerate(views.SERVER_FLAGS):
                assert bool(columns["flags"][i] >> bit & 1) is server[flag]

    def test_non_finite_power_becomes_null(self):
        powers = np.array([1.5, np.nan, np.inf, -np.inf, 2.0])
        assert views._finite_list(powers) == [1.5, None, None, None, 2.0]


def ids(servers):
    return [s.server_id for s in servers]


class TestGroupActs:
    """An operator group act is one scheduler call; the oracle makes one
    ``freeze``/``unfreeze`` call per server. Twin tenanted data-chaos
    rows with capping and the safety ladder -- the controller holding
    part of the experiment group frozen, operator failures and a
    power-off in both groups -- take the same acts, production on one
    twin and the oracle on the other, with 20 s of simulation (the
    controller's own freezes and thaws) between acts."""

    ACTS = (
        ("experiment", False),
        ("experiment", True),
        ("experiment", False),
        ("control", True),
        ("control", False),
        ("experiment", True),
        ("experiment", False),
        ("control", True),
        ("control", False),
    )

    @staticmethod
    def _run() -> ControlledExperiment:
        run = ControlledExperiment(
            ExperimentConfig(
                n_servers=80,
                duration_hours=1.5,
                warmup_hours=1.0,
                over_provision_ratio=0.25,
                workload=WorkloadSpec(target_utilization=0.33, modulation_sigma=0.05),
                faults=builtin_scenarios()["data-chaos"],
                safety=SafetyConfig(),
                capping_enabled=True,
                tenancy=builtin_mixes()["three-tier"],
                seed=42,
            )
        )
        # From 62 min, advance a minute at a time to the first instant
        # the controller holds part of the experiment group frozen.
        minute = 62
        run.advance(minute * 60.0)
        while not 0 < len(run.scheduler_for("experiment").frozen_server_ids()) < 40:
            minute += 1
            run.advance(minute * 60.0)
        scheduler = run.scheduler_for("experiment")
        experiment = run.groups()["experiment"].servers
        control = run.groups()["control"].servers
        # fail a server the controller holds frozen, so the first thaw
        # also clears a dark one
        frozen = scheduler.frozen_server_ids()
        held = next(i for i, s in enumerate(experiment) if s.server_id in frozen)
        assert held != 3
        # a repaired server is idle: power it off
        for servers, off, failed in ((experiment, 3, held), (control, 7, 5)):
            scheduler.fail_server(servers[off].server_id)
            scheduler.repair_server(servers[off].server_id)
            scheduler.power_off_server(servers[off].server_id)
            scheduler.fail_server(servers[failed].server_id)
        return run

    @staticmethod
    def _observe(run) -> dict:
        accountant = run.accountant
        return {
            "events": list(run.event_log.events),
            "counts": list(run.event_log.counts_by_kind().items()),
            "frozen_seconds": accountant.frozen_server_seconds(),
            "freeze_events": [
                t.freeze_events for t in accountant.stats_snapshot().tenants
            ],
            "frozen_ids": run.scheduler_for("experiment").frozen_server_ids(),
            "used_cores": run.state.used_cores[: run.state.n].tobytes(),
            "jobs_started": run.state.jobs_started[: run.state.n].tobytes(),
        }

    @staticmethod
    def _queued(run) -> int:
        return run.scheduler_for("experiment").queued_jobs

    @pytest.fixture(scope="class")
    def twins(self):
        ours, theirs = self._run(), self._run()
        first = ours.groups()["experiment"].flag_masks()
        steps = []
        for name, frozen in self.ACTS:
            act = "freeze" if frozen else "unfreeze"
            queued = (self._queued(ours), self._queued(theirs))
            steps.append(
                (
                    queued,
                    apply_act(ours, act, {"group": name}),
                    oracles.set_group_frozen(theirs, name, frozen),
                    self._observe(ours),
                    self._observe(theirs),
                )
            )
            until = ours.engine.now + 20.0
            ours.advance(until)
            theirs.advance(until)
        return ours, theirs, first, steps

    def test_the_twins_start_partly_frozen_with_servers_down(self, twins):
        _, _, first, _ = twins
        assert 0 < np.count_nonzero(first["frozen"]) < len(first["frozen"])
        assert np.count_nonzero(first["failed"]) == 1
        assert np.count_nonzero(first["powered_off"]) == 1

    def test_servers_changed_match(self, twins):
        _, _, _, steps = twins
        for _, ours, theirs, _, _ in steps:
            assert ours == theirs
        # the first thaw releases the controller's 3 freezes, one of them
        # on a server that failed since (a thaw clears dark servers too);
        # every later act changes a group's 38 live servers (a freeze
        # skips the failed one and the powered-off one)
        changed = [doc["servers_changed"] for _, doc, _, _, _ in steps]
        assert changed == [3] + [38] * 8

    def test_event_lists_match_tuple_for_tuple(self, twins):
        ours, theirs, _, steps = twins
        for _, _, _, mine, reference in steps:
            assert mine["events"] == reference["events"]
        assert ours.event_log.events == theirs.event_log.events
        assert {type(e) for e in ours.event_log.events} == {ControlEvent}

    def test_counts_by_kind_match_in_first_seen_order(self, twins):
        ours, theirs, _, steps = twins
        for _, _, _, mine, reference in steps:
            assert mine["counts"] == reference["counts"]
        assert list(ours.event_log.counts_by_kind().items()) == list(
            theirs.event_log.counts_by_kind().items()
        )

    def test_tenant_books_and_frozen_sets_match(self, twins):
        _, _, _, steps = twins
        for _, _, _, mine, reference in steps:
            for key in ("frozen_seconds", "freeze_events", "frozen_ids"):
                assert mine[key] == reference[key], key

    def test_placements_match(self, twins):
        """Every thaw here finds the queues empty, so draining once and
        draining per server place the same jobs (with a backlog they
        differ by design -- see ``test_scheduler_omega``'s drain-once
        contract)."""
        ours, theirs, _, steps = twins
        for queued, _, _, mine, reference in steps:
            assert queued == (0, 0)
            assert mine["used_cores"] == reference["used_cores"]
            assert mine["jobs_started"] == reference["jobs_started"]
        assert np.array_equal(ours.state.jobs_started, theirs.state.jobs_started)

    def test_full_audit_is_clean(self, twins):
        ours, theirs, _, _ = twins
        assert "index" in AuditorConfig().checks
        assert views.audit_doc(ours)["violations"] == []
        assert views.audit_doc(theirs)["violations"] == []


class TestCappingOrders:
    @pytest.fixture
    def tied_row(self):
        """Pairs of servers with equal load and frequency: every order
        below has ties that a stable sort must keep in group order."""
        row = build_row(0, racks=1, servers_per_rack=24)
        for i, server in enumerate(row.servers):
            server.used_cores = float((i // 2) % 5 * 3)
            server.frequency = DVFS_FREQUENCIES[(i // 4) % len(DVFS_FREQUENCIES)]
        row.servers[6].fail()
        row.servers[13].power_off()
        return row

    def test_hottest_first_matches_stable_sort(self, tied_row):
        capper = CappingEngine(tied_row, Engine())
        order = capper._live_hottest_first()
        assert ids(order) == ids(oracles.hottest_first(tied_row))
        powers = [s.power_watts() for s in order]
        assert len(set(powers)) < len(powers)  # ties were exercised

    def test_restore_order_matches_stable_sort(self, tied_row):
        capper = CappingEngine(tied_row, Engine())
        order = capper._restore_order()
        assert ids(order) == ids(oracles.restore_order(tied_row))
        frequencies = [s.frequency for s in order]
        assert len(set(frequencies)) < len(frequencies)

    def test_slam_victims_match_loop(self, tied_row):
        capper = CappingEngine(tied_row, Engine())
        expected = ids(oracles.slam_victims(tied_row))
        assert ids(capper._slam_victims()) == expected
        assert capper.slam() == len(expected)

    def test_capped_time_books_match_loop(self, tied_row):
        capper = CappingEngine(tied_row, Engine(), interval=2.0)
        reference = oracles.OracleCappingEngine(tied_row, Engine(), interval=2.0)
        capper._account_capped_time()
        reference._account_capped_time()
        assert capper.stats == reference.stats
        assert list(capper.stats.per_server_capped_seconds) == oracles.capped_time_order(
            tied_row
        )


class TestPerServerReadings:
    @staticmethod
    def monitor_for(row, **kwargs):
        monitor = PowerMonitor(Engine(), rng=np.random.default_rng(21), **kwargs)
        monitor.register_group(row)
        return monitor

    def test_snapshot_readings_match_loop(self):
        row = loaded_row()
        monitor = self.monitor_for(row, noise_sigma=0.02)
        twin = self.monitor_for(loaded_row(), noise_sigma=0.02)
        monitor.set_sensor_bias(1.07)
        twin.set_sensor_bias(1.07)
        for _ in range(3):
            readings = monitor.read_server_powers(row.name)
            assert readings.tobytes() == oracles.read_server_powers(twin, row).tobytes()
        assert monitor.rng.bit_generator.state == twin.rng.bit_generator.state

    def test_sweep_readings_match_scalar_draws(self):
        row = loaded_row(racks=1)
        monitor = self.monitor_for(row, noise_sigma=0.02, store_per_server=True)
        rng = np.random.default_rng(21)
        monitor.sample_once()
        for server in row.servers:
            expected = server.power_watts() * (1.0 + 0.02 * rng.standard_normal())
            (reading,) = monitor.db.query(f"power/server/{server.server_id}")[1]
            assert reading == expected
        assert monitor.rng.bit_generator.state == rng.bit_generator.state
