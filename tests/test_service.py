"""The live control-plane service: API contract, concurrency, identity.

Four layers of guarantees:

- **Idempotent finish** -- staged experiments may be finished after any
  ``advance()`` point, repeatedly, without double-collecting (the
  driver's graceful-shutdown path depends on it).
- **API contract** -- every observe/act endpoint over a real
  manual-step HTTP server on an ephemeral port.
- **No torn reads** -- GET hammering from many threads while the sim
  steps forward returns only well-formed documents, and a full
  invariant audit afterwards is clean (the single-writer queue works).
- **Byte-identity** -- a manual-step service run driven to the horizon
  through the HTTP API returns exactly the batch golden result document.
"""

import http.client
import json
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.analysis.serialize import result_to_dict
from repro.service import build_service
from repro.sim.experiment import ControlledExperiment, ExperimentConfig
from repro.sim.fleet_experiment import FleetExperiment, FleetExperimentConfig, FleetRowSpec
from repro.sim.testbed import WorkloadSpec

GOLDEN_PATH = Path(__file__).parent / "golden" / "experiment_seed42.json"


def small_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        n_servers=40,
        duration_hours=0.5,
        warmup_hours=0.1,
        over_provision_ratio=0.25,
        workload=WorkloadSpec(target_utilization=0.33, modulation_sigma=0.05),
        seed=7,
        telemetry_enabled=True,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def small_fleet_config(**overrides) -> FleetExperimentConfig:
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
        duration_hours=0.5,
        warmup_hours=0.1,
        over_provision_ratio=0.25,
        seed=11,
    )
    defaults.update(overrides)
    return FleetExperimentConfig(**defaults)


def get(base: str, path: str, timeout: float = 60.0):
    with urllib.request.urlopen(base + path, timeout=timeout) as resp:
        return resp.status, dict(resp.headers), json.loads(resp.read())


def get_status(base: str, path: str) -> int:
    try:
        return get(base, path)[0]
    except urllib.error.HTTPError as exc:
        return exc.code


def post(base: str, path: str, body=None, timeout: float = 300.0):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(body or {}).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


def post_error(base: str, path: str, body=None):
    """POST expecting a failure; returns (status, error message)."""
    try:
        status, doc = post(base, path, body)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()).get("error", "")
    raise AssertionError(f"expected an error, got {status}: {doc}")


# ---------------------------------------------------------------------------
# Idempotent finish (graceful-shutdown bugfix surface)
# ---------------------------------------------------------------------------


class TestIdempotentFinish:
    def test_finish_twice_returns_cached_result(self):
        experiment = ControlledExperiment(small_config())
        first = experiment.finish()
        second = experiment.finish()
        assert second is first  # cached, not re-collected

    def test_finish_after_arbitrary_advance_matches_uninterrupted(self):
        staged = ControlledExperiment(small_config())
        staged.start()
        staged.advance(777.0)
        staged.advance(1234.5)
        partial = staged.finish()

        batch = ControlledExperiment(small_config()).run()
        def canon(r):
            return json.dumps(
                result_to_dict(r, include_series=False), sort_keys=True
            )
        assert canon(partial) == canon(batch)

    def test_finish_does_not_double_emit_eventlog_rows(self):
        experiment = ControlledExperiment(small_config())
        experiment.finish()
        events_after_first = len(experiment.event_log.events)
        experiment.finish()
        assert len(experiment.event_log.events) == events_after_first

    def test_run_still_refuses_reuse(self):
        experiment = ControlledExperiment(small_config())
        experiment.finish()
        with pytest.raises(RuntimeError, match="already ran"):
            experiment.run()

    def test_fleet_finish_twice_returns_cached_result(self):
        experiment = FleetExperiment(small_fleet_config())
        experiment.start()
        experiment.advance(600.0)
        first = experiment.finish()
        assert experiment.finish() is first


# ---------------------------------------------------------------------------
# API contract over a real manual-step server
# ---------------------------------------------------------------------------


@pytest.fixture(scope="class")
def service():
    handle = build_service(
        ControlledExperiment(small_config(auditor=None)), mode="manual"
    )
    handle.start()
    yield handle
    handle.stop()


@pytest.mark.usefixtures("service")
class TestAPIContract:
    def test_status_document(self, service):
        status, _, doc = get(service.url, "/api/status")
        assert status == 200
        assert doc["mode"] == "manual"
        assert doc["paused"] is True
        assert doc["finished"] is False
        assert doc["horizon"] == pytest.approx(0.6 * 3600.0)

    def test_dashboard_serves_html(self, service):
        with urllib.request.urlopen(service.url + "/") as resp:
            assert resp.status == 200
            assert "text/html" in resp.headers["Content-Type"]
            body = resp.read().decode()
        assert "<canvas" in body and "EventSource" in body

    def test_config_and_state_documents(self, service):
        _, _, config = get(service.url, "/api/config")
        assert config["kind"] == "experiment"
        assert config["config"]["n_servers"] == 40
        _, _, state = get(service.url, "/api/state")
        names = {g["name"] for g in state["groups"]}
        assert names == {"experiment", "control"}

    def test_step_advances_exactly(self, service):
        _, before = post(service.url, "/api/step", {"seconds": 300.0})
        _, after = post(service.url, "/api/step", {"seconds": 60.0})
        assert after["sim_now"] == pytest.approx(before["sim_now"] + 60.0)

    def test_group_detail_and_unknown_group(self, service):
        _, _, doc = get(service.url, "/api/groups/experiment")
        columns = doc["servers"]
        assert set(columns) == {"id", "power_watts", "flags"}
        # half of n_servers=40, one entry per server in every column
        assert [len(column) for column in columns.values()] == [20, 20, 20]
        assert doc["server_flags"] == ["frozen", "capped", "failed", "powered_off"]
        assert doc["controller"] is not None
        assert get_status(service.url, "/api/groups/nope") == 404

    @pytest.mark.parametrize(
        "path",
        [
            "/api/events?limit=inf",
            "/api/events?limit=1e400",
            "/api/events?limit=nan",
            "/api/events?limit=2.5",
            "/api/events?limit=ten",
            "/api/series?window=nan",
            "/api/series?window=inf",
            "/api/series?window=-1e400",
            "/api/series?window=soon",
            "/api/series?window=-600",
            "/api/series?window=0",
        ],
    )
    def test_malformed_query_numbers_answer_400(self, service, path):
        try:
            get(service.url, path)
        except urllib.error.HTTPError as exc:
            assert exc.code == 400
            assert json.loads(exc.read())["error"].startswith("query param")
        else:
            raise AssertionError(f"{path} was accepted")

    def test_controllers_events_series_safety(self, service):
        _, _, controllers = get(service.url, "/api/controllers")
        assert "experiment" in controllers["controllers"]
        _, _, events = get(service.url, "/api/events?limit=5")
        assert events["returned"] <= 5
        _, _, series = get(service.url, "/api/series?window=600")
        assert set(series["groups"]) <= {"experiment", "control"}
        status, _, safety = get(service.url, "/api/safety")
        assert status == 200 and "supervisors" in safety

    def test_freeze_unfreeze_roundtrip(self, service):
        _, frozen = post(service.url, "/api/freeze", {"group": "experiment"})
        assert frozen["servers_changed"] > 0
        _, _, doc = get(service.url, "/api/groups/experiment")
        assert doc["frozen"] == 20
        assert all(flags & 1 for flags in doc["servers"]["flags"])
        _, thawed = post(service.url, "/api/unfreeze", {"group": "experiment"})
        assert thawed["servers_changed"] == frozen["servers_changed"]

    def test_eventlog_records_operator_freeze(self, service):
        post(service.url, "/api/freeze", {"group": "control"})
        post(service.url, "/api/unfreeze", {"group": "control"})
        _, _, events = get(service.url, "/api/events?kind=freeze&limit=0")
        assert events["returned"] > 0

    def test_events_total_counts_the_filtered_kind(self, service):
        post(service.url, "/api/freeze", {"group": "control"})
        post(service.url, "/api/unfreeze", {"group": "control"})
        _, _, everything = get(service.url, "/api/events?limit=1")
        _, _, newest = get(service.url, "/api/events?kind=freeze&limit=1")
        _, _, freezes = get(service.url, "/api/events?kind=freeze&limit=0")
        assert newest["total"] == freezes["total"] == freezes["returned"] > 0
        assert newest["total"] < everything["total"]
        assert newest["events"] == freezes["events"][-1:]
        assert {e["kind"] for e in freezes["events"]} == {"freeze"}

    def test_resume_rejected_in_manual_mode(self, service):
        status, message = post_error(service.url, "/api/resume")
        assert status == 409 and "manual" in message

    def test_step_backwards_rejected(self, service):
        status, _ = post_error(service.url, "/api/step", {"until": 1.0})
        assert status == 409

    def test_ledger_and_budgets_rejected_on_single_row(self, service):
        assert get_status(service.url, "/api/ledger") == 404
        status, _ = post_error(
            service.url, "/api/budgets", {"allocations": {"row-0": 1.0}}
        )
        assert status == 409

    def test_arm_faults_by_name_and_unknown(self, service):
        _, doc = post(service.url, "/api/faults", {"scenario": "blackout"})
        assert doc["scenario"] == "blackout"
        _, _, faults = get(service.url, "/api/faults")
        assert len(faults["runtime"]) >= 1
        status, _ = post_error(service.url, "/api/faults", {"scenario": "zzz"})
        assert status == 404

    def test_metrics_exposition_and_content_type(self, service):
        from repro.telemetry import PROMETHEUS_CONTENT_TYPE

        with urllib.request.urlopen(service.url + "/metrics") as resp:
            assert resp.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
            text = resp.read().decode()
        assert "# TYPE" in text

    def test_result_404_until_finished(self, service):
        assert get_status(service.url, "/api/result") == 404

    def test_snapshot_and_verify(self, service, tmp_path):
        path = str(tmp_path / "live.snap")
        _, doc = post(service.url, "/api/snapshot", {"path": path})
        assert doc["bytes"] > 0
        _, report = post(service.url, "/api/verify-snapshot", {"path": path})
        assert report["ok"] is True and report["exit_code"] == 0

    def test_verify_snapshot_unreadable_is_422(self, service, tmp_path):
        status, _ = post_error(
            service.url,
            "/api/verify-snapshot",
            {"path": str(tmp_path / "missing.snap")},
        )
        assert status == 422

    def test_unknown_route_404_and_bad_body_400(self, service):
        assert get_status(service.url, "/api/nope") == 404
        status, _ = post_error(service.url, "/api/freeze", {})
        assert status == 400

    def test_sse_stream_delivers_driver_events(self, service):
        request = urllib.request.Request(service.url + "/events")
        stream = urllib.request.urlopen(request, timeout=10)
        try:
            assert stream.headers["Content-Type"] == "text/event-stream"
            post(service.url, "/api/step", {"seconds": 30.0})
            # The step flushes the backlog of "control" eventlog frames
            # first, then a "stepped" driver frame; scan until we see it.
            saw_driver = False
            for _ in range(5000):
                line = stream.readline().decode().strip()
                if not line.startswith("data: "):
                    continue
                payload = json.loads(line[len("data: "):])
                assert payload["type"] in ("driver", "control")
                if payload["type"] == "driver":
                    saw_driver = True
                    break
            assert saw_driver
        finally:
            stream.close()


class TestFinishWithoutResult:
    """A run can reach its horizon with no result to collect: here the
    operator freezes the control group before warm-up ends, so control
    places no job in the measured window and r_T is undefined. Finish and
    result must then answer a definite 409 naming the cause, not leave
    ``/api/result`` at 404 forever."""

    CAUSE = "control throughput must be positive"

    def test_manual_finish_and_result_answer_409(self):
        from repro.service.app import ServiceError

        handle = build_service(
            ControlledExperiment(small_config(auditor=None)), mode="manual"
        )
        handle.start()
        try:
            app = handle.app
            assert app.status()["sim_now"] < 0.1 * 3600.0  # still warming up
            app.freeze_group("control")
            for call in (app.finish, app.result, app.finish):
                with pytest.raises(ServiceError) as caught:
                    call()
                assert caught.value.status == 409
                assert self.CAUSE in caught.value.message
            status = app.status()
            assert status["finished"] is False
            assert self.CAUSE in status["finish_error"]
            assert get_status(handle.url, "/api/result") == 409
        finally:
            handle.stop()

    def test_timed_mode_keeps_serving_after_a_failed_finish(self):
        from repro.service import harness_for
        from repro.service.wal import apply_act

        experiment = ControlledExperiment(small_config(auditor=None))
        apply_act(harness_for(experiment), "freeze", {"group": "control"})
        handle = build_service(experiment, mode="accelerated", speedup=1e6)
        handle.start()
        try:
            deadline = time.monotonic() + 60.0
            status = handle.app.status()
            while status["finish_error"] is None and time.monotonic() < deadline:
                time.sleep(0.1)
                status = handle.app.status()
            assert self.CAUSE in status["finish_error"]
            assert handle.driver.alive  # the sim thread survived
            assert get_status(handle.url, "/api/result") == 409
        finally:
            handle.stop()


class TestHTTPPlumbing:
    def test_metrics_served_with_telemetry_off(self):
        handle = build_service(
            ControlledExperiment(small_config(telemetry_enabled=False, auditor=None)),
            mode="manual",
        )
        handle.start()
        try:
            with urllib.request.urlopen(handle.url + "/metrics") as resp:
                assert resp.status == 200
                text = resp.read().decode()
        finally:
            handle.stop()
        # The service plane's families, and no simulation families.
        assert "# TYPE repro_service_recoveries_total counter" in text
        assert "# TYPE repro_service_wal_records_total counter" in text
        assert "repro_engine_events_total" not in text

    def test_handler_disables_nagle(self):
        from repro.service.api import ServiceRequestHandler

        assert ServiceRequestHandler.disable_nagle_algorithm is True

    def test_keep_alive_connection_serves_two_gets(self, service):
        host, port = service.address
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            for path in ("/api/status", "/metrics"):
                connection.request("GET", path)
                response = connection.getresponse()
                response.read()
                assert response.status == 200
                assert not response.will_close
        finally:
            connection.close()


# ---------------------------------------------------------------------------
# Fleet service: ledger observation and budget reallocation
# ---------------------------------------------------------------------------


class TestFleetService:
    @pytest.fixture(scope="class")
    def fleet_service(self):
        handle = build_service(
            FleetExperiment(small_fleet_config()), mode="manual"
        )
        handle.start()
        yield handle
        handle.stop()

    def test_ledger_document(self, fleet_service):
        post(fleet_service.url, "/api/step", {"seconds": 600.0})
        _, _, doc = get(fleet_service.url, "/api/ledger")
        names = {row["name"] for row in doc["rows"]}
        assert names == {"row-0", "row-1"}
        assert doc["facility_budget_watts"] > 0

    def test_partial_budget_reallocation_applies(self, fleet_service):
        _, _, before = get(fleet_service.url, "/api/ledger")
        alloc = {row["name"]: row["allocation_watts"]
                 for row in before["rows"]}
        moved = 500.0
        request = {
            "row-0": alloc["row-0"] + moved,
            "row-1": alloc["row-1"] - moved,
        }
        _, doc = post(
            fleet_service.url, "/api/budgets", {"allocations": request}
        )
        assert doc["moved_watts"] == pytest.approx(moved)
        _, _, after = get(fleet_service.url, "/api/ledger")
        got = {row["name"]: row["allocation_watts"] for row in after["rows"]}
        assert got["row-0"] == pytest.approx(request["row-0"])
        # the controller now defends the new allocation
        _, _, group = get(fleet_service.url, "/api/groups/row-0")
        assert group["budget_watts"] == pytest.approx(request["row-0"])

    def test_invalid_reallocation_rejected_wholesale(self, fleet_service):
        _, _, before = get(fleet_service.url, "/api/ledger")
        rating = before["rows"][0]["rating_watts"]
        status, message = post_error(
            fleet_service.url,
            "/api/budgets",
            {"allocations": {"row-0": rating * 10.0}},
        )
        assert status == 422 and "ledger" in message
        _, _, after = get(fleet_service.url, "/api/ledger")
        assert after["rows"] == before["rows"]  # nothing changed

    def test_unknown_row_rejected(self, fleet_service):
        status, _ = post_error(
            fleet_service.url,
            "/api/budgets",
            {"allocations": {"row-9": 100.0}},
        )
        assert status == 404


# ---------------------------------------------------------------------------
# Concurrency: GET hammering while the sim steps -> no torn reads
# ---------------------------------------------------------------------------


class TestConcurrentReads:
    def test_hammered_service_stays_consistent_and_auditor_clean(self):
        handle = build_service(
            ControlledExperiment(small_config(seed=13)), mode="manual"
        )
        handle.start()
        base = handle.url
        stop = threading.Event()
        failures = []
        paths = [
            "/api/status", "/api/state", "/api/groups/experiment",
            "/api/controllers", "/api/events?limit=20", "/api/series",
            "/api/safety",
        ]

        def hammer(worker: int) -> None:
            i = 0
            while not stop.is_set():
                path = paths[(worker + i) % len(paths)]
                i += 1
                try:
                    status, _, doc = get(base, path, timeout=60.0)
                    assert status == 200
                    assert isinstance(doc, dict)
                except Exception as exc:  # collected, not raised, so the
                    failures.append(f"{path}: {exc!r}")  # main thread reports
                    return

        threads = [
            threading.Thread(target=hammer, args=(n,), daemon=True)
            for n in range(6)
        ]
        for thread in threads:
            thread.start()
        try:
            # Step the run to its horizon in uneven slices while the
            # readers hammer every observe endpoint.
            for _ in range(8):
                post(base, "/api/step", {"seconds": 277.0})
            post(base, "/api/finish")
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
        assert not failures, failures[:5]
        # After the storm: a full unsampled invariant sweep is clean.
        _, _, audit = get(base, "/api/audit")
        assert audit["clean"] is True
        status, _, result = get(base, "/api/result")
        assert status == 200 and "r_t" in result
        handle.stop()


# ---------------------------------------------------------------------------
# Byte-identity: step-mode service run == batch golden
# ---------------------------------------------------------------------------


class TestByteIdentity:
    def test_step_mode_service_run_matches_batch_golden(self):
        """Drive the pinned golden config to T purely through the HTTP
        API (uneven steps + finish) and compare the result document
        byte-for-byte against the batch golden fixture."""
        from tests.test_golden import golden_config

        handle = build_service(
            ControlledExperiment(golden_config()), mode="manual"
        )
        handle.start()
        base = handle.url
        for seconds in (613.0, 1800.0, 37.5, 2400.0, 1111.0):
            post(base, "/api/step", {"seconds": seconds})
        post(base, "/api/finish")
        _, _, service_doc = get(base, "/api/result")
        handle.stop()

        expected = json.loads(GOLDEN_PATH.read_text())
        actual = json.loads(json.dumps(service_doc, sort_keys=True))
        assert actual == expected

    def test_final_snapshot_on_stop_is_verifiable(self, tmp_path):
        handle = build_service(
            ControlledExperiment(small_config(seed=5)), mode="manual"
        )
        handle.start()
        post(handle.url, "/api/step", {"seconds": 400.0})
        path = tmp_path / "final.snap"
        written = handle.stop(snapshot_path=str(path))
        assert written == path.stat().st_size > 0

        from repro.sim.verify import verify_snapshot_file

        report = verify_snapshot_file(str(path))
        assert report.ok and report.kind == "experiment"
