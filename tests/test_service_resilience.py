"""The self-healing service runtime: WAL, recovery, backpressure, SSE.

Five layers of guarantees on top of tests/test_service.py's API
contract:

- **Act WAL** -- durable JSONL log of operator acts; loading repairs a
  torn tail (counted, never silent) and refuses anything worse; replay
  re-applies history deterministically.
- **Crash recovery** -- a driver killed by an injected advance failure
  is rebuilt by the watchdog from the last verified checkpoint plus WAL
  replay, and the recovered trajectory is *byte-identical* to an
  uninterrupted run.
- **Degraded mode** -- while broken, observes serve last-known views
  with ``"degraded": true``, acts are refused with 503 + Retry-After,
  and ``/readyz`` flips not-ready; ``/healthz`` stays 200 throughout.
- **Backpressure** -- a full command queue yields 429 + Retry-After,
  never a deadlock or a silently dropped act.
- **SSE resilience** -- monotonic event ids, ``Last-Event-ID``
  replays gap-free inside the ring window, an explicit reset marker
  beyond it, and per-subscriber drop accounting.
"""

import http.client
import json
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import SupervisorConfig, build_service, harness_for
from repro.service.driver import DriverBusy, EventBus
from repro.service.wal import (
    ActWal,
    WalError,
    WalRecord,
    WalReplayError,
    apply_act,
    replay,
)
from repro.sim.audit import AuditorConfig
from repro.sim.experiment import ControlledExperiment, ExperimentConfig
from repro.sim.staged import restore_run
from repro.sim.testbed import WorkloadSpec
from repro.telemetry import MetricsRegistry


def small_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        n_servers=40,
        duration_hours=0.5,
        warmup_hours=0.1,
        over_provision_ratio=0.25,
        workload=WorkloadSpec(target_utilization=0.33, modulation_sigma=0.05),
        seed=7,
        telemetry_enabled=False,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def get(base: str, path: str, timeout: float = 60.0):
    with urllib.request.urlopen(base + path, timeout=timeout) as resp:
        return resp.status, dict(resp.headers), json.loads(resp.read())


def get_error(base: str, path: str):
    try:
        status, headers, doc = get(base, path)
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())
    return status, headers, doc


def post(base: str, path: str, body=None, timeout: float = 300.0):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(body or {}).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as resp:
        return resp.status, dict(resp.headers), json.loads(resp.read())


def post_error(base: str, path: str, body=None):
    try:
        status, _, doc = post(base, path, body)
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())
    raise AssertionError(f"expected an error, got {status}: {doc}")


def wait_until(predicate, timeout: float = 30.0, interval: float = 0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class OneShotCrash:
    """Advance hook that raises exactly once at (or past) ``at`` sim-s."""

    def __init__(self, at: float) -> None:
        self.at = at
        self.fired = False

    def __call__(self, boundary: float) -> None:
        if not self.fired and boundary >= self.at:
            self.fired = True
            raise RuntimeError(f"injected crash at t={boundary:.0f}s")


def full_audit_violations(frame: bytes):
    experiment = restore_run(frame)
    auditor = experiment.build_auditor(
        AuditorConfig(sample_fraction=1.0, on_violation="record")
    )
    return auditor.audit(sample=False)


# ---------------------------------------------------------------------------
# The write-ahead log
# ---------------------------------------------------------------------------


class TestActWal:
    def test_record_roundtrip(self):
        record = WalRecord(3, 1800.0, "freeze", {"group": "experiment"})
        back = WalRecord.from_line(record.to_line())
        assert (back.seq, back.sim_time, back.op, back.payload) == (
            3, 1800.0, "freeze", {"group": "experiment"},
        )

    def test_append_load_and_records_after(self, tmp_path):
        path = tmp_path / "acts.wal"
        wal = ActWal(path)
        wal.append("freeze", {"group": "a"}, 600.0)
        wal.append("unfreeze", {"group": "a"}, 1200.0)
        wal.append("freeze", {"group": "b"}, 1800.0)

        loaded = ActWal(path)
        assert [r.seq for r in loaded.records] == [1, 2, 3]
        assert loaded.torn_tail_dropped == 0
        assert [r.seq for r in loaded.records_after(1)] == [2, 3]
        # Appends continue the sequence after a reload.
        loaded.append("unfreeze", {"group": "b"}, 2400.0)
        assert loaded.last_seq == 4

    def test_unknown_op_refused(self, tmp_path):
        wal = ActWal(tmp_path / "acts.wal")
        with pytest.raises(WalError, match="not WAL-able"):
            wal.append("rm-rf", {}, 0.0)

    def test_torn_final_line_dropped_and_counted(self, tmp_path):
        path = tmp_path / "acts.wal"
        wal = ActWal(path)
        wal.append("freeze", {"group": "a"}, 600.0)
        wal.append("unfreeze", {"group": "a"}, 1200.0)
        # Simulate a crash mid-append: final line has no newline.
        with open(path, "ab") as handle:
            handle.write(b'{"seq": 3, "sim_time": 18')

        repaired = ActWal(path)
        assert repaired.last_seq == 2
        assert repaired.torn_tail_dropped == 1

    def test_unparseable_terminated_tail_dropped(self, tmp_path):
        path = tmp_path / "acts.wal"
        ActWal(path).append("freeze", {"group": "a"}, 600.0)
        with open(path, "ab") as handle:
            handle.write(b"not json at all\n")
        repaired = ActWal(path)
        assert repaired.last_seq == 1
        assert repaired.torn_tail_dropped == 1

    def test_midfile_corruption_refused(self, tmp_path):
        path = tmp_path / "acts.wal"
        wal = ActWal(path)
        wal.append("freeze", {"group": "a"}, 600.0)
        wal.append("unfreeze", {"group": "a"}, 1200.0)
        raw = path.read_bytes().split(b"\n")
        raw[0] = b"garbage"
        path.write_bytes(b"\n".join(raw))
        with pytest.raises(WalError, match="corrupt record at line 1"):
            ActWal(path)

    def test_non_monotonic_seq_refused(self, tmp_path):
        path = tmp_path / "acts.wal"
        records = [
            WalRecord(1, 600.0, "freeze", {"group": "a"}),
            WalRecord(5, 1200.0, "unfreeze", {"group": "a"}),
        ]
        path.write_text("".join(r.to_line() + "\n" for r in records))
        with pytest.raises(WalError, match="seq 5 after 1"):
            ActWal(path)

    def test_replay_advances_and_applies(self):
        experiment = ControlledExperiment(small_config())
        experiment.start()
        harness = harness_for(experiment)
        records = [
            WalRecord(1, 600.0, "freeze", {"group": "experiment"}),
            WalRecord(2, 1200.0, "unfreeze", {"group": "experiment"}),
        ]
        assert replay(harness, records) == 2
        assert harness.engine.now == pytest.approx(1200.0)

    def test_replay_refuses_records_behind_restored_state(self):
        experiment = ControlledExperiment(small_config())
        experiment.start()
        experiment.advance(900.0)
        harness = harness_for(experiment)
        with pytest.raises(WalReplayError, match="behind the restored state"):
            replay(
                harness,
                [WalRecord(1, 600.0, "freeze", {"group": "experiment"})],
            )

    def test_replayed_acts_match_live_acts_byte_for_byte(self):
        live = ControlledExperiment(small_config())
        live.start()
        live_harness = harness_for(live)
        live_harness.advance(600.0)
        apply_act(live_harness, "freeze", {"group": "experiment"})
        live_harness.advance(1500.0)

        replayed = ControlledExperiment(small_config())
        replayed.start()
        harness = harness_for(replayed)
        replay(
            harness, [WalRecord(1, 600.0, "freeze", {"group": "experiment"})]
        )
        harness.advance(1500.0)
        assert replayed.snapshot() == live.snapshot()


# ---------------------------------------------------------------------------
# In-process crash recovery (the tentpole)
# ---------------------------------------------------------------------------


class TestCrashRecovery:
    """Injected advance failures must heal back to a byte-identical run."""

    HORIZON = 0.5 * 3600.0

    def _recovering_service(self, **config_overrides):
        defaults = dict(
            heartbeat_timeout=30.0,
            watchdog_poll_seconds=0.05,
            auto_snapshot_every=None,  # recover from the genesis frame
        )
        defaults.update(config_overrides)
        return build_service(
            ControlledExperiment(small_config()),
            mode="manual",
            supervisor_config=SupervisorConfig(**defaults),
            advance_hook=OneShotCrash(at=900.0),
        )

    def test_watchdog_rebuilds_driver_and_state_is_byte_identical(self):
        service = self._recovering_service()
        service.start()
        try:
            url = service.url
            supervisor = service.supervisor
            # An acknowledged act before the crash: recovery must replay it.
            status, _, _ = post(url, "/api/freeze", {"group": "experiment"})
            assert status == 200
            assert supervisor.wal.last_seq == 1

            # Drive into the injected crash: the step fails...
            status, _, doc = post_error(
                url, "/api/step", {"until": 1200.0}
            )
            assert status in (409, 503)
            # ...and the watchdog heals the service without operator help.
            assert wait_until(
                lambda: supervisor.recoveries >= 1 and supervisor.ready()
            ), f"no recovery: {supervisor.summary()}"
            assert "crash" in supervisor.last_recovery_reason

            # The rebuilt driver serves acts again; drive to the horizon.
            status, _, _ = post(url, "/api/step", {"until": self.HORIZON})
            assert status == 200
            frame = service.driver.read(
                lambda: service.run.snapshot()
            )
        finally:
            service.stop()

        # Uninterrupted reference: same trajectory, no service, no crash.
        reference = ControlledExperiment(small_config())
        reference.start()
        harness = harness_for(reference)
        apply_act(harness, "freeze", {"group": "experiment"})
        harness.advance(self.HORIZON)
        assert frame == reference.snapshot()
        assert full_audit_violations(frame) == []

    def test_recovery_replays_wal_at_logged_sim_times(self):
        service = self._recovering_service()
        service.start()
        try:
            url = service.url
            supervisor = service.supervisor
            status, _, _ = post(url, "/api/step", {"until": 600.0})
            assert status == 200
            status, _, _ = post(url, "/api/freeze", {"group": "experiment"})
            assert status == 200

            post_error(url, "/api/step", {"until": 1200.0})
            assert wait_until(
                lambda: supervisor.recoveries >= 1 and supervisor.ready()
            ), f"no recovery: {supervisor.summary()}"
            # Replay restored the genesis frame (t=0) and re-applied the
            # freeze at its logged sim-time, leaving the clock there.
            sim_now = service.driver.read(
                lambda: service.run.engine.now
            )
            assert sim_now == pytest.approx(600.0)
            status, _, _ = post(url, "/api/step", {"until": self.HORIZON})
            assert status == 200
            frame = service.driver.read(
                lambda: service.run.snapshot()
            )
        finally:
            service.stop()

        reference = ControlledExperiment(small_config())
        reference.start()
        harness = harness_for(reference)
        harness.advance(600.0)
        apply_act(harness, "freeze", {"group": "experiment"})
        harness.advance(self.HORIZON)
        assert frame == reference.snapshot()

    def test_recovery_budget_exhaustion_parks_in_failed(self):
        service = build_service(
            ControlledExperiment(small_config()),
            mode="manual",
            supervisor_config=SupervisorConfig(
                watchdog_poll_seconds=0.05,
                auto_snapshot_every=None,
                max_recoveries=0,
            ),
            advance_hook=OneShotCrash(at=900.0),
        )
        service.start()
        try:
            post_error(service.url, "/api/step", {"until": 1200.0})
            assert wait_until(
                lambda: service.supervisor.state == "failed"
            ), service.supervisor.summary()
            status, headers, doc = post_error(
                service.url, "/api/freeze", {"group": "experiment"}
            )
            assert status == 503
            assert "Retry-After" in headers
        finally:
            service.stop()


# ---------------------------------------------------------------------------
# Degraded mode and the probes
# ---------------------------------------------------------------------------


@pytest.fixture()
def broken_service():
    """A service whose driver crashes at t=900s with the watchdog parked.

    The enormous poll interval keeps the watchdog from healing the
    driver mid-assert, so tests can observe the degraded window
    deterministically; recovery is then triggered by hand.
    """
    service = build_service(
        ControlledExperiment(small_config()),
        mode="manual",
        supervisor_config=SupervisorConfig(
            watchdog_poll_seconds=3600.0,
            auto_snapshot_every=None,
        ),
        advance_hook=OneShotCrash(at=900.0),
    )
    service.start()
    yield service
    service.stop()


class TestDegradedMode:
    def _break(self, service):
        # Prime the view caches while healthy, then crash the driver.
        assert get(service.url, "/api/state")[0] == 200
        assert get(service.url, "/api/status")[0] == 200
        post_error(service.url, "/api/step", {"until": 1200.0})
        assert not service.supervisor.ready()

    def test_readyz_flips_and_healthz_stays_up(self, broken_service):
        url = broken_service.url
        status, _, doc = get(url, "/readyz")
        assert status == 200 and doc["ready"] is True
        self._break(broken_service)

        status, _, doc = get(url, "/healthz")
        assert status == 200 and doc["ok"] is True
        status, headers, doc = get_error(url, "/readyz")
        assert status == 503
        assert doc["ready"] is False and "halted" in doc["reason"]
        assert "Retry-After" in headers

    def test_observes_serve_cached_views_marked_degraded(self, broken_service):
        url = broken_service.url
        self._break(broken_service)
        status, _, doc = get(url, "/api/state")
        assert status == 200
        assert doc["degraded"] is True
        assert doc["groups"]  # the cached content is still there
        # A view never observed while healthy has nothing to serve.
        status, _, _ = get_error(url, "/api/controllers")
        assert status == 503

    def test_acts_refused_with_retry_after_while_degraded(
        self, broken_service
    ):
        url = broken_service.url
        self._break(broken_service)
        status, headers, doc = post_error(
            url, "/api/freeze", {"group": "experiment"}
        )
        assert status == 503
        assert "degraded" in doc["error"]
        assert int(headers["Retry-After"]) >= 1

    def test_manual_recover_restores_readiness(self, broken_service):
        url = broken_service.url
        self._break(broken_service)
        broken_service.supervisor._recover("test-triggered")
        assert broken_service.supervisor.ready()
        status, _, doc = get(url, "/readyz")
        assert status == 200 and doc["ready"] is True
        assert doc["recoveries"] == 1
        # Fresh (non-degraded) observes flow again.
        status, _, doc = get(url, "/api/state")
        assert status == 200 and "degraded" not in doc
        status, _, _ = post(url, "/api/freeze", {"group": "experiment"})
        assert status == 200

    def test_supervisor_summary_in_status_doc(self, broken_service):
        status, _, doc = get(broken_service.url, "/api/status")
        assert status == 200
        summary = doc["supervisor"]
        assert summary["state"] == "running"
        assert summary["wal"]["last_seq"] == 0


# ---------------------------------------------------------------------------
# Backpressure and body hardening
# ---------------------------------------------------------------------------


@pytest.fixture()
def tiny_queue_service():
    service = build_service(
        ControlledExperiment(small_config()),
        mode="manual",
        supervisor_config=SupervisorConfig(
            queue_capacity=1, auto_snapshot_every=None
        ),
    )
    service.start()
    yield service
    service.stop()


class TestBackpressure:
    def test_full_queue_yields_429_with_retry_after(self, tiny_queue_service):
        service = tiny_queue_service
        release = threading.Event()
        blocker_running = threading.Event()

        def blocker():
            blocker_running.set()
            release.wait(30.0)
            return None

        # Occupy the sim thread (dequeued, running)...
        occupant = threading.Thread(
            target=lambda: service.driver.act(
                blocker, label="blocker", force=True
            ),
            daemon=True,
        )
        occupant.start()
        assert blocker_running.wait(10.0)
        # ...and fill the one queue slot with a second command.
        filler = threading.Thread(
            target=lambda: service.driver.act(
                lambda: None, label="filler", force=True
            ),
            daemon=True,
        )
        filler.start()
        try:
            assert wait_until(
                lambda: service.driver._queue.qsize() >= 1, timeout=10.0
            )
            status, headers, doc = post_error(
                service.url, "/api/freeze", {"group": "experiment"}
            )
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert "queue full" in doc["error"]
            with pytest.raises(DriverBusy):
                service.driver.act(lambda: None, label="extra")
        finally:
            release.set()
            occupant.join(10.0)
            filler.join(10.0)
        # Backpressure is transient: the same act succeeds once drained.
        assert wait_until(lambda: service.driver._queue.qsize() == 0)
        status, _, _ = post(
            service.url, "/api/freeze", {"group": "experiment"}
        )
        assert status == 200

    def test_act_timeout_marks_command_abandoned(self, tiny_queue_service):
        service = tiny_queue_service
        release = threading.Event()
        with pytest.raises(Exception, match="timed out"):
            service.driver.act(
                lambda: release.wait(30.0), label="slow", timeout=0.2
            )
        release.set()
        # The driver stays healthy and keeps serving commands.
        assert service.driver.read(lambda: True, timeout=10.0) is True


class TestBodyHardening:
    def _raw_post(self, service, headers, body=b"{}"):
        host, port = service.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.putrequest("POST", "/api/pause")
            for name, value in headers.items():
                conn.putheader(name, value)
            conn.endheaders()
            if body:
                conn.send(body)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def test_oversized_body_rejected_with_413(self, tiny_queue_service):
        status, doc = self._raw_post(
            tiny_queue_service,
            {"Content-Length": str(2 << 20),
             "Content-Type": "application/json"},
            body=b"",
        )
        assert status == 413
        assert "exceeds" in doc["error"]

    def test_malformed_content_length_rejected_with_400(
        self, tiny_queue_service
    ):
        status, doc = self._raw_post(
            tiny_queue_service,
            {"Content-Length": "banana",
             "Content-Type": "application/json"},
            body=b"",
        )
        assert status == 400
        assert "Content-Length" in doc["error"]

    def test_negative_content_length_rejected_with_400(
        self, tiny_queue_service
    ):
        status, doc = self._raw_post(
            tiny_queue_service,
            {"Content-Length": "-5", "Content-Type": "application/json"},
            body=b"",
        )
        assert status == 400

    def test_normal_sized_body_still_accepted(self, tiny_queue_service):
        status, _, _ = post(tiny_queue_service.url, "/api/pause", {})
        assert status == 200


# ---------------------------------------------------------------------------
# The event bus: ids, replay, reset, drop accounting
# ---------------------------------------------------------------------------


class TestEventBusReplay:
    def test_ids_are_monotonic_from_one(self):
        bus = EventBus(maxsize=16, ring_size=8)
        sub = bus.subscribe()
        for index in range(3):
            bus.publish({"n": index})
        got = [sub.get(timeout=1.0) for _ in range(3)]
        assert [eid for eid, _ in got] == [1, 2, 3]
        assert bus.last_event_id == 3

    def test_reconnect_inside_window_replays_gap_free(self):
        bus = EventBus(maxsize=16, ring_size=8)
        for index in range(6):
            bus.publish({"n": index})
        sub = bus.subscribe(last_event_id=2)
        replayed = [sub.get(timeout=1.0) for _ in range(4)]
        assert [eid for eid, _ in replayed] == [3, 4, 5, 6]
        assert [doc["n"] for _, doc in replayed] == [2, 3, 4, 5]

    def test_reconnect_at_tip_replays_nothing(self):
        bus = EventBus(maxsize=16, ring_size=8)
        for index in range(4):
            bus.publish({"n": index})
        sub = bus.subscribe(last_event_id=4)
        assert sub.queue.qsize() == 0

    def test_reconnect_beyond_window_gets_reset_marker(self):
        bus = EventBus(maxsize=16, ring_size=4)
        for index in range(10):  # ids 1..10; ring holds 7..10
            bus.publish({"n": index})
        sub = bus.subscribe(last_event_id=2)
        eid, marker = sub.get(timeout=1.0)
        assert eid is None
        assert marker == {
            "type": "stream", "action": "reset", "missed_events": 4,
        }
        ring = [sub.get(timeout=1.0) for _ in range(4)]
        assert [eid for eid, _ in ring] == [7, 8, 9, 10]

    def test_slow_subscriber_drops_are_counted_and_labeled(self):
        registry = MetricsRegistry()
        bus = EventBus(maxsize=4, ring_size=4, registry=registry)
        slow = bus.subscribe()
        fast = bus.subscribe()
        for index in range(6):
            bus.publish({"n": index})
            fast.get(timeout=1.0)  # fast consumer keeps up
        assert slow.dropped == 2
        assert fast.dropped == 0
        assert bus.dropped == 2
        assert bus.drops_by_subscriber()[slow.name] == 2
        from repro.telemetry import render_prometheus

        text = render_prometheus(registry)
        assert "repro_service_events_dropped_total" in text
        assert f'subscriber="{slow.name}"' in text

    def test_drops_published_from_many_threads_are_all_counted(self):
        # publish runs on the sim thread and the supervisor's watchdog;
        # a lost update would leave a count short of the published total
        registry = MetricsRegistry()
        bus = EventBus(maxsize=4, ring_size=4, registry=registry)
        slow = bus.subscribe()
        per_thread, threads = 2_000, 4
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(
                    target=lambda: [bus.publish({}) for _ in range(per_thread)]
                )
                for _ in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30.0)
            assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(previous)
        dropped = per_thread * threads - slow.queue.qsize()
        assert bus.dropped == slow.dropped == dropped
        labels = {"subscriber": slow.name}
        assert registry.value("repro_service_events_dropped_total", labels) == dropped

    def test_ring_must_fit_in_subscriber_queue(self):
        with pytest.raises(ValueError, match="must fit"):
            EventBus(maxsize=4, ring_size=8)


class TestSSEReconnect:
    """satellite: Last-Event-ID over the real HTTP endpoint."""

    def _read_frames(self, stream, count: int, timeout: float = 30.0):
        """Parse ``count`` SSE frames into (id-or-None, doc) pairs."""
        frames = []
        eid = None
        deadline = time.monotonic() + timeout
        while len(frames) < count and time.monotonic() < deadline:
            line = stream.readline().decode().strip()
            if line.startswith("id:"):
                eid = int(line[3:].strip())
            elif line.startswith("data:"):
                frames.append((eid, json.loads(line[5:].strip())))
                eid = None
        return frames

    def test_reconnect_with_last_event_id_is_gap_free(
        self, tiny_queue_service
    ):
        url = tiny_queue_service.url
        # Subscribe, then generate events and read the stream's tip.
        stream = urllib.request.urlopen(url + "/events", timeout=30)
        try:
            for _ in range(3):
                post(url, "/api/step", {"seconds": 60})
            first = self._read_frames(stream, 3)
        finally:
            stream.close()
        assert len(first) == 3
        assert all(eid is not None for eid, _ in first)
        last_seen = first[-1][0]

        # More events happen while we are disconnected.
        for _ in range(3):
            post(url, "/api/step", {"seconds": 60})
        tip = tiny_queue_service.app.bus.last_event_id
        assert tip >= last_seen + 3

        request = urllib.request.Request(
            url + "/events", headers={"Last-Event-ID": str(last_seen)}
        )
        stream = urllib.request.urlopen(request, timeout=30)
        try:
            replayed = self._read_frames(stream, tip - last_seen)
        finally:
            stream.close()
        ids = [eid for eid, _ in replayed]
        assert ids == list(range(last_seen + 1, tip + 1))  # gap-free

    def test_reconnect_beyond_ring_gets_reset_frame(self, tiny_queue_service):
        url = tiny_queue_service.url
        post(url, "/api/step", {"seconds": 300})
        # ids start at 1, so any negative Last-Event-ID claims history
        # from before the ring and must trigger the explicit reset.
        request = urllib.request.Request(
            url + "/events", headers={"Last-Event-ID": "-10"}
        )
        stream = urllib.request.urlopen(request, timeout=30)
        try:
            frames = self._read_frames(stream, 2)
        finally:
            stream.close()
        eid, marker = frames[0]
        assert eid is None  # reset frames carry no id on purpose
        assert marker["type"] == "stream" and marker["action"] == "reset"
        assert frames[1][0] is not None  # then the ring, with ids

    def test_garbage_last_event_id_is_ignored(self, tiny_queue_service):
        url = tiny_queue_service.url
        post(url, "/api/step", {"seconds": 300})
        request = urllib.request.Request(
            url + "/events", headers={"Last-Event-ID": "not-a-number"}
        )
        stream = urllib.request.urlopen(request, timeout=30)
        try:
            post(url, "/api/step", {"seconds": 60})
            frames = self._read_frames(stream, 1)
        finally:
            stream.close()
        assert frames and frames[0][0] is not None


# ---------------------------------------------------------------------------
# Durable state directory: auto-snapshots, manifest, resume
# ---------------------------------------------------------------------------


class TestStateDirAndResume:
    def test_auto_snapshots_are_verified_rotated_and_manifested(
        self, tmp_path
    ):
        state_dir = tmp_path / "state"
        service = build_service(
            ControlledExperiment(small_config()),
            mode="manual",
            supervisor_config=SupervisorConfig(
                state_dir=str(state_dir),
                auto_snapshot_every=300.0,
                auto_snapshot_min_wall_seconds=0.0,
                keep_snapshots=2,
                watchdog_poll_seconds=0.05,
            ),
        )
        service.start()
        try:
            supervisor = service.supervisor
            post(service.url, "/api/step", {"until": 1500.0})
            assert wait_until(
                lambda: supervisor._checkpoint is not None
                and supervisor._checkpoint.sim_now >= 900.0
            ), supervisor.summary()
        finally:
            service.stop()

        manifest = json.loads((state_dir / "manifest.json").read_text())
        entries = manifest["snapshots"]
        assert 1 <= len(entries) <= 2  # rotated down to keep_snapshots
        on_disk = sorted(p.name for p in state_dir.glob("auto-*.snap"))
        assert on_disk == sorted(entry["file"] for entry in entries)
        # Every manifested frame restores to an auditor-clean state.
        newest = state_dir / entries[-1]["file"]
        assert full_audit_violations(newest.read_bytes()) == []

    def test_resume_continues_byte_identically(self, tmp_path):
        state_dir = tmp_path / "state"
        config = SupervisorConfig(
            state_dir=str(state_dir), auto_snapshot_every=600.0
        )
        service = build_service(
            ControlledExperiment(small_config()),
            mode="manual",
            supervisor_config=config,
        )
        service.start()
        try:
            post(service.url, "/api/step", {"until": 600.0})
            post(service.url, "/api/freeze", {"group": "experiment"})
        finally:
            # Stop without a final snapshot: resume must rely on the
            # genesis/auto checkpoints plus the WAL, like after SIGKILL.
            service.stop()

        resumed = build_service(
            resume=True,
            mode="manual",
            supervisor_config=SupervisorConfig(
                state_dir=str(state_dir), auto_snapshot_every=600.0
            ),
        )
        resumed.start()
        try:
            assert resumed.run.engine.now == pytest.approx(600.0)
            post(resumed.url, "/api/step", {"until": 1500.0})
            frame = resumed.driver.read(
                lambda: resumed.run.snapshot()
            )
        finally:
            resumed.stop()

        reference = ControlledExperiment(small_config())
        reference.start()
        harness = harness_for(reference)
        harness.advance(600.0)
        apply_act(harness, "freeze", {"group": "experiment"})
        harness.advance(1500.0)
        assert frame == reference.snapshot()

    def test_resume_reads_a_manifest_with_per_entry_verified_keys(self, tmp_path):
        """Manifests written before the flag was dropped list every entry
        with ``"verified": true``; they still resume."""
        from repro.service.supervisor import load_resume_state

        state_dir = tmp_path / "state"
        config = SupervisorConfig(state_dir=str(state_dir), auto_snapshot_every=600.0)
        service = build_service(
            ControlledExperiment(small_config()),
            mode="manual",
            supervisor_config=config,
        )
        service.start()
        try:
            post(service.url, "/api/step", {"until": 600.0})
        finally:
            service.stop()
        manifest_path = state_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for entry in manifest["snapshots"]:
            assert "verified" not in entry
            entry["verified"] = True
        manifest_path.write_text(json.dumps(manifest))

        run, _, checkpoint, _ = load_resume_state(config)
        newest = manifest["snapshots"][-1]
        assert run.engine.now == checkpoint.sim_now == newest["sim_now"]
        assert "verified" not in checkpoint.to_doc()

    @pytest.mark.parametrize(
        "knob", ["auto_snapshot_every", "auto_snapshot_min_wall_seconds"]
    )
    def test_negative_snapshot_cadence_refused(self, knob):
        # A negative cadence puts the next auto-snapshot behind the clock,
        # so every slice boundary would encode a frame.
        with pytest.raises(ValueError, match=f"{knob} must be >= 0"):
            SupervisorConfig(**{knob: -1.0})
        assert getattr(SupervisorConfig(**{knob: 0.0}), knob) in (None, 0.0)

    def test_resume_with_empty_state_dir_fails_loudly(self, tmp_path):
        from repro.service import SupervisorError

        with pytest.raises(SupervisorError, match="nothing to resume"):
            build_service(
                resume=True,
                supervisor_config=SupervisorConfig(
                    state_dir=str(tmp_path / "empty")
                ),
            )
