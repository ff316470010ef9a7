"""ServiceApp: the operations the REST API exposes, supervisor-mediated.

One layer below the HTTP handler and one above the driver: every public
method validates its inputs, then submits a closure to the current
:class:`~repro.service.driver.RealTimeDriver` so it executes on the
simulation thread. The HTTP layer never touches experiment state
directly, and the closures here are the *only* mutation paths besides
the driver's own pacing.

The app holds the :class:`~repro.service.supervisor.DriverSupervisor`,
not a driver, because the driver is *replaceable*: after a recovery the
supervisor swaps in a rebuilt one and requests keep flowing. Two
consequences shape this module:

- **Acts gate on readiness.** While the supervisor is recovering (or
  parked in ``failed``), mutations are refused with a 503 +
  ``Retry-After`` instead of being queued against a dead driver.
- **Observes degrade instead of dying.** Every successful live read is
  cached per view; when the driver is unavailable the cache is served
  with ``"degraded": true`` stamped on it, so dashboards and probes
  keep answering with last-known state through an entire recovery.

Mutating acts flow through :func:`repro.service.wal.apply_act` and are
appended to the supervisor's write-ahead log *after* they apply and
*before* the HTTP 200 goes out -- the ack-after-durable contract the
recovery replay depends on.

Raises :class:`ServiceError` with an HTTP-ish status code for every
anticipated failure (unknown group, fleet-only operation on a
single-row run, invalid budgets) so the handler can map errors without
pattern-matching message strings.
"""

from __future__ import annotations

import logging
import threading
from typing import Callable, Dict, Optional, Sequence

from repro.faults.scenario import builtin_scenarios
from repro.service import views
from repro.service.driver import DriverBusy, DriverError, DriverTimeout
from repro.service.supervisor import DriverSupervisor
from repro.service.wal import ActError, OPERATOR_EVENT_ID, apply_act

logger = logging.getLogger(__name__)

__all__ = ["OPERATOR_EVENT_ID", "ServiceApp", "ServiceError"]


class ServiceError(RuntimeError):
    """An API operation failed in an anticipated way."""

    def __init__(self, status: int, message: str,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after


class ServiceApp:
    """Everything the REST API can observe and do, in one place."""

    def __init__(self, supervisor: DriverSupervisor) -> None:
        self.supervisor = supervisor
        self._cache_lock = threading.Lock()
        self._view_cache: Dict[str, dict] = {}
        self._metrics_cache: Optional[str] = None

    # The driver and the run are *volatile*: recovery replaces both.
    @property
    def driver(self):
        return self.supervisor.driver

    @property
    def run(self):
        return self.supervisor.run

    @property
    def bus(self):
        return self.supervisor.bus

    # ------------------------------------------------------------------
    # Observe (read-only commands; degrade to cache when not ready)
    # ------------------------------------------------------------------
    def _observe(self, key: str, build: Callable[[], object],
                 label: Optional[str] = None):
        supervisor = self.supervisor
        if not supervisor.ready():
            return self._cached(key)
        try:
            doc = supervisor.driver.read(
                build,
                label=label or key,
                timeout=supervisor.config.read_timeout,
            )
        except (DriverBusy, DriverTimeout, DriverError):
            # Dead, busy or mid-recovery driver: last-known view beats
            # an error page for a read.
            return self._cached(key)
        if isinstance(doc, dict):
            with self._cache_lock:
                self._view_cache[key] = doc
        return doc

    def _cached(self, key: str) -> dict:
        with self._cache_lock:
            entry = self._view_cache.get(key)
        if entry is None:
            raise ServiceError(
                503,
                "service is recovering and has no cached view for "
                f"{key!r} yet",
                retry_after=2.0,
            )
        doc = dict(entry)
        doc["degraded"] = True
        return doc

    def status(self) -> dict:
        supervisor = self.supervisor
        doc = self._observe("status", lambda: self.driver._status_doc())
        doc = dict(doc)
        doc["supervisor"] = supervisor.summary()
        return doc

    def config(self) -> dict:
        return self._observe(
            "config", lambda: views.config_doc(self.run)
        )

    def state(self) -> dict:
        return self._observe("state", lambda: views.state_doc(self.run))

    def group(self, name: str) -> dict:
        doc = self._observe(
            f"group:{name}",
            lambda: views.group_doc(self.run, name),
            label="group",
        )
        if doc is None:
            raise ServiceError(404, f"unknown group {name!r}")
        return doc

    def controllers(self) -> dict:
        return self._observe(
            "controllers", lambda: views.controllers_doc(self.run)
        )

    def ledger(self) -> dict:
        doc = self._observe(
            "ledger", lambda: views.ledger_doc(self.run)
        )
        if doc is None:
            raise ServiceError(
                404, "no budget ledger: this is a single-row run"
            )
        return doc

    def tenants(self) -> dict:
        doc = self._observe(
            "tenants", lambda: views.tenants_doc(self.run)
        )
        if doc is None:
            raise ServiceError(404, "no tenancy: this run is untenanted")
        return doc

    def events(self, limit: int = 100, kind: Optional[str] = None) -> dict:
        return self._observe(
            f"events:{limit}:{kind}",
            lambda: views.events_doc(self.run, limit=limit, kind=kind),
            label="events",
        )

    def series(self, window_seconds: float = 3600.0) -> dict:
        return self._observe(
            f"series:{window_seconds}",
            lambda: views.series_doc(self.run, window_seconds),
            label="series",
        )

    def safety(self) -> dict:
        return self._observe("safety", lambda: views.safety_doc(self.run))

    def faults(self) -> dict:
        return self._observe("faults", lambda: views.faults_doc(self.run))

    def audit(self) -> dict:
        return self._observe("audit", lambda: views.audit_doc(self.run))

    def result(self) -> dict:
        doc = self.driver.result_doc
        if doc is None:
            if self.driver.finish_error is not None:
                raise ServiceError(409, self.driver.finish_error)
            raise ServiceError(404, "experiment has not finished yet")
        return views.jsonsafe(doc)

    def metrics_text(self) -> str:
        """Both registries in Prometheus text format.

        The run's registry (simulation metrics, pickled into
        snapshots) is read on the sim thread; the supervisor's
        service-plane registry (recoveries, checkpoints, WAL appends,
        SSE drops) is lock-free to read and always available -- so
        ``/metrics`` stays partially up even while recovering, and with
        telemetry off (no run registry) serves the service plane
        alone.
        """
        from repro.telemetry import render_prometheus

        def render_run() -> str:
            registry = self.run.telemetry.registry
            return "" if registry is None else render_prometheus(registry)

        supervisor = self.supervisor
        run_text: Optional[str] = None
        if supervisor.ready():
            try:
                run_text = supervisor.driver.read(
                    render_run,
                    label="metrics",
                    timeout=supervisor.config.read_timeout,
                )
                with self._cache_lock:
                    self._metrics_cache = run_text
            except (DriverBusy, DriverTimeout, DriverError):
                run_text = None
        if run_text is None:
            with self._cache_lock:
                run_text = self._metrics_cache or ""
        service_text = render_prometheus(supervisor.registry)
        if run_text and not run_text.endswith("\n"):
            run_text += "\n"
        return run_text + service_text

    def scenarios(self) -> dict:
        registry = builtin_scenarios()
        return {
            "scenarios": {
                name: scenario.describe()
                for name, scenario in sorted(registry.items())
            }
        }

    # -- probes ---------------------------------------------------------
    def healthz(self) -> dict:
        """Liveness: the process is serving; says nothing about the sim."""
        return {"ok": True, "state": self.supervisor.state}

    def readyz(self) -> "tuple[int, dict]":
        """Readiness: 200 only when acts would be accepted right now."""
        supervisor = self.supervisor
        reason = supervisor.not_ready_reason()
        doc = {
            "ready": reason is None,
            "state": supervisor.state,
            "recoveries": supervisor.recoveries,
        }
        if reason is not None:
            doc["reason"] = reason
            return 503, doc
        return 200, doc

    # ------------------------------------------------------------------
    # Act (mutating commands; refused while not ready)
    # ------------------------------------------------------------------
    def _require_ready(self) -> None:
        supervisor = self.supervisor
        reason = supervisor.not_ready_reason()
        if reason is not None:
            raise ServiceError(
                503,
                f"acts are disabled while degraded: {reason}",
                retry_after=2.0,
            )

    def pause(self) -> dict:
        self._require_ready()
        return self.driver.pause()

    def resume(self) -> dict:
        self._require_ready()
        try:
            return self.driver.resume()
        except (DriverBusy, DriverTimeout):
            raise
        except DriverError as exc:
            raise ServiceError(409, str(exc)) from exc

    def step(self, seconds: Optional[float] = None,
             until: Optional[float] = None) -> dict:
        self._require_ready()
        try:
            return self.driver.step(seconds=seconds, until=until)
        except (DriverBusy, DriverTimeout):
            raise
        except DriverError as exc:
            raise ServiceError(409, str(exc)) from exc

    def finish(self) -> dict:
        self._require_ready()
        try:
            return self.driver.finish()
        except (DriverBusy, DriverTimeout):
            raise
        except DriverError as exc:
            raise ServiceError(409, str(exc)) from exc

    def _logged_act(self, op: str, payload: dict, label: str) -> dict:
        """Apply one act on the sim thread and WAL it before acking."""
        self._require_ready()
        supervisor = self.supervisor
        driver = supervisor.driver

        def closure():
            doc = apply_act(supervisor.run, op, payload)
            # Durable before the 200: a crash after this line replays
            # the act; a crash before it never acknowledged anything.
            supervisor.log_act(op, payload)
            return doc

        try:
            return views.jsonsafe(
                driver.act(
                    closure, label=label,
                    timeout=supervisor.config.act_timeout,
                )
            )
        except ActError as exc:
            raise ServiceError(exc.status, exc.message) from exc

    def freeze_group(self, name: str) -> dict:
        return self._logged_act("freeze", {"group": name}, "freeze")

    def unfreeze_group(self, name: str) -> dict:
        return self._logged_act("unfreeze", {"group": name}, "unfreeze")

    def set_budgets(self, allocations: Dict[str, float]) -> dict:
        """Reallocate row budgets through the ledger (fleet runs only).

        ``allocations`` may be partial; unmentioned rows keep their
        current allocation. The ledger enforces conservation, floors and
        feed ratings atomically -- an invalid division is rejected
        wholesale with a 422 and nothing changes.
        """
        if not isinstance(allocations, dict) or not allocations:
            raise ServiceError(400, "allocations must be a non-empty object")
        return self._logged_act(
            "reallocate", {"allocations": allocations}, "budgets"
        )

    def arm_faults(self, scenario: Optional[str] = None,
                   spec: Optional[dict] = None) -> dict:
        """Arm a builtin scenario by name, or an inline scenario spec.

        Window times in the scenario are interpreted relative to *now*
        (see :meth:`repro.sim.staged.StagedRun.arm_faults`).
        """
        payload: Dict[str, object] = {}
        if scenario is not None:
            payload["scenario"] = scenario
        if spec is not None:
            payload["spec"] = spec
        return self._logged_act("arm-faults", payload, "arm-faults")

    def snapshot(self, path: str) -> dict:
        if not path:
            raise ServiceError(400, "snapshot needs a 'path'")
        self._require_ready()
        try:
            return views.jsonsafe(self.driver.snapshot(path))
        except OSError as exc:
            raise ServiceError(422, f"cannot write snapshot: {exc}") from exc

    def verify_snapshot(self, path: str,
                        checks: Optional[Sequence[str]] = None) -> dict:
        """Restore-and-audit a durable frame (shared with the CLI).

        Runs off the sim thread on purpose: verification restores a
        *separate* experiment instance from disk and never touches the
        live run, so hammering it cannot stall the simulation.
        """
        if not path:
            raise ServiceError(400, "verify-snapshot needs a 'path'")
        from repro.sim.verify import verify_snapshot_file

        report = verify_snapshot_file(path, checks=checks)
        return views.jsonsafe(report.to_dict())
