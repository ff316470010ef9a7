"""repro.service: the live control-plane service over a staged run.

The batch runs answer "what happened"; this package answers "what is
happening" -- it runs a :class:`~repro.sim.staged.StagedRun` (a
single-row :class:`~repro.sim.experiment.ControlledExperiment` or a
multi-row :class:`~repro.sim.fleet_experiment.FleetExperiment`) as a
long-lived process and exposes observe/act surfaces over HTTP,
stdlib-only. The run is its own service surface -- groups, schedulers,
controllers, breakers, ledger, eventlog and runtime fault arming are
StagedRun methods -- so every module below takes the run directly and
never branches on its shape.

Layers, bottom up:

- :mod:`repro.service.driver` -- the single-writer simulation thread
  with its bounded command queue; real, accelerated and manual-step
  pacing; heartbeat and auto-snapshot hooks.
- :mod:`repro.service.wal` -- the write-ahead log of operator acts and
  the one ``apply_act`` path shared by live requests and replay.
- :mod:`repro.service.supervisor` -- verified checkpoints, the watchdog
  that rebuilds a dead/hung driver from checkpoint + WAL replay, and
  the service-plane metrics registry.
- :mod:`repro.service.views` -- observe-side JSON documents (NaN-safe).
- :mod:`repro.service.app` -- validated act operations (freeze, budget
  reallocation, fault arming, snapshot/verify), observe dispatch with
  read-only degraded mode, health/readiness probes.
- :mod:`repro.service.api` -- ThreadingHTTPServer routing, SSE bridge
  with ``Last-Event-ID`` replay, backpressure mapping (429/503 +
  Retry-After), the Prometheus endpoint.
- :mod:`repro.service.dashboard` -- the zero-dependency HTML operator
  console served at ``/``.

Manual-step mode issues exactly the batch ``advance()`` sequence, so a
service-driven run is byte-identical to ``run()`` -- pinned in
tests/test_service.py -- and a crash-recovered
run is byte-identical to an uninterrupted one (tests/
test_service_resilience.py).
"""

from __future__ import annotations

import logging
import threading
from typing import Optional

from repro.service.api import ServiceHTTPServer, make_server
from repro.service.app import ServiceApp, ServiceError
from repro.service.driver import (
    DriverBusy,
    DriverError,
    DriverTimeout,
    EventBus,
    RealTimeDriver,
)
from repro.service.supervisor import (
    DriverSupervisor,
    SupervisorConfig,
    SupervisorError,
    load_resume_state,
)
from repro.service.wal import ActWal, apply_act
from repro.sim.staged import StagedRun

logger = logging.getLogger(__name__)


def harness_for(run) -> StagedRun:
    """The run itself, once checked to be a :class:`StagedRun`.

    A run is its own service surface, so this is only the type check at
    the service's entry; perfbench/worker.py imports it by this name.
    """
    if not isinstance(run, StagedRun):
        raise TypeError(
            f"no service surface on {type(run).__name__}; expected a StagedRun "
            "(ControlledExperiment or FleetExperiment)"
        )
    return run


class ServiceHandle:
    """One wired service instance: supervisor + app + HTTP server.

    The single entry point the CLI and the tests share, so both always
    exercise the same wiring. ``start()`` launches the sim thread, the
    supervision watchdog and the HTTP accept loop; ``stop()`` tears them
    down in the only safe order (stop accepting, stop the watchdog,
    write the final snapshot from the sim thread, stop the sim thread,
    close sockets).
    """

    def __init__(self, supervisor: DriverSupervisor, app: ServiceApp,
                 httpd: ServiceHTTPServer) -> None:
        self.supervisor = supervisor
        self.app = app
        self.httpd = httpd
        self._http_thread: Optional[threading.Thread] = None

    # The driver/run pair is volatile across recoveries; route every
    # access through the supervisor so callers never hold a stale one.
    @property
    def driver(self) -> RealTimeDriver:
        return self.supervisor.driver

    @property
    def run(self) -> StagedRun:
        return self.supervisor.run

    #: the name perfbench/worker.py reads the live run by
    harness = run

    @property
    def address(self) -> "tuple[str, int]":
        """The bound ``(host, port)`` (resolves ephemeral port 0)."""
        return self.httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> None:
        self.supervisor.start()
        self._http_thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-service-http",
            daemon=True,
        )
        self._http_thread.start()
        logger.info("service listening on %s", self.url)

    def stop(self, snapshot_path: Optional[str] = None) -> Optional[int]:
        """Graceful teardown; returns final snapshot size when written."""
        self.httpd.shutting_down.set()
        written = self.supervisor.stop(snapshot_path=snapshot_path)
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._http_thread is not None:
            self._http_thread.join(timeout=10.0)
        return written

    def __enter__(self) -> "ServiceHandle":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def build_service(
    experiment=None,
    mode: str = "manual",
    speedup: float = 60.0,
    host: str = "127.0.0.1",
    port: int = 0,
    slice_seconds: float = 60.0,
    supervisor_config: Optional[SupervisorConfig] = None,
    resume: bool = False,
    advance_hook=None,
) -> ServiceHandle:
    """Wire a staged experiment into a ready-to-start supervised service.

    ``resume=True`` ignores ``experiment`` and rebuilds the run from
    the supervisor config's ``state_dir`` (newest verified checkpoint
    plus WAL replay). Supervision is always on; without a ``state_dir``
    the checkpoints and the WAL simply live in memory, which still
    recovers from driver crashes and hangs (just not from a killed
    process).
    """
    config = supervisor_config or SupervisorConfig()
    wal = checkpoint = None
    if resume:
        run, wal, checkpoint, _ = load_resume_state(config)
    elif experiment is None:
        raise SupervisorError("build_service needs an experiment (or resume=True)")
    else:
        run = harness_for(experiment)
    supervisor = DriverSupervisor(
        run,
        mode=mode,
        speedup=speedup,
        slice_seconds=slice_seconds,
        config=config,
        advance_hook=advance_hook,
        wal=wal,
        initial_checkpoint=checkpoint,
    )
    app = ServiceApp(supervisor)
    httpd = make_server(app, host=host, port=port)
    return ServiceHandle(supervisor, app, httpd)


__all__ = [
    "ActWal",
    "DriverBusy",
    "DriverError",
    "DriverSupervisor",
    "DriverTimeout",
    "EventBus",
    "RealTimeDriver",
    "ServiceApp",
    "ServiceError",
    "ServiceHTTPServer",
    "ServiceHandle",
    "SupervisorConfig",
    "SupervisorError",
    "apply_act",
    "build_service",
    "harness_for",
    "load_resume_state",
    "make_server",
]
