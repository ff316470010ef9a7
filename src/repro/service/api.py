"""The HTTP surface: routing, JSON envelopes, SSE, and the server.

Built on ``http.server.ThreadingHTTPServer`` -- the whole service runs
on the standard library by design (the repo's no-new-runtime-deps
rule). Each request runs on its own thread, but handlers never touch
simulation state: they call :class:`~repro.service.app.ServiceApp`,
which funnels every read and act through the driver's single-writer
command queue.

API table (all JSON unless noted):

====== ========================= ==========================================
method path                      semantics
====== ========================= ==========================================
GET    /                         HTML dashboard
GET    /api/status               driver status (mode, sim time, progress)
GET    /api/config               experiment kind + full config
GET    /api/state                facility overview, one row per group
GET    /api/groups/<name>        one group in depth (per-server columns)
GET    /api/controllers          controller health + steering statistics
GET    /api/ledger               fleet budget ledger (404 on single-row)
GET    /api/tenants              per-tenant fairness (404 when untenanted)
GET    /api/events               eventlog tail (``?limit=&kind=``, integer
                                 limit)
GET    /api/series               power/budget traces (``?window=seconds``,
                                 finite)
GET    /api/safety               safety ladders + breaker states
GET    /api/faults               armed injectors and their fault counts
GET    /api/audit                full invariant sweep of live state, now
GET    /api/result               final result document (404 until finished,
                                 409 when the horizon gave no result)
GET    /api/scenarios            builtin fault scenario registry
GET    /healthz                  liveness probe (200 while serving)
GET    /readyz                   readiness probe (503 while degraded)
GET    /metrics                  Prometheus text exposition
GET    /events                   SSE stream (control + driver events)
POST   /api/pause                stop wall-clock pacing
POST   /api/resume               resume wall-clock pacing (409 in manual)
POST   /api/step                 advance {"seconds": s} or {"until": t}
POST   /api/finish               run to horizon, collect the result
POST   /api/freeze               freeze every server in {"group": name}
POST   /api/unfreeze             thaw a group the same way
POST   /api/budgets              reallocate {"allocations": {row: watts}}
POST   /api/faults               arm {"scenario": name} or {"spec": {...}}
POST   /api/snapshot             write durable frame to {"path": p}
POST   /api/verify-snapshot      restore + audit {"path": p} off-thread
====== ========================= ==========================================

Errors come back as ``{"error": message}`` with a meaningful status
(400 bad input, 404 unknown resource, 409 wrong state, 413 oversized
body, 422 rejected by an invariant, 429 command queue full, 500
unexpected, 503 degraded/timed out). 429 and 503 responses carry a
``Retry-After`` header so well-behaved clients back off instead of
hammering a recovering service.
"""

from __future__ import annotations

import json
import logging
import math
import queue
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.service.app import ServiceApp, ServiceError
from repro.service.dashboard import DASHBOARD_HTML
from repro.service.driver import DriverBusy, DriverError, DriverTimeout
from repro.telemetry import PROMETHEUS_CONTENT_TYPE

logger = logging.getLogger(__name__)

JSON_CONTENT_TYPE = "application/json; charset=utf-8"
HTML_CONTENT_TYPE = "text/html; charset=utf-8"
SSE_CONTENT_TYPE = "text/event-stream"

#: wall seconds between SSE keepalive comments when no events flow; short
#: so closed connections are detected promptly and shutdown never hangs
SSE_KEEPALIVE_SECONDS = 2.0

#: request bodies larger than this are refused with 413 -- the biggest
#: legitimate body (a full fleet budget reallocation or an inline fault
#: scenario spec) is a few KiB
MAX_BODY_BYTES = 1 << 20


class ServiceHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server carrying the app as shared context."""

    # Request threads must never block interpreter exit: SSE streams are
    # open-ended, so they are daemonic and close() does not join them.
    daemon_threads = True
    block_on_close = False
    # Fast restart of the smoke/CI loops on the same port.
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], app: ServiceApp) -> None:
        super().__init__(address, ServiceRequestHandler)
        self.app = app
        self.shutting_down = threading.Event()


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes one request to the app; owns serialization and errors."""

    protocol_version = "HTTP/1.1"
    # Headers and body are separate writes: with Nagle on, the body waits
    # for the client's delayed ACK (~40 ms) on every keep-alive reply.
    disable_nagle_algorithm = True
    server: ServiceHTTPServer

    @property
    def app(self) -> ServiceApp:
        return self.server.app

    # -- plumbing -------------------------------------------------------
    def log_message(self, format: str, *args) -> None:
        logger.debug("%s %s", self.address_string(), format % args)

    def _send(self, status: int, body: bytes, content_type: str,
              retry_after: Optional[float] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Cache-Control", "no-store")
        if retry_after is not None:
            self.send_header("Retry-After", str(max(1, int(retry_after))))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, doc,
                   retry_after: Optional[float] = None) -> None:
        body = json.dumps(doc, sort_keys=True).encode("utf-8")
        self._send(status, body, JSON_CONTENT_TYPE, retry_after=retry_after)

    def _send_error(self, status: int, message: str,
                    retry_after: Optional[float] = None) -> None:
        self._send_json(status, {"error": message}, retry_after=retry_after)

    def _read_body(self) -> dict:
        """Parse the JSON request body, defensively.

        Bounded on purpose: a malformed ``Content-Length`` is a 400 (not
        an uncaught ``ValueError`` turned 500), anything over
        ``MAX_BODY_BYTES`` is refused with 413 before a byte is read,
        and the read itself is capped by the validated length -- never
        an unbounded ``rfile.read()``.
        """
        declared = self.headers.get("Content-Length")
        if declared is None:
            return {}
        try:
            length = int(declared)
        except (TypeError, ValueError):
            raise ServiceError(
                400, f"malformed Content-Length: {declared!r}"
            ) from None
        if length < 0:
            raise ServiceError(
                400, f"malformed Content-Length: {declared!r}"
            )
        if length > MAX_BODY_BYTES:
            raise ServiceError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ServiceError(400, f"request body is not JSON: {exc}")
        if not isinstance(doc, dict):
            raise ServiceError(400, "request body must be a JSON object")
        return doc

    def _query(self) -> dict:
        return parse_qs(urlparse(self.path).query)

    def _qs_float(self, query: dict, name: str, default: float) -> float:
        if name not in query:
            return default
        try:
            value = float(query[name][0])
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ServiceError(
                400, f"query param {name!r} must be a finite number"
            )
        return value

    def _qs_int(self, query: dict, name: str, default: int) -> int:
        if name not in query:
            return default
        try:
            return int(query[name][0])
        except ValueError:
            raise ServiceError(
                400, f"query param {name!r} must be an integer"
            ) from None

    # -- dispatch -------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        path = urlparse(self.path).path.rstrip("/") or "/"
        try:
            handled = self._route(method, path)
        except ServiceError as exc:
            self._send_error(exc.status, exc.message,
                             retry_after=exc.retry_after)
            return
        except DriverBusy as exc:
            self._send_error(429, str(exc), retry_after=exc.retry_after)
            return
        except DriverTimeout as exc:
            self._send_error(503, str(exc), retry_after=5.0)
            return
        except DriverError as exc:
            self._send_error(409, str(exc))
            return
        except (BrokenPipeError, ConnectionResetError):
            return  # client went away; nothing to answer
        except Exception as exc:  # pragma: no cover - last-resort guard
            logger.exception("unhandled error serving %s %s", method, path)
            self._send_error(500, f"{type(exc).__name__}: {exc}")
            return
        if not handled:
            self._send_error(404, f"no route for {method} {path}")

    def _route(self, method: str, path: str) -> bool:
        app = self.app
        if method == "GET":
            if path == "/" or path == "/dashboard":
                self._send(200, DASHBOARD_HTML.encode("utf-8"),
                           HTML_CONTENT_TYPE)
            elif path == "/api/status":
                self._send_json(200, app.status())
            elif path == "/api/config":
                self._send_json(200, app.config())
            elif path == "/api/state":
                self._send_json(200, app.state())
            elif path.startswith("/api/groups/"):
                name = path[len("/api/groups/"):]
                self._send_json(200, app.group(name))
            elif path == "/api/controllers":
                self._send_json(200, app.controllers())
            elif path == "/api/ledger":
                self._send_json(200, app.ledger())
            elif path == "/api/tenants":
                self._send_json(200, app.tenants())
            elif path == "/api/events":
                query = self._query()
                limit = self._qs_int(query, "limit", 100)
                kind = query.get("kind", [None])[0]
                self._send_json(200, app.events(limit=limit, kind=kind))
            elif path == "/api/series":
                window = self._qs_float(self._query(), "window", 3600.0)
                self._send_json(200, app.series(window_seconds=window))
            elif path == "/api/safety":
                self._send_json(200, app.safety())
            elif path == "/api/faults":
                self._send_json(200, app.faults())
            elif path == "/api/audit":
                self._send_json(200, app.audit())
            elif path == "/api/result":
                self._send_json(200, app.result())
            elif path == "/api/scenarios":
                self._send_json(200, app.scenarios())
            elif path == "/healthz":
                self._send_json(200, app.healthz())
            elif path == "/readyz":
                status, doc = app.readyz()
                self._send_json(
                    status, doc,
                    retry_after=2.0 if status != 200 else None,
                )
            elif path == "/metrics":
                text = app.metrics_text()
                self._send(200, text.encode("utf-8"),
                           PROMETHEUS_CONTENT_TYPE)
            elif path == "/events":
                self._serve_sse()
            else:
                return False
            return True
        if method == "POST":
            body = self._read_body()
            if path == "/api/pause":
                self._send_json(200, app.pause())
            elif path == "/api/resume":
                self._send_json(200, app.resume())
            elif path == "/api/step":
                seconds = body.get("seconds")
                until = body.get("until")
                self._send_json(
                    200,
                    app.step(
                        seconds=float(seconds) if seconds is not None
                        else None,
                        until=float(until) if until is not None else None,
                    ),
                )
            elif path == "/api/finish":
                self._send_json(200, app.finish())
            elif path == "/api/freeze":
                self._send_json(
                    200, app.freeze_group(self._require(body, "group"))
                )
            elif path == "/api/unfreeze":
                self._send_json(
                    200, app.unfreeze_group(self._require(body, "group"))
                )
            elif path == "/api/budgets":
                allocations = body.get("allocations")
                if not isinstance(allocations, dict):
                    raise ServiceError(
                        400, "body needs an 'allocations' object"
                    )
                self._send_json(200, app.set_budgets(allocations))
            elif path == "/api/faults":
                self._send_json(
                    200,
                    app.arm_faults(
                        scenario=body.get("scenario"), spec=body.get("spec")
                    ),
                )
            elif path == "/api/snapshot":
                self._send_json(
                    200, app.snapshot(self._require(body, "path"))
                )
            elif path == "/api/verify-snapshot":
                report = app.verify_snapshot(
                    self._require(body, "path"), checks=body.get("checks")
                )
                status = 200 if report["ok"] else 422
                if report["error"] is not None:
                    status = 422
                self._send_json(status, report)
            else:
                return False
            return True
        return False

    @staticmethod
    def _require(body: dict, key: str) -> str:
        value = body.get(key)
        if not isinstance(value, str) or not value:
            raise ServiceError(400, f"body needs a string {key!r}")
        return value

    # -- SSE ------------------------------------------------------------
    def _serve_sse(self) -> None:
        """Stream driver/control events until the client disconnects.

        Events are fanned out by the :class:`EventBus` (owned by the
        supervisor, so the stream survives driver recoveries); this
        thread only formats and writes. Every event carries its
        monotonic ``id:`` line, and a reconnecting client's
        ``Last-Event-ID`` header replays the gap from the bus's ring
        buffer -- or delivers an explicit ``reset`` marker when the gap
        fell off the ring. Keepalive comments flow when idle so a dead
        client surfaces as a broken pipe within seconds, and
        ``Connection: close`` keeps HTTP/1.1 keep-alive from pinning the
        socket open after the stream ends.
        """
        bus = self.app.bus
        last_event_id: Optional[int] = None
        raw_last = self.headers.get("Last-Event-ID")
        if raw_last is not None:
            try:
                last_event_id = int(raw_last)
            except (TypeError, ValueError):
                last_event_id = None  # ignore garbage; serve from now
        subscription = bus.subscribe(last_event_id=last_event_id)
        try:
            self.send_response(200)
            self.send_header("Content-Type", SSE_CONTENT_TYPE)
            self.send_header("Cache-Control", "no-store")
            self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(b": stream open\n\n")
            self.wfile.flush()
            while not self.server.shutting_down.is_set():
                try:
                    eid, doc = subscription.get(
                        timeout=SSE_KEEPALIVE_SECONDS
                    )
                except queue.Empty:
                    self.wfile.write(b": keepalive\n\n")
                    self.wfile.flush()
                    continue
                payload = json.dumps(doc, sort_keys=True)
                if eid is not None:
                    frame = f"id: {eid}\ndata: {payload}\n\n"
                else:  # synthesized marker (e.g. replay reset): no id
                    frame = f"data: {payload}\n\n"
                self.wfile.write(frame.encode("utf-8"))
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # client disconnected; unsubscribe below
        finally:
            bus.unsubscribe(subscription)
            self.close_connection = True


def make_server(app: ServiceApp, host: str = "127.0.0.1",
                port: int = 0) -> ServiceHTTPServer:
    """Bind the service; ``port=0`` picks an ephemeral port (tests)."""
    return ServiceHTTPServer((host, port), app)


__all__ = [
    "JSON_CONTENT_TYPE",
    "ServiceHTTPServer",
    "ServiceRequestHandler",
    "make_server",
]
