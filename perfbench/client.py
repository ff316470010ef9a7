"""Closed-loop client for the service-step workload.

One thread; every request on a fresh connection. The client steps a
fixed number of sim-seconds, then sends a fixed number of
freeze+unfreeze act pairs, then issues the fixed observe GETs:
together, one observe, timed as the sum of their latencies. Each request waits
for the previous reply, so a slow service simply receives less load.

A fresh connection per request, not one keep-alive connection: the
service's handler leaves Nagle's algorithm on and writes headers and
body in two sends, so on a reused connection every reply waits ~44 ms
for the client's delayed ACK (see NOTES.md, known defects). That stall
would dwarf the service's own work of a few milliseconds.

Every request is an operation: it fails when the reply is not 2xx or
the connection times out. Every request is timed from just before the
connection opens until the whole body is read, and scaled to the
reference host (``hostspeed.HostClock``): the kernel runs on this
thread between requests, while the service waits for the next one.
"""

from __future__ import annotations

import http.client
import json
import re
from time import perf_counter, sleep
from typing import List, Optional, Tuple

from hostspeed import HostClock

REQUEST_TIMEOUT_S = 30.0
CHECKPOINT_WAIT_S = 60.0


class ServiceClient:
    """Counts, times and checks every request it sends."""

    def __init__(self, host: str, port: int) -> None:
        self._address = (host, port)
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.read_ms: List[float] = []
        self.act_ms: List[float] = []
        self.clock = HostClock()
        #: scaled seconds of each step of drive(): the step, its acts and reads
        self.slice_s: List[float] = []
        #: raw wall seconds of the same requests, summed
        self.raw_s = 0.0
        #: raw and scaled seconds of every request so far
        self._total_raw_s = 0.0
        self._total_scaled_s = 0.0

    def request(self, method: str, path: str, body: Optional[dict] = None) -> Tuple[float, Optional[bytes]]:
        """Send one request; returns (scaled latency ms, body) -- body None
        on failure."""
        self.attempted += 1
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        start = perf_counter()
        connection = http.client.HTTPConnection(*self._address, timeout=REQUEST_TIMEOUT_S)
        try:
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self._fail(f"{method} {path}: {type(exc).__name__}: {exc}")
            return self._elapsed_ms(start), None
        finally:
            connection.close()
        latency_ms = self._elapsed_ms(start)
        if not 200 <= response.status < 300:
            self._fail(f"{method} {path}: HTTP {response.status} {data[:200]!r}")
            return latency_ms, None
        return latency_ms, data

    def _elapsed_ms(self, start: float) -> float:
        """Scaled milliseconds since ``start``; adds to the totals."""
        raw_s = perf_counter() - start
        scaled_s = self.clock.scale(raw_s)
        self._total_raw_s += raw_s
        self._total_scaled_s += scaled_s
        return scaled_s * 1e3

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)

    def get_json(self, path: str) -> Optional[dict]:
        _, data = self.request("GET", path)
        return json.loads(data) if data is not None else None

    def wait_for_checkpoint(self, sim_time: float) -> None:
        """Block until the supervisor adopted the checkpoint taken at
        ``sim_time`` (the watchdog persists offers asynchronously; an
        offer not yet adopted would be superseded by the next one).

        The polls are requests like any other, but not timed work: they
        leave the running totals as they found them."""
        totals = self._total_raw_s, self._total_scaled_s
        deadline = perf_counter() + CHECKPOINT_WAIT_S
        try:
            while True:
                doc = self.get_json("/api/status")
                checkpoint = (doc or {}).get("supervisor", {}).get("checkpoint") or {}
                if checkpoint.get("sim_now", -1.0) >= sim_time - 1e-6:
                    return
                if perf_counter() > deadline:
                    raise RuntimeError(f"checkpoint at t={sim_time} never adopted")
                sleep(0.005)
        finally:
            self._total_raw_s, self._total_scaled_s = totals

    # ------------------------------------------------------------------
    def drive(
        self,
        horizon: float,
        step_seconds: float,
        read_paths: Tuple[str, ...],
        act_pairs: int,
        act_group: str,
        checkpoint_every: float,
    ) -> int:
        """Step to the horizon; returns the number of acts acknowledged.

        Each step is timed with its acts and reads into ``slice_s``, as
        the sum of their scaled latencies. After a step that offered a
        checkpoint, the loop waits until the watchdog has adopted it,
        untimed, before its acts and reads: adoption restores and audits
        the checkpoint on the watchdog thread, and left to overlap the
        next requests it contended with them for the interpreter lock,
        spreading act p90 by 0.17–0.20 over ten runs. Every checkpoint is
        adopted, the one at the horizon included."""
        sim_now = 0.0
        acked = 0
        next_checkpoint = checkpoint_every
        while sim_now < horizon - 1e-6:
            raw_before, scaled_before = self._total_raw_s, self._total_scaled_s
            _, data = self.request("POST", "/api/step", {"seconds": step_seconds})
            if data is None:
                raise RuntimeError("step failed: " + "; ".join(self.failures))
            sim_now = float(json.loads(data)["sim_now"])
            if sim_now >= next_checkpoint - 1e-6:
                self.wait_for_checkpoint(next_checkpoint)
                next_checkpoint += checkpoint_every
            for op in ("freeze", "unfreeze") * act_pairs:
                latency, reply = self.request("POST", f"/api/{op}", {"group": act_group})
                self.act_ms.append(latency)
                acked += reply is not None
            observe_ms = 0.0
            for path in read_paths:
                latency, _ = self.request("GET", path)
                observe_ms += latency
            self.read_ms.append(observe_ms)
            self.slice_s.append(self._total_scaled_s - scaled_before)
            self.raw_s += self._total_raw_s - raw_before
        return acked


_METRIC_LINE = re.compile(r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{[^}]*\})?\s+(?P<value>\S+)$")


def prometheus_value(text: str, name: str) -> float:
    """Sum of every sample of ``name`` in a Prometheus text document."""
    total = 0.0
    found = False
    for line in text.splitlines():
        match = _METRIC_LINE.match(line)
        if match and match.group("name") == name:
            total += float(match.group("value"))
            found = True
    if not found:
        raise KeyError(name)
    return total
