"""Fault scenarios: declarative, picklable, deterministic.

A :class:`FaultScenario` is a frozen description of *what* goes wrong and
*when*, in absolute simulation seconds. It carries its own seed so that
stochastic faults (RPC failures, server crashes) replay identically
regardless of the experiment seed -- a chaos run is reproducible end to
end, which is what makes chaos testing debuggable rather than folklore.

Times are absolute because the hazards are: an operator cares that the
monitor was dark from 01:10 to 01:20, not "for 3% of samples". Windows
that fall outside a run's horizon are simply never armed.

Two hazard planes live here:

- **control plane** (PR 2): monitor blackouts, scheduler RPC faults,
  controller crashes -- the control system failing.
- **data plane** (this PR): workload surges, IPMI sensor miscalibration,
  server crash storms -- the *world* misbehaving while the control
  system works as designed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

#: sanity bound on absolute event times: one simulated year. A crash
#: scheduled beyond this is almost certainly a units mistake (hours or
#: minutes passed where seconds were meant).
MAX_EVENT_SECONDS = 365.0 * 86400.0


def _check_windows(
    label: str,
    windows: Sequence[Tuple[float, float]],
    allow_overlap: bool = False,
) -> None:
    """Common validation for (start, duration) windows."""
    for start, duration in windows:
        if start < 0 or duration <= 0:
            raise ValueError(
                f"{label} windows need start >= 0 and duration > 0, "
                f"got ({start}, {duration})"
            )
        if start > MAX_EVENT_SECONDS:
            raise ValueError(
                f"{label} window starts at {start:.0f}s, beyond the "
                f"{MAX_EVENT_SECONDS:.0f}s sanity bound (units mistake?)"
            )
    if not allow_overlap:
        ordered = sorted(windows)
        for (s0, d0), (s1, _) in zip(ordered, ordered[1:]):
            if s1 < s0 + d0:
                raise ValueError(
                    f"{label} windows overlap: ({s0}, {d0}) and ({s1}, ...); "
                    "merge them into one window"
                )


@dataclass(frozen=True)
class FaultScenario:
    """One fault schedule across both planes.

    Attributes
    ----------
    name:
        Label used in reports and the CLI registry.
    blackouts:
        ``(start_seconds, duration_seconds)`` monitor outage windows.
    rpc_failure_rate:
        Probability that one ``set_frozen`` RPC (a whole freeze or thaw
        batch) fails in transit.
    rpc_latency_seconds:
        Latency charged to a *successful* RPC (bookkeeping only).
    rpc_timeout_seconds:
        Latency a failed RPC burns before surfacing -- what the
        controller's per-tick RPC deadline is accounted against.
    crash_times:
        Instants at which the controller process dies.
    restart_delay_seconds:
        Supervisor restart latency after each crash.
    surges:
        ``(start, duration, factor)`` workload surge windows: the batch
        arrival rate is multiplied by ``factor`` inside the window (a
        product launch, a retry storm). Demand hits every group drawing
        from the shared pool.
    tenant_surges:
        ``(tenant, start, duration, factor)`` windows multiplying only
        one tenant's arrival rate -- a single customer's launch or retry
        storm. No-op unless the run is tenancy-enabled and has a tenant
        of that name; windows for the same tenant must not overlap.
    sensor_bias:
        ``(start, duration, factor)`` IPMI miscalibration windows: every
        power reading the monitoring plane serves is multiplied by
        ``factor``. The controller cannot see the bias -- true power
        (and the breaker) is unaffected, which is exactly the hazard.
    server_mtbf_hours:
        Per-server mean time between failures for background server
        churn; 0 disables the failure process entirely.
    server_mttr_minutes:
        Mean repair time for a failed server.
    crash_storms:
        ``(start, duration, mtbf_hours)`` windows during which the
        per-server MTBF drops to ``mtbf_hours`` (a bad kernel rollout, a
        cooling failure). Requires the failure process, which is armed
        automatically when any storm is configured.
    coordinator_blackouts:
        ``(start_seconds, duration_seconds)`` windows during which the
        fleet coordinator loses its view of the facility (its process is
        partitioned from the monitoring plane). The budget ledger
        freezes at the last-good division; row controllers keep running
        against their frozen allocations. No-op in runs without a fleet
        coordinator.
    seed:
        Seed of the fault-injection RNGs (independent of the
        experiment's).
    """

    name: str = "custom"
    blackouts: Tuple[Tuple[float, float], ...] = ()
    rpc_failure_rate: float = 0.0
    rpc_latency_seconds: float = 0.02
    rpc_timeout_seconds: float = 2.0
    crash_times: Tuple[float, ...] = ()
    restart_delay_seconds: float = 120.0
    surges: Tuple[Tuple[float, float, float], ...] = ()
    tenant_surges: Tuple[Tuple[str, float, float, float], ...] = ()
    sensor_bias: Tuple[Tuple[float, float, float], ...] = ()
    server_mtbf_hours: float = 0.0
    server_mttr_minutes: float = 60.0
    crash_storms: Tuple[Tuple[float, float, float], ...] = ()
    coordinator_blackouts: Tuple[Tuple[float, float], ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        # Canonicalize sequences to tuples so the scenario stays
        # hashable/picklable however it was constructed.
        object.__setattr__(
            self,
            "blackouts",
            tuple((float(s), float(d)) for s, d in self.blackouts),
        )
        object.__setattr__(
            self, "crash_times", tuple(float(t) for t in self.crash_times)
        )
        object.__setattr__(
            self,
            "surges",
            tuple((float(s), float(d), float(f)) for s, d, f in self.surges),
        )
        object.__setattr__(
            self,
            "tenant_surges",
            tuple(
                (str(t), float(s), float(d), float(f))
                for t, s, d, f in self.tenant_surges
            ),
        )
        object.__setattr__(
            self,
            "sensor_bias",
            tuple((float(s), float(d), float(f)) for s, d, f in self.sensor_bias),
        )
        object.__setattr__(
            self,
            "crash_storms",
            tuple((float(s), float(d), float(m)) for s, d, m in self.crash_storms),
        )
        object.__setattr__(
            self,
            "coordinator_blackouts",
            tuple((float(s), float(d)) for s, d in self.coordinator_blackouts),
        )
        _check_windows("blackout", self.blackouts)
        _check_windows("coordinator_blackout", self.coordinator_blackouts)
        _check_windows("surge", [(s, d) for s, d, _ in self.surges])
        for tenant in {t for t, _, _, _ in self.tenant_surges}:
            _check_windows(
                f"tenant_surge[{tenant}]",
                [(s, d) for t, s, d, _ in self.tenant_surges if t == tenant],
            )
        _check_windows("sensor_bias", [(s, d) for s, d, _ in self.sensor_bias])
        _check_windows("crash_storm", [(s, d) for s, d, _ in self.crash_storms])
        if not 0.0 <= self.rpc_failure_rate < 1.0:
            raise ValueError(
                f"rpc_failure_rate must be in [0, 1), got {self.rpc_failure_rate}"
            )
        if self.rpc_latency_seconds < 0 or self.rpc_timeout_seconds < 0:
            raise ValueError("RPC latencies must be non-negative")
        if any(t < 0 for t in self.crash_times):
            raise ValueError(f"crash_times must be non-negative, got {self.crash_times}")
        if any(t > MAX_EVENT_SECONDS for t in self.crash_times):
            raise ValueError(
                f"crash_times beyond the {MAX_EVENT_SECONDS:.0f}s sanity "
                f"bound (units mistake?): {self.crash_times}"
            )
        if self.restart_delay_seconds < 0:
            raise ValueError(
                f"restart_delay_seconds must be non-negative, "
                f"got {self.restart_delay_seconds}"
            )
        for _, _, factor in self.surges:
            if factor <= 0:
                raise ValueError(f"surge factor must be positive, got {factor}")
        for tenant, _, _, factor in self.tenant_surges:
            if not tenant:
                raise ValueError("tenant_surges need a non-empty tenant name")
            if factor <= 0:
                raise ValueError(
                    f"tenant_surge factor must be positive, got {factor}"
                )
        for _, _, factor in self.sensor_bias:
            if factor <= 0:
                raise ValueError(
                    f"sensor_bias factor must be positive, got {factor}"
                )
        if self.server_mtbf_hours < 0:
            raise ValueError(
                f"server_mtbf_hours must be non-negative, got {self.server_mtbf_hours}"
            )
        if self.server_mttr_minutes <= 0:
            raise ValueError(
                f"server_mttr_minutes must be positive, got {self.server_mttr_minutes}"
            )
        for _, _, mtbf in self.crash_storms:
            if mtbf <= 0:
                raise ValueError(
                    f"crash_storm mtbf_hours must be positive, got {mtbf}"
                )

    @property
    def wants_server_failures(self) -> bool:
        """Whether the server crash/repair process must be armed."""
        return self.server_mtbf_hours > 0 or bool(self.crash_storms)

    def shifted(self, offset_seconds: float) -> "FaultScenario":
        """This scenario with every absolute time moved ``offset`` later.

        Scenario times are absolute simulation seconds, authored against
        a run that starts at t=0. Arming one against a *live* run (the
        service's fault-injection endpoint) reinterprets them as
        relative to "now": ``scenario.shifted(engine.now)`` keeps the
        schedule's internal spacing while anchoring its origin at the
        moment the operator armed it.
        """
        if offset_seconds < 0:
            raise ValueError(
                f"offset_seconds must be non-negative, got {offset_seconds}"
            )
        if offset_seconds == 0:
            return self
        off = float(offset_seconds)
        return FaultScenario(
            name=self.name,
            blackouts=tuple((s + off, d) for s, d in self.blackouts),
            rpc_failure_rate=self.rpc_failure_rate,
            rpc_latency_seconds=self.rpc_latency_seconds,
            rpc_timeout_seconds=self.rpc_timeout_seconds,
            crash_times=tuple(t + off for t in self.crash_times),
            restart_delay_seconds=self.restart_delay_seconds,
            surges=tuple((s + off, d, f) for s, d, f in self.surges),
            tenant_surges=tuple(
                (t, s + off, d, f) for t, s, d, f in self.tenant_surges
            ),
            sensor_bias=tuple(
                (s + off, d, f) for s, d, f in self.sensor_bias
            ),
            server_mtbf_hours=self.server_mtbf_hours,
            server_mttr_minutes=self.server_mttr_minutes,
            crash_storms=tuple(
                (s + off, d, m) for s, d, m in self.crash_storms
            ),
            coordinator_blackouts=tuple(
                (s + off, d) for s, d in self.coordinator_blackouts
            ),
            seed=self.seed,
        )

    def describe(self) -> str:
        parts = []
        if self.blackouts:
            total = sum(d for _, d in self.blackouts)
            parts.append(
                f"{len(self.blackouts)} monitor blackout(s), {total / 60:.0f} min total"
            )
        if self.rpc_failure_rate > 0:
            parts.append(f"{self.rpc_failure_rate:.0%} RPC failure rate")
        if self.crash_times:
            parts.append(
                f"{len(self.crash_times)} controller crash(es), "
                f"restart after {self.restart_delay_seconds:.0f}s"
            )
        if self.surges:
            peak = max(f for _, _, f in self.surges)
            parts.append(
                f"{len(self.surges)} workload surge(s), up to {peak:.1f}x"
            )
        if self.tenant_surges:
            tenants = sorted({t for t, _, _, _ in self.tenant_surges})
            peak = max(f for _, _, _, f in self.tenant_surges)
            parts.append(
                f"{len(self.tenant_surges)} tenant surge(s) on "
                f"{','.join(tenants)}, up to {peak:.1f}x"
            )
        if self.sensor_bias:
            worst = min(f for _, _, f in self.sensor_bias)
            parts.append(
                f"{len(self.sensor_bias)} sensor-bias window(s), "
                f"down to {worst:.2f}x"
            )
        if self.coordinator_blackouts:
            total = sum(d for _, d in self.coordinator_blackouts)
            parts.append(
                f"{len(self.coordinator_blackouts)} coordinator blackout(s), "
                f"{total / 60:.0f} min total"
            )
        if self.wants_server_failures:
            base = (
                f"MTBF {self.server_mtbf_hours:.0f}h"
                if self.server_mtbf_hours > 0
                else "storms only"
            )
            storm = (
                f", {len(self.crash_storms)} crash storm(s)"
                if self.crash_storms
                else ""
            )
            parts.append(f"server failures ({base}{storm})")
        return f"{self.name}: " + ("; ".join(parts) if parts else "no faults")


def builtin_scenarios() -> Dict[str, FaultScenario]:
    """The named scenarios exposed through the CLI and CI smoke runs.

    Absolute times assume the standard harness layout (1 h warm-up, so
    the measurement window starts at t=3600 s): each hazard lands well
    inside the first measured hour and the scenarios compose -- ``chaos``
    is the control-plane acceptance scenario (a 10-minute blackout, 5%
    RPC faults, one mid-run controller crash) and ``data-chaos`` its
    data-plane sibling (surge + sensor drift + crash storm at once).
    """
    blackout_window = ((4200.0, 600.0),)  # minutes 70-80: a 10-min dark spell
    surge_window = ((4200.0, 1500.0),)  # minutes 70-95: a sustained surge
    return {
        "blackout": FaultScenario(name="blackout", blackouts=blackout_window),
        "flaky-rpc": FaultScenario(name="flaky-rpc", rpc_failure_rate=0.05),
        "crash": FaultScenario(name="crash", crash_times=(5700.0,)),
        "chaos": FaultScenario(
            name="chaos",
            blackouts=blackout_window,
            rpc_failure_rate=0.05,
            crash_times=(5700.0,),
        ),
        "surge": FaultScenario(
            name="surge",
            surges=tuple((s, d, 6.0) for s, d in surge_window),
        ),
        "sensor-drift": FaultScenario(
            name="sensor-drift",
            sensor_bias=((4200.0, 1800.0, 0.85),),
        ),
        "crash-storm": FaultScenario(
            name="crash-storm",
            server_mtbf_hours=2000.0,
            crash_storms=((4200.0, 900.0, 25.0),),
            server_mttr_minutes=20.0,
        ),
        "fleet-blackout": FaultScenario(
            name="fleet-blackout",
            coordinator_blackouts=((4800.0, 1800.0),),
        ),
        # One tenant of the standard three-tier mix (the batch tier)
        # floods the row while the critical tier briefly doubles: the
        # fair freeze policy must keep the quiet tenants' frozen time in
        # proportion even though the surge makes the row run hot.
        "tenant-skew": FaultScenario(
            name="tenant-skew",
            tenant_surges=(
                ("charlie", 4200.0, 1500.0, 8.0),
                ("alpha", 5400.0, 600.0, 2.0),
            ),
        ),
        "data-chaos": FaultScenario(
            name="data-chaos",
            surges=tuple((s, d, 4.0) for s, d in surge_window),
            sensor_bias=((6000.0, 1200.0, 0.9),),
            server_mtbf_hours=2000.0,
            crash_storms=((4800.0, 900.0, 50.0),),
            server_mttr_minutes=20.0,
        ),
    }


__all__ = ["FaultScenario", "builtin_scenarios", "MAX_EVENT_SECONDS"]
