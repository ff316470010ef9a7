"""Online state-invariant auditing: the simulation checks itself.

A power-control system must never become the outage it prevents -- and a
*reproduction harness* must never let silent state corruption propagate
into goldens and A/B conclusions. The :class:`StateAuditor` runs inside
the simulation on its own event priority
(:attr:`~repro.sim.events.EventPriority.AUDIT_TICK`, after every control
and physics action of an instant has settled) and re-derives what the
live state claims from first principles:

``event_queue``
    The engine heap still satisfies the binary-heap ordering property
    and holds no event dated before *now* (time monotonicity).
``numeric``
    No NaN/negative power, core/memory usage within physical bounds,
    DVFS frequency in ``(0, 1]``.
``power_cache``
    Wherever the shared power cache claims validity, a fresh recompute
    from the state columns reproduces the cached watts bit-for-bit.
``masks``
    The scheduler's authoritative frozen set matches the store's
    ``frozen`` column; failed servers hold the post-``fail()`` contract
    (full frequency, zero cached power if cached).
``index``
    Each scheduler's placement fit index (when one is built) agrees with
    the store: the fit level of every audited server equals a fresh
    recompute from the columns, and a full audit also checks every
    block, superblock and total count against fresh counts. A raw column
    write that bypassed ``Server`` (``ClusterState.fail_servers``, say)
    shows up here.
``ledger``
    Fleet budget conservation: allocations sum within the facility
    budget and each row sits in ``[floor, rating]``.

The auditor is strictly an *observer*: it consumes no randomness and
mutates nothing, so enabling it -- at any sampling rate -- leaves
trajectories byte-identical (asserted in ``tests/test_auditor.py``).
Expensive per-server checks are *sampled*: each pass examines a rotating
stratum of slots (``sample_fraction`` of the fleet, rotation driven by
the deterministic pass counter, never an RNG), so every server is
audited within ``1/sample_fraction`` passes while each pass stays cheap.

On violation the auditor raises a structured :class:`InvariantViolation`
(``on_violation="raise"``, the default for CI chaos legs), records it
(``"record"``), or additionally escalates the safety ladder to WARNING
via :meth:`~repro.core.safety.SafetySupervisor.raise_alarm`
(``"escalate"``) -- corrupted control state is treated like any other
emergency: freeze first, diagnose second. Every outcome increments the
``repro_auditor_*`` telemetry counters.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.events import EventPriority
from repro.telemetry import Telemetry, counter_series

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.state import ClusterState
    from repro.core.safety import SafetySupervisor
    from repro.fleet.ledger import BudgetLedger
    from repro.scheduler.omega import OmegaScheduler
    from repro.sim.engine import Engine

logger = logging.getLogger(__name__)

PASSES = counter_series("repro_auditor_passes_total", "Audit passes executed")
VIOLATIONS = counter_series("repro_auditor_violations_total", "Invariant violations detected")

#: Every check the auditor knows, in execution order.
ALL_CHECKS = ("event_queue", "numeric", "power_cache", "masks", "index", "ledger")

#: What to do when a pass finds violations.
ON_VIOLATION_MODES = ("raise", "record", "escalate")


class InvariantViolation(RuntimeError):
    """A state invariant does not hold; structured for telemetry/tooling."""

    def __init__(
        self,
        check: str,
        message: str,
        time: float = 0.0,
        details: Optional[Dict[str, object]] = None,
    ) -> None:
        super().__init__(f"[{check}] t={time:.1f}s: {message}")
        self.check = check
        self.message = message
        self.time = time
        self.details = dict(details or {})

    def __reduce__(self):
        # Multi-argument exceptions need explicit reconstruction args
        # (default exception pickling would replay only the formatted
        # message into ``check``).
        return (
            InvariantViolation,
            (self.check, self.message, self.time, self.details),
        )

    def as_record(self) -> Dict[str, object]:
        """Plain-types form for result payloads and reports."""
        return {
            "check": self.check,
            "message": self.message,
            "time": self.time,
            "details": dict(self.details),
        }


@dataclass(frozen=True)
class AuditorConfig:
    """Knobs of the online auditor.

    Attributes
    ----------
    interval_seconds:
        Audit cadence (default every 5 simulated minutes -- five control
        intervals).
    sample_fraction:
        Fraction of server slots examined per pass by the per-server
        checks (cache coherence, numeric sanity, mask consistency). The
        stratum rotates deterministically so full coverage is reached
        every ``ceil(1/fraction)`` passes. ``1.0`` audits everything
        every pass (chaos-leg setting).
    on_violation:
        ``"raise"`` aborts the run with :class:`InvariantViolation`;
        ``"record"`` keeps running and accumulates; ``"escalate"``
        records *and* drives attached safety supervisors to WARNING.
    checks:
        Subset of :data:`ALL_CHECKS` to run.
    max_recorded:
        Bound on retained violation records (oldest kept; the counter
        keeps counting).
    """

    interval_seconds: float = 300.0
    sample_fraction: float = 0.25
    on_violation: str = "raise"
    checks: Tuple[str, ...] = ALL_CHECKS
    max_recorded: int = 100

    def __post_init__(self) -> None:
        if self.interval_seconds <= 0:
            raise ValueError(
                f"interval_seconds must be positive, got {self.interval_seconds}"
            )
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ValueError(
                f"sample_fraction must be in (0, 1], got {self.sample_fraction}"
            )
        if self.on_violation not in ON_VIOLATION_MODES:
            raise ValueError(
                f"on_violation must be one of {ON_VIOLATION_MODES}, "
                f"got {self.on_violation!r}"
            )
        unknown = set(self.checks) - set(ALL_CHECKS)
        if unknown:
            raise ValueError(f"unknown checks {sorted(unknown)}; know {ALL_CHECKS}")
        if self.max_recorded < 1:
            raise ValueError(
                f"max_recorded must be >= 1, got {self.max_recorded}"
            )


@dataclass
class AuditStats:
    """Picklable account of what the auditor saw (ships in results)."""

    passes: int = 0
    checks_run: int = 0
    servers_audited: int = 0
    violations: int = 0
    violations_by_check: Dict[str, int] = field(default_factory=dict)
    #: bounded list of violation records (``InvariantViolation.as_record``)
    recorded: List[Dict[str, object]] = field(default_factory=list)
    last_pass_time: float = float("nan")

    def snapshot(self) -> "AuditStats":
        return replace(
            self,
            violations_by_check=dict(self.violations_by_check),
            recorded=list(self.recorded),
        )


class StateAuditor:
    """Samplable online verifier of simulation-state invariants.

    Wire it to whatever a harness has: a single-row experiment passes
    one scheduler and (maybe) one supervisor; the fleet harness passes
    all of them plus the budget ledger. Absent surfaces skip their
    checks silently.
    """

    def __init__(
        self,
        engine: "Engine",
        state: Optional["ClusterState"] = None,
        schedulers: Sequence["OmegaScheduler"] = (),
        ledger: Optional["BudgetLedger"] = None,
        supervisors: Sequence["SafetySupervisor"] = (),
        config: AuditorConfig = AuditorConfig(),
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.engine = engine
        self.state = state
        self.schedulers = list(schedulers)
        self.ledger = ledger
        self.supervisors = list(supervisors)
        self.config = config
        self.stats = AuditStats()
        if telemetry is None:
            telemetry = getattr(engine, "telemetry", None) or Telemetry.disabled()
        telemetry.collect(self._metrics)
        self._escalation_hooks: List[Callable[[InvariantViolation], None]] = []

    def _metrics(self):
        yield PASSES(self.stats.passes)
        yield VIOLATIONS(self.stats.violations)

    def add_escalation_hook(
        self, hook: Callable[[InvariantViolation], None]
    ) -> None:
        """Notify ``hook`` whenever an ``"escalate"``-mode pass violates.

        The service supervisor registers here to drop the API into
        read-only degraded mode and trigger checkpoint recovery on
        corrupted control state. Hooks are process-local runtime wiring:
        they are excluded from pickled snapshots (see ``__getstate__``)
        and must be re-registered on any restored auditor.
        """
        self._escalation_hooks.append(hook)

    def __getstate__(self):
        state = self.__dict__.copy()
        # Hooks reference live supervisor machinery (threads, locks) and
        # are re-registered after restore; dropping them keeps snapshot
        # bytes identical whether or not a supervisor was attached.
        state["_escalation_hooks"] = []
        return state

    # ------------------------------------------------------------------
    def start(self, until: float, first_at: Optional[float] = None) -> None:
        """Begin periodic auditing on the engine."""
        self.engine.schedule_periodic(
            self.config.interval_seconds,
            EventPriority.AUDIT_TICK,
            self.tick,
            first_at=first_at,
            until=until,
        )

    def tick(self) -> None:
        """One sampled pass (the periodic entry point)."""
        self.audit(sample=True)

    # ------------------------------------------------------------------
    def audit(self, sample: bool = False) -> List[InvariantViolation]:
        """Run the configured checks; returns this pass's violations.

        ``sample=True`` restricts per-server checks to the rotating
        stratum; ``sample=False`` (the ``verify-snapshot`` / test path)
        audits every slot.
        """
        violations: List[InvariantViolation] = []
        indices = self._sample_indices(sample)
        for check in self.config.checks:
            self.stats.checks_run += 1
            if check == "event_queue":
                self._check_event_queue(violations, sample)
            elif check == "numeric" and indices is not None:
                self._check_numeric(indices, violations)
            elif check == "power_cache" and indices is not None:
                self._check_power_cache(indices, violations)
            elif check == "masks":
                self._check_masks(indices, violations)
            elif check == "index" and indices is not None:
                self._check_index(indices, violations, full=not sample)
            elif check == "ledger":
                self._check_ledger(violations)
        self.stats.passes += 1
        self.stats.last_pass_time = self.engine.now
        if indices is not None:
            self.stats.servers_audited += int(indices.size)
        if violations:
            self._handle(violations)
        return violations

    # ------------------------------------------------------------------
    def _sample_indices(self, sample: bool) -> Optional[np.ndarray]:
        """Slot indices for this pass's per-server checks (or ``None``)."""
        if self.state is None or self.state.n == 0:
            return None
        n = self.state.n
        if not sample or self.config.sample_fraction >= 1.0:
            return np.arange(n, dtype=np.intp)
        stride = max(1, int(round(1.0 / self.config.sample_fraction)))
        offset = self.stats.passes % stride  # deterministic rotation, no RNG
        return np.arange(offset, n, stride, dtype=np.intp)

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def _check_event_queue(
        self, out: List[InvariantViolation], sample: bool = False
    ) -> None:
        heap = self.engine._heap
        now = self.engine.now
        entries = range(len(heap))
        if sample and self.config.sample_fraction < 1.0:
            # The heap check is O(entries) in Python; sample it with the
            # same deterministic rotation as the per-server checks.
            stride = max(1, int(round(1.0 / self.config.sample_fraction)))
            entries = range(self.stats.passes % stride, len(heap), stride)
        for k in entries:
            entry = heap[k]
            for child in (2 * k + 1, 2 * k + 2):
                if child < len(heap) and heap[child][:3] < entry[:3]:
                    out.append(
                        self._violation(
                            "event_queue",
                            f"heap property broken at entry {k}",
                            {"parent": entry[:3], "child": heap[child][:3]},
                        )
                    )
                    return  # one structural report is enough
            if entry[0] < now:
                out.append(
                    self._violation(
                        "event_queue",
                        f"event dated t={entry[0]:.3f}s is before now",
                        {"event_time": entry[0], "now": now},
                    )
                )
                return

    def _check_numeric(
        self, indices: np.ndarray, out: List[InvariantViolation]
    ) -> None:
        state = self.state
        assert state is not None
        powers = state.server_powers(indices)
        bad_nan = ~np.isfinite(powers)
        bad_neg = powers < 0.0
        used = state.used_cores[indices]
        cores = state.cores[indices]
        bad_cores = (used < 0.0) | (used > cores + 1e-9)
        freq = state.frequency[indices]
        bad_freq = (freq <= 0.0) | (freq > 1.0)
        bad_mem = state.used_memory_gb[indices] < 0.0
        for mask, label in (
            (bad_nan, "non-finite power"),
            (bad_neg, "negative power"),
            (bad_cores, "used_cores outside [0, cores]"),
            (bad_freq, "frequency outside (0, 1]"),
            (bad_mem, "negative used_memory_gb"),
        ):
            if mask.any():
                slots = indices[mask][:8]
                out.append(
                    self._violation(
                        "numeric",
                        f"{label} on {int(mask.sum())} server(s)",
                        {
                            "server_ids": state.server_ids[slots].tolist(),
                            "count": int(mask.sum()),
                        },
                    )
                )

    def _check_power_cache(
        self, indices: np.ndarray, out: List[InvariantViolation]
    ) -> None:
        state = self.state
        assert state is not None
        valid = state.power_valid[indices]
        if not valid.any():
            return
        cached_slots = indices[valid]
        fresh = state.server_powers(cached_slots)
        # Dark servers legitimately cache their last lit power (reads
        # short-circuit to 0.0 W without consulting the cache), so
        # coherence is asserted for lit servers only.
        lit = state.live_mask(cached_slots)
        mismatch = lit & (state.power_cache[cached_slots] != fresh)
        if mismatch.any():
            slots = cached_slots[mismatch][:8]
            out.append(
                self._violation(
                    "power_cache",
                    f"cached power diverges from recompute on "
                    f"{int(mismatch.sum())} server(s)",
                    {
                        "server_ids": state.server_ids[slots].tolist(),
                        "cached": state.power_cache[slots].tolist(),
                        "recomputed": fresh[mismatch][:8].tolist(),
                    },
                )
            )

    def _check_masks(
        self, indices: Optional[np.ndarray], out: List[InvariantViolation]
    ) -> None:
        state = self.state
        # Scheduler frozen set vs the store's frozen column: the
        # scheduler's set is authoritative (PR 2's recovery contract), so
        # any drift means a mutation bypassed the freeze bookkeeping.
        for scheduler in self.schedulers:
            frozen_ids = scheduler.frozen_server_ids()
            for server in scheduler.tracker.servers:
                if server.frozen != (server.server_id in frozen_ids):
                    out.append(
                        self._violation(
                            "masks",
                            f"server {server.server_id}: frozen flag "
                            f"{server.frozen} disagrees with scheduler set",
                            {"server_id": server.server_id},
                        )
                    )
                    break  # one report per scheduler
        if state is None or indices is None:
            return
        failed = state.failed[indices]
        if failed.any():
            # fail() contract: a failed machine will POST at full
            # frequency -- capped-time accounting must not leak (PR 4).
            bad = failed & (state.frequency[indices] != 1.0)
            if bad.any():
                slots = indices[bad][:8]
                out.append(
                    self._violation(
                        "masks",
                        f"{int(bad.sum())} failed server(s) hold a capped "
                        "DVFS frequency",
                        {"server_ids": state.server_ids[slots].tolist()},
                    )
                )

    def _check_index(
        self, indices: np.ndarray, out: List[InvariantViolation], full: bool
    ) -> None:
        # Reading the index applies its queued flag changes first: that
        # touches derived state only, exactly as the next placement would.
        for scheduler in self.schedulers:
            tracker = scheduler.tracker
            fit = tracker.fit_index
            if fit is None or not fit.classes:
                continue
            state = tracker.state
            first = fit.first
            slots = indices[(indices >= first) & (indices < first + fit.n)]
            fresh = _fresh_levels(state, slots, fit.classes)
            held = np.array([fit.levels[i] for i in (slots - first).tolist()], dtype=np.int64)
            bad = fresh != held
            if bad.any():
                drifted = slots[bad][:8]
                out.append(
                    self._violation(
                        "index",
                        f"fit level disagrees with the store on "
                        f"{int(bad.sum())} server(s)",
                        {
                            "server_ids": state.server_ids[drifted].tolist(),
                            "index_levels": held[bad][:8].tolist(),
                            "fresh_levels": fresh[bad][:8].tolist(),
                        },
                    )
                )
            if full and slots.size == fit.n:
                self._check_index_counts(fit, fresh, out)

    def _check_index_counts(self, fit, fresh: np.ndarray, out: List[InvariantViolation]) -> None:
        starts = np.asarray(fit.block_starts, dtype=np.intp)
        super_starts = np.asarray([first for first, _ in fit.super_blocks], dtype=np.intp)
        for j, demand in enumerate(fit.classes):
            per_block = np.add.reduceat((fresh > j).astype(np.int64), starts)
            per_super = np.add.reduceat(per_block, super_starts)
            for label, held, expected in (
                ("block", fit.block_counts[j], per_block),
                ("superblock", fit.super_counts[j], per_super),
                ("total", [fit.totals[j]], [int(per_block.sum())]),
            ):
                wrong = np.flatnonzero(np.asarray(held) != np.asarray(expected))
                if wrong.size:
                    out.append(
                        self._violation(
                            "index",
                            f"{wrong.size} {label} count(s) of class {demand} "
                            "disagree with a fresh scan",
                            {
                                "class": list(demand),
                                "level": label,
                                "positions": wrong[:8].tolist(),
                            },
                        )
                    )
                    return  # one count report per index is enough

    def _check_ledger(self, out: List[InvariantViolation]) -> None:
        ledger = self.ledger
        if ledger is None:
            return
        from repro.fleet.ledger import LEDGER_RTOL

        slack = ledger.facility_budget_watts * LEDGER_RTOL
        total = ledger.total_allocated()
        if total > ledger.facility_budget_watts + slack:
            out.append(
                self._violation(
                    "ledger",
                    f"allocations sum to {total:.1f} W, above the facility "
                    f"budget {ledger.facility_budget_watts:.1f} W",
                    {"total": total, "budget": ledger.facility_budget_watts},
                )
            )
        for row in ledger.rows():
            if row.allocation_watts < row.floor_watts - slack:
                out.append(
                    self._violation(
                        "ledger",
                        f"row {row.name!r} allocated {row.allocation_watts:.1f} W, "
                        f"below its floor {row.floor_watts:.1f} W",
                        {"row": row.name},
                    )
                )
            if row.allocation_watts > row.rating_watts + slack:
                out.append(
                    self._violation(
                        "ledger",
                        f"row {row.name!r} allocated {row.allocation_watts:.1f} W, "
                        f"above its feed rating {row.rating_watts:.1f} W",
                        {"row": row.name},
                    )
                )

    # ------------------------------------------------------------------
    def _violation(
        self, check: str, message: str, details: Dict[str, object]
    ) -> InvariantViolation:
        return InvariantViolation(
            check, message, time=self.engine.now, details=details
        )

    def _handle(self, violations: List[InvariantViolation]) -> None:
        for violation in violations:
            self.stats.violations += 1
            by_check = self.stats.violations_by_check
            by_check[violation.check] = by_check.get(violation.check, 0) + 1
            if len(self.stats.recorded) < self.config.max_recorded:
                self.stats.recorded.append(violation.as_record())
            logger.error("invariant violation: %s", violation)
        if self.config.on_violation == "raise":
            raise violations[0]
        if self.config.on_violation == "escalate":
            for supervisor in self.supervisors:
                supervisor.raise_alarm(str(violations[0]))
            for hook in self._escalation_hooks:
                try:
                    hook(violations[0])
                except Exception:  # a broken hook must not mask auditing
                    logger.exception("auditor escalation hook failed")

    def stats_snapshot(self) -> AuditStats:
        return self.stats.snapshot()


def _fresh_levels(state, slots: np.ndarray, classes) -> np.ndarray:
    """Fit levels of ``slots`` recomputed from the store columns: how many
    of the (nested) demand classes fit, 0 on a blocked server."""
    used_cores = state.used_cores[slots]
    used_memory = state.used_memory_gb[slots]
    cores_cap = state.cores[slots]
    memory_cap = state.memory_gb[slots]
    levels = np.zeros(slots.size, dtype=np.int64)
    for cores, memory_gb in classes:
        levels += (used_cores <= cores_cap - (cores - 1e-9)) & (
            used_memory <= memory_cap - (memory_gb - 1e-9)
        )
    blocked = state.frozen[slots] | state.failed[slots] | state.powered_off[slots]
    levels[blocked] = 0
    return levels


__all__ = [
    "ALL_CHECKS",
    "AuditStats",
    "AuditorConfig",
    "InvariantViolation",
    "StateAuditor",
]
