"""Per-layer tracing by wrapping each layer's public entry points.

The traced run patches the methods listed in :data:`LAYER_TARGETS` at
class (or module) level before the experiment is built, so bound
methods captured at construction -- periodic ticks, listeners -- go
through the wrapper too. No program file changes.

Each wrapped call is a span. A per-thread stack carries, for every open
span, the time its wrapped children took; on exit the span's duration
minus that child time is the layer's *self* time. Totals live in memory
and are written once, at the end.

Only spans on the *timeline* threads (the main thread, and the service's
single-writer simulation thread) are summed against the traced wall
time: those threads never run wrapped code at the same moment, so their
self times plus the uncovered remainder (``untraced.self_s``) add up to
the wall. Spans on other threads -- the supervisor's watchdog verifying
checkpoints -- overlap the timeline and are reported separately.
"""

from __future__ import annotations

import functools
import importlib
import threading
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional, Tuple

#: thread names whose spans form the summed timeline
TIMELINE_THREADS = frozenset({"MainThread", "repro-sim-driver"})

#: (module, owner attribute or None for a module function, attribute, layer)
LAYER_TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    # sim.engine: the event loop body (self time = heap work + unwrapped callbacks)
    ("repro.sim.engine", "Engine", "run", "engine.run"),
    # workload: thinning arrivals and the per-job attribute draws
    ("repro.workload.generator", "BatchWorkloadGenerator", "_candidate_arrival", "workload.arrive"),
    ("repro.workload.distributions", "ResourceDemandDistribution", "sample", "workload.draw"),
    ("repro.workload.distributions", "JobDurationDistribution", "sample_one", "workload.draw"),
    # scheduler
    ("repro.scheduler.omega", "OmegaScheduler", "submit", "scheduler.submit"),
    ("repro.scheduler.resources", "ResourceTracker", "candidates", "scheduler.place"),
    ("repro.scheduler.policies", "RandomAvailablePolicy", "select", "scheduler.place"),
    ("repro.scheduler.omega", "OmegaScheduler", "_complete_job", "scheduler.complete"),
    ("repro.scheduler.omega", "OmegaScheduler", "freeze", "scheduler.freeze"),
    ("repro.scheduler.omega", "OmegaScheduler", "unfreeze", "scheduler.freeze"),
    # cluster
    ("repro.cluster.server", "Server", "add_task", "server.task"),
    ("repro.cluster.server", "Server", "remove_task", "server.task"),
    ("repro.cluster.server", "Server", "set_frequency", "cluster.freq"),
    ("repro.cluster.breaker", "RowBreaker", "tick", "breaker.tick"),
    # monitor
    ("repro.monitor.power_monitor", "PowerMonitor", "sample_once", "monitor.sweep"),
    # core
    ("repro.core.controller", "AmpereController", "tick", "controller.tick"),
    ("repro.core.controller", None, "plan_freeze_set", "freeze_policy.plan"),
    ("repro.tenancy.allocator", "FairShareFreezePolicy", "plan", "freeze_policy.plan"),
    ("repro.core.safety", "SafetySupervisor", "tick", "safety.tick"),
    # tenancy
    ("repro.tenancy.accountant", "TenancyAccountant", "on_control_event", "tenancy.account"),
    # fleet
    ("repro.fleet.coordinator", "FleetCoordinator", "tick", "coordinator.tick"),
    # sim.audit
    ("repro.sim.audit", "StateAuditor", "tick", "auditor.tick"),
    # durability / service
    ("repro.sim.experiment", "ControlledExperiment", "snapshot", "snapshot.encode"),
    ("repro.sim.fleet_experiment", "FleetExperiment", "snapshot", "snapshot.encode"),
    ("repro.service.supervisor", "DriverSupervisor", "_verify_frame", "snapshot.verify"),
    ("repro.service.wal", "ActWal", "append", "wal.append"),
    ("repro.service.driver", "RealTimeDriver", "_do_step", "driver.step"),
    # set-up: row construction (imported by name into both harnesses)
    ("repro.sim.testbed", None, "build_row", "setup.build_row"),
    ("repro.sim.fleet_experiment", None, "build_row", "setup.build_row"),
)

class LayerTracer:
    """Accumulates per-layer self time and call counts in memory."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.offline_self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.target_calls: Dict[str, int] = defaultdict(int)
        self.values: Dict[str, float] = defaultdict(float)
        #: spans record only while True; the worker clears it when the
        #: traced window ends (bound wrappers captured by the run remain)
        self.recording = True
        self._local = threading.local()

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch every target; call before the experiment is built."""
        for module_name, owner_name, attribute, layer in LAYER_TARGETS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            original = owner.__dict__[attribute] if owner_name else getattr(module, attribute)
            label = f"{owner_name or module_name}.{attribute}"
            setattr(owner, attribute, self._wrap(original, layer, label))

    def _wrap(self, original, layer: str, label: str):
        local = self._local
        encodes_snapshot = layer == "snapshot.encode"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.recording:
                return original(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.timeline = threading.current_thread().name in TIMELINE_THREADS
            stack.append(0.0)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                totals = self.self_s if local.timeline else self.offline_self_s
                totals[layer] += elapsed - child
                self.calls[layer] += 1
                self.target_calls[label] += 1
            if encodes_snapshot:
                self.values["snapshot.bytes"] += len(result)
            return result

        return traced

    # ------------------------------------------------------------------
    def layers(self) -> List[str]:
        return sorted(set(self.calls))

    def timeline_self_s(self) -> float:
        return sum(self.self_s.values())
