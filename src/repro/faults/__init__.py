"""Fault injection across both planes of the system.

Control-plane seams (PR 2) break the control system itself -- the part
the paper's safety argument quietly assumes is perfect:

- monitor blackouts (the per-minute sweep returns nothing, TSDB stales),
- scheduler RPC faults (``set_frozen`` batch timeouts with injected latency),
- controller crashes (in-memory state lost; supervisor restarts later).

Data-plane seams break the *world* while the control system works as
designed:

- workload surges (scheduled arrival-rate multipliers),
- IPMI sensor miscalibration (multiplicative bias the controller cannot
  see; true power and breaker physics are unaffected),
- server crash storms (the :mod:`repro.sim.failures` process, with MTBF
  step-changes inside storm windows).

Everything is deterministic for a fixed scenario seed. The hardened
:class:`~repro.core.controller.AmpereController` plus the
:class:`~repro.core.safety.SafetySupervisor` ladder are expected to
survive all of it; ``tests/test_faults.py`` and ``tests/test_safety.py``
pin that contract.
"""

from repro.faults.injector import FaultInjector, FaultStats
from repro.faults.rpc import FlakyScheduler, RpcFaultStats
from repro.faults.scenario import (
    MAX_EVENT_SECONDS,
    FaultScenario,
    builtin_scenarios,
)

__all__ = [
    "FaultInjector",
    "FaultScenario",
    "FaultStats",
    "FlakyScheduler",
    "RpcFaultStats",
    "builtin_scenarios",
    "MAX_EVENT_SECONDS",
]
