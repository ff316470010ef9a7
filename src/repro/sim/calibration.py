"""Calibration experiments: freeze decay (Fig. 4) and freeze effect (Fig. 5).

These are the two data-driven measurements Section 3.4 of the paper
performs before deploying the controller:

- *Freeze decay*: freeze a set of high-power servers and watch their mean
  power drain toward idle as running jobs finish (~35 minutes in the
  paper, set by the job-duration distribution).
- *Freeze effect*: apply a freezing ratio ``u`` to the experiment group
  for one control interval and measure the power gap that opens against
  the control group; regressing the samples gives the linear slope
  ``k_r`` used by the SPCP controller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.cluster.group import ServerGroup
from repro.core.freeze_model import FreezeEffectModel
from repro.core.policy import plan_freeze_set
from repro.sim.events import EventPriority
from repro.sim.testbed import Testbed, WorkloadSpec

MINUTE = 60.0


# ---------------------------------------------------------------------------
# Figure 4: power decay of frozen servers
# ---------------------------------------------------------------------------
@dataclass
class FreezeDecayResult:
    """Mean power of the frozen set, per minute since freezing."""

    minutes: np.ndarray
    mean_power_normalized_to_rated: np.ndarray
    n_frozen: int


def run_freeze_decay(
    n_freeze: int = 80,
    observe_minutes: int = 50,
    n_servers: int = 400,
    workload: WorkloadSpec = WorkloadSpec(target_utilization=0.30),
    warmup_hours: float = 2.0,
    seed: int = 0,
) -> FreezeDecayResult:
    """Reproduce the Figure 4 experiment.

    Builds a loaded cluster, freezes the ``n_freeze`` highest-power
    servers, and samples their mean power (normalized to rated power)
    every minute. The paper's curve decays from ~0.82 to ~0.70 of rated in
    about 35 minutes.
    """
    if n_freeze <= 0 or n_freeze > n_servers:
        raise ValueError(f"n_freeze must be in [1, {n_servers}], got {n_freeze}")
    testbed = Testbed(rows=(n_servers,), seed=seed)
    end = warmup_hours * 3600.0 + (observe_minutes + 2) * MINUTE
    generator = testbed.add_batch_workload(workload, end)
    generator.start(end)
    testbed.engine.run(until=warmup_hours * 3600.0)

    row = testbed.row
    hottest = np.argsort(-row.server_powers(), kind="stable")[:n_freeze]
    testbed.scheduler.set_frozen(row.state_indices[hottest], True)
    servers = [row.servers[i] for i in hottest]

    samples: List[float] = []

    def observe() -> None:
        mean_power = float(
            np.mean([s.power_watts() / s.rated_watts for s in servers])
        )
        samples.append(mean_power)

    observe()  # t = 0, the moment of freezing
    testbed.engine.schedule_periodic(
        MINUTE,
        EventPriority.EXPERIMENT_HOOK,
        observe,
        until=testbed.engine.now + (observe_minutes + 0.5) * MINUTE,
    )
    testbed.engine.run(until=end)
    return FreezeDecayResult(
        minutes=np.arange(len(samples), dtype=float),
        mean_power_normalized_to_rated=np.asarray(samples),
        n_frozen=n_freeze,
    )


# ---------------------------------------------------------------------------
# Figure 5: the freeze-effect function f(u) and k_r
# ---------------------------------------------------------------------------
@dataclass
class FreezeEffectResult:
    """Samples of (u, f(u)) and the fitted model."""

    model: FreezeEffectModel
    samples: List[Tuple[float, float]]

    @property
    def k_r(self) -> float:
        return self.model.k_r


class _FreezeEffectProbe:
    """State machine applying u for one minute, then recovering.

    Cycle per probe: APPLY (record the current inter-group gap and freeze
    ``u * n`` hottest experiment servers) -> MEASURE one minute later
    (record the gap again; the gap *increase* is the one-interval freeze
    effect f(u)) -> unfreeze everything and idle through a recovery period
    so the groups re-converge before the next probe.
    """

    def __init__(
        self,
        testbed: Testbed,
        experiment: ServerGroup,
        control: ServerGroup,
        u_values: List[float],
        rng: np.random.Generator,
        recovery_minutes: int = 3,
    ) -> None:
        self.testbed = testbed
        self.experiment = experiment
        self.control = control
        self.u_values = u_values
        self.rng = rng
        self.recovery_minutes = recovery_minutes
        self.samples: List[Tuple[float, float]] = []
        self._phase = "apply"
        self._recover_left = 0
        self._gap_before = 0.0
        self._current_u = 0.0

    def _gap(self) -> float:
        """Control minus experiment power, normalized to the budget."""
        control = self.control.power_watts() / self.control.power_budget_watts
        experiment = (
            self.experiment.power_watts() / self.experiment.power_budget_watts
        )
        return control - experiment

    def tick(self) -> None:
        if self._phase == "apply":
            self._apply()
        elif self._phase == "measure":
            self._measure()
        else:
            self._recover_left -= 1
            if self._recover_left <= 0:
                self._phase = "apply"

    def _apply(self) -> None:
        self._current_u = float(self.rng.choice(self.u_values))
        self._gap_before = self._gap()
        group = self.experiment
        n_freeze = int(self._current_u * len(group.servers))
        plan = plan_freeze_set(
            group.server_powers(),
            group.state.server_ids[group.state_indices],
            n_freeze,
            np.zeros(len(group.servers), dtype=bool),
        )
        self.testbed.scheduler.set_frozen(group.state_indices[plan], True)
        self._phase = "measure"

    def _measure(self) -> None:
        effect = self._gap() - self._gap_before
        self.samples.append((self._current_u, effect))
        self.testbed.scheduler.set_frozen(self.experiment.state_indices, False)
        self._phase = "recover"
        self._recover_left = self.recovery_minutes


def run_freeze_effect_calibration(
    hours: float = 24.0,
    n_servers: int = 400,
    workload: WorkloadSpec = WorkloadSpec(target_utilization=0.25),
    u_values: Tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6),
    over_provision_ratio: float = 0.25,
    warmup_hours: float = 1.0,
    recovery_minutes: int = 3,
    seed: int = 0,
) -> FreezeEffectResult:
    """Reproduce the Section 3.4 / Figure 5 calibration experiment.

    Returns the fitted :class:`FreezeEffectModel` (its ``k_r`` is what the
    controller consumes) plus the raw samples for the Figure 5 percentile
    plot.
    """
    if hours <= 0:
        raise ValueError(f"hours must be positive, got {hours}")
    testbed = Testbed(rows=(n_servers,), seed=seed)
    experiment, control = testbed.split_by_parity()
    experiment.set_over_provision_ratio(over_provision_ratio)
    control.set_over_provision_ratio(over_provision_ratio)

    end = (warmup_hours + hours) * 3600.0
    generator = testbed.add_batch_workload(workload, end)
    generator.start(end)

    probe = _FreezeEffectProbe(
        testbed,
        experiment,
        control,
        list(u_values),
        rng=np.random.default_rng(seed + 1),
        recovery_minutes=recovery_minutes,
    )
    testbed.engine.schedule_periodic(
        MINUTE,
        EventPriority.EXPERIMENT_HOOK,
        probe.tick,
        first_at=warmup_hours * 3600.0,
        until=end,
    )
    testbed.engine.run(until=end)

    model = FreezeEffectModel()
    model.add_samples(probe.samples)
    model.fit()
    return FreezeEffectResult(model=model, samples=probe.samples)


__all__ = [
    "run_freeze_decay",
    "FreezeDecayResult",
    "run_freeze_effect_calibration",
    "FreezeEffectResult",
]
