"""Ampere: the paper's statistical power controller.

The controller keeps each row's power under its provisioned budget by
freezing/unfreezing servers -- statistically steering new job placements
away from hot rows -- using a one-step receding-horizon control law
(Eq. 13 of the paper) built on two data-driven models: the freeze-effect
slope ``k_r`` (:mod:`repro.core.freeze_model`) and the hourly
99.5th-percentile power-increase estimate ``E_t``
(:mod:`repro.core.demand`).
"""

from repro.core.config import AmpereConfig
from repro.core.controller import AmpereController, RowControlState
from repro.core.freeze_model import FreezeEffectModel, DEFAULT_K_R
from repro.core.demand import (
    PowerDemandEstimator,
    ConstantDemandEstimator,
    EwmaDemandEstimator,
)
from repro.core.rhc import (
    spcp_optimal_ratio,
    pcp_optimal_sequence,
)
from repro.core.policy import plan_freeze_set
from repro.core.safety import (
    SafetyConfig,
    SafetyState,
    SafetyStats,
    SafetySupervisor,
)

__all__ = [
    "SafetyConfig",
    "SafetyState",
    "SafetyStats",
    "SafetySupervisor",
    "AmpereConfig",
    "AmpereController",
    "RowControlState",
    "FreezeEffectModel",
    "DEFAULT_K_R",
    "PowerDemandEstimator",
    "ConstantDemandEstimator",
    "EwmaDemandEstimator",
    "spcp_optimal_ratio",
    "pcp_optimal_sequence",
    "plan_freeze_set",
]
