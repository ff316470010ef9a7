"""Ampere reproduction: statistical power control for data center capacity.

This package reproduces the system described in "Increasing Large-Scale
Data Center Capacity by Statistical Power Control" (EuroSys 2016). It
contains:

- :mod:`repro.core` -- the Ampere power controller (the paper's contribution).
- :mod:`repro.cluster` -- the simulated physical substrate: servers, racks,
  rows, PDUs, circuit breakers and DVFS power capping.
- :mod:`repro.scheduler` -- a two-level, Omega-like job scheduler exposing the
  ``freeze``/``unfreeze`` API that Ampere relies on.
- :mod:`repro.workload` -- batch and interactive workload generators matching
  the distributions published in the paper.
- :mod:`repro.monitor` -- a per-minute power monitor (model power plus
  measurement noise) backed by an in-memory time-series database.
- :mod:`repro.sim` -- the discrete-event simulation engine and the controlled
  A/B experiment harness used throughout the evaluation.
- :mod:`repro.cooling` -- the workload-sensitive cooling extension
  (the paper's second future-work item).
- :mod:`repro.analysis` -- statistics (CDFs, percentiles, correlations,
  bootstrap CIs) and the paper's capacity metrics (TPW, G_TPW, violations).

The most common entry points are re-exported here.
"""

import logging

from repro.core.advisor import recommend_over_provision_ratio
from repro.core.config import AmpereConfig
from repro.core.controller import AmpereController
from repro.core.demand import (
    ConstantDemandEstimator,
    EwmaDemandEstimator,
    PowerDemandEstimator,
)
from repro.core.freeze_model import DEFAULT_K_R, FreezeEffectModel
from repro.sim.campaign import Campaign, CampaignRunConfig, run_cell
from repro.sim.experiment import ControlledExperiment, ExperimentConfig, ExperimentResult
from repro.sim.parallel import run_cells_parallel
from repro.sim.testbed import Testbed, WorkloadSpec

# Library convention: emit nothing unless the application configures
# logging (repro.telemetry.configure_logging or logging.basicConfig).
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "AmpereConfig",
    "AmpereController",
    "Campaign",
    "CampaignRunConfig",
    "ConstantDemandEstimator",
    "ControlledExperiment",
    "DEFAULT_K_R",
    "EwmaDemandEstimator",
    "ExperimentConfig",
    "ExperimentResult",
    "FreezeEffectModel",
    "PowerDemandEstimator",
    "Testbed",
    "WorkloadSpec",
    "recommend_over_provision_ratio",
    "run_cell",
    "run_cells_parallel",
    "__version__",
]

__version__ = "1.0.0"
