"""Two-level job scheduler substrate with the batched freeze/thaw API.

The scheduler mirrors the paper's custom Omega-like system: a low level
tracks resources and exposes exactly one control operation --
``set_frozen(slots, frozen)``, which freezes (advise: place no new jobs
on these servers) or thaws a batch of servers -- while an upper level
of per-product frameworks decides placement with pluggable policies.
Ampere interacts with this package *only* through
:class:`~repro.scheduler.base.SchedulerInterface`.
"""

from repro.scheduler.base import SchedulerInterface, SchedulerStats
from repro.scheduler.resources import ResourceTracker
from repro.scheduler.policies import (
    PlacementPolicy,
    RandomAvailablePolicy,
    LeastLoadedPolicy,
    BestFitPolicy,
)
from repro.scheduler.omega import Framework, OmegaScheduler

__all__ = [
    "SchedulerInterface",
    "SchedulerStats",
    "ResourceTracker",
    "PlacementPolicy",
    "RandomAvailablePolicy",
    "LeastLoadedPolicy",
    "BestFitPolicy",
    "Framework",
    "OmegaScheduler",
]
