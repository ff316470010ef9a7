"""Workload substrate: batch jobs, interactive services and generators.

The generators are calibrated to the distributions the paper publishes.
Job durations match Figure 7 (mean ~9 minutes, ~40% under 2 minutes).
Row power varies less than in Figures 8 and 9; DESIGN.md gives the
measured gaps. Interactive services reproduce the Redis benchmark of
Figure 11 as a queueing model whose service rate scales with the
server's DVFS frequency.
"""

from repro.workload.job import Job
from repro.workload.distributions import (
    JobDurationDistribution,
    ResourceDemandDistribution,
    rate_for_target_utilization,
)
from repro.workload.generator import (
    BatchWorkloadGenerator,
    DiurnalRateProfile,
    ModulatedRateProfile,
    RateProfile,
)
from repro.workload.interactive import (
    InteractiveService,
    RedisBenchmark,
    REDIS_OPERATIONS,
)

__all__ = [
    "Job",
    "JobDurationDistribution",
    "ResourceDemandDistribution",
    "rate_for_target_utilization",
    "BatchWorkloadGenerator",
    "RateProfile",
    "DiurnalRateProfile",
    "ModulatedRateProfile",
    "InteractiveService",
    "RedisBenchmark",
    "REDIS_OPERATIONS",
]
