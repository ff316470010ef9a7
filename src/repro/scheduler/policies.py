"""Placement policies for the upper-level frameworks.

Ampere's statistical control assumes only that *the number of jobs placed
in a row is roughly proportional to the number of available (unfrozen)
servers there* (Section 3.4). The default random-available policy has that
property exactly; least-loaded and best-fit are provided both for realism
and for the ablation that checks Ampere still works when the
proportionality is only approximate.
"""

from __future__ import annotations

import abc
from typing import Optional, Union

import numpy as np

from repro.scheduler.resources import ResourceTracker
from repro.workload.job import Job


class PlacementPolicy(abc.ABC):
    """Chooses one server index among fitting candidates."""

    def place(
        self, tracker: ResourceTracker, job: Job, rng: np.random.Generator
    ) -> Optional[int]:
        """The tracker index ``job`` goes to, or ``None`` when no server
        fits (no random draw is consumed then). The default scans for the
        fitting servers and hands them to :meth:`select`."""
        candidates = tracker.candidates(job.cores, job.memory_gb, job.allowed_rows)
        if len(candidates) == 0:
            return None
        return self.select(tracker, candidates, rng)

    @abc.abstractmethod
    def select(
        self,
        tracker: ResourceTracker,
        candidates: np.ndarray,
        rng: np.random.Generator,
    ) -> int:
        """Return the chosen index from ``candidates`` (never empty)."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return type(self).__name__


class RandomAvailablePolicy(PlacementPolicy):
    """Uniformly random choice among available servers (the default).

    Gives exactly the placement-proportional-to-availability behaviour the
    paper's statistical control relies on. Placement needs no candidate
    array: the tracker's fit index supplies the count of fitting servers
    and the k-th one, for the same draw and the same server.
    """

    def place(
        self, tracker: ResourceTracker, job: Job, rng: np.random.Generator
    ) -> Optional[int]:
        return self.select(tracker, job, rng)

    def select(
        self,
        tracker: ResourceTracker,
        candidates: Union[np.ndarray, Job],
        rng: np.random.Generator,
    ) -> Optional[int]:
        """Uniform choice from ``candidates``; given the job itself, the
        choice among the servers that fit it, drawn from the fit index
        (``None`` when none does)."""
        if isinstance(candidates, Job):
            return tracker.draw_fitting(
                candidates.cores, candidates.memory_gb, candidates.allowed_rows, rng
            )
        return int(candidates[rng.integers(len(candidates))])


class LeastLoadedPolicy(PlacementPolicy):
    """Pick the candidate with the most free cores (load balancing)."""

    def select(
        self,
        tracker: ResourceTracker,
        candidates: np.ndarray,
        rng: np.random.Generator,
    ) -> int:
        free = tracker.free_cores_array(candidates)
        best = np.flatnonzero(free == free.max())
        # Break ties randomly so identical servers share load evenly.
        return int(candidates[best[rng.integers(len(best))]])


class BestFitPolicy(PlacementPolicy):
    """Pick the candidate with the least free cores that still fits (packing)."""

    def select(
        self,
        tracker: ResourceTracker,
        candidates: np.ndarray,
        rng: np.random.Generator,
    ) -> int:
        free = tracker.free_cores_array(candidates)
        best = np.flatnonzero(free == free.min())
        return int(candidates[best[rng.integers(len(best))]])


__all__ = [
    "PlacementPolicy",
    "RandomAvailablePolicy",
    "LeastLoadedPolicy",
    "BestFitPolicy",
]
