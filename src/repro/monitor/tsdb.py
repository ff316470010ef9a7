"""In-memory time-series database with a range-query API.

Stands in for the MySQL-backed store of the paper's power monitor. Points
are appended in time order (the monitor is the only writer) and queries
return numpy arrays, which the analysis layer consumes directly.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

import numpy as np


class TimeSeries:
    """One append-only metric series of ``(timestamp, value)`` points."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def __len__(self) -> int:
        return len(self._times)

    def append(self, timestamp: float, value: float) -> None:
        """Append a point; timestamps must be non-decreasing."""
        if self._times and timestamp < self._times[-1]:
            raise ValueError(
                f"series {self.name!r}: timestamp {timestamp} precedes "
                f"last point {self._times[-1]}"
            )
        self._times.append(timestamp)
        self._values.append(value)

    def last(self) -> Tuple[float, float]:
        """Most recent ``(timestamp, value)``; raises if empty."""
        if not self._times:
            raise LookupError(f"series {self.name!r} is empty")
        return self._times[-1], self._values[-1]

    def last_value(self) -> float:
        return self.last()[1]

    def range(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Points with ``start <= t < end`` as ``(times, values)`` arrays."""
        lo = 0 if start is None else bisect.bisect_left(self._times, start)
        hi = len(self._times) if end is None else bisect.bisect_left(self._times, end)
        return (
            np.asarray(self._times[lo:hi], dtype=float),
            np.asarray(self._values[lo:hi], dtype=float),
        )

    def values(self) -> np.ndarray:
        return np.asarray(self._values, dtype=float)

    def times(self) -> np.ndarray:
        return np.asarray(self._times, dtype=float)


class TimeSeriesDatabase:
    """A collection of named :class:`TimeSeries`.

    ``query`` is the programmatic equivalent of the paper's RESTful HTTP
    endpoint: callers address metrics by name and time range and never
    touch monitor internals.
    """

    def __init__(self) -> None:
        self._series: Dict[str, TimeSeries] = {}

    def series(self, name: str) -> TimeSeries:
        """Get or create the series ``name``."""
        found = self._series.get(name)
        if found is None:
            found = TimeSeries(name)
            self._series[name] = found
        return found

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def names(self) -> List[str]:
        return sorted(self._series)

    def write(self, name: str, timestamp: float, value: float) -> None:
        self.series(name).append(timestamp, value)

    def query(
        self, name: str, start: Optional[float] = None, end: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Range query; unknown metrics raise ``KeyError``."""
        if name not in self._series:
            raise KeyError(f"unknown metric {name!r}")
        return self._series[name].range(start, end)

    def latest(self, name: str) -> float:
        if name not in self._series:
            raise KeyError(f"unknown metric {name!r}")
        return self._series[name].last_value()

    def latest_point(self, name: str) -> Tuple[float, float]:
        """Most recent ``(timestamp, value)`` of a metric.

        The timestamp is what lets a consumer decide whether the value is
        *stale* -- a controller steering on a power reading must know how
        old that reading is, not just its magnitude.
        """
        if name not in self._series:
            raise KeyError(f"unknown metric {name!r}")
        return self._series[name].last()


__all__ = ["TimeSeries", "TimeSeriesDatabase"]
