"""Power monitoring substrate: per-minute sampling into a time-series DB.

Stands in for the paper's in-house monitor (IPMI sampling -> streaming
aggregation -> MySQL time-series storage behind a RESTful query API): one
sweep reads each server's model power with multiplicative measurement
noise, so the controller consumes the same signal shape -- per-minute,
per-group aggregated power with per-server noise.
"""

from repro.monitor.tsdb import TimeSeries, TimeSeriesDatabase
from repro.monitor.power_monitor import PowerMonitor

__all__ = ["TimeSeries", "TimeSeriesDatabase", "PowerMonitor"]
