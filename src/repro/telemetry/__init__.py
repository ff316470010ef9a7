"""``repro.telemetry`` -- unified metrics, tracing and exposition.

The control plane's observability subsystem, built from three parts:

- :mod:`~repro.telemetry.registry` -- one picklable, mergeable
  :class:`MetricsRegistry`: counter and gauge series read from the
  components' own fields through collectors, and fixed-bucket
  histograms.
- :mod:`~repro.telemetry.tracing` -- per-tick spans (``monitor.sweep``,
  ``controller.tick``, ``rhc.decide``, ``scheduler.rpc``) carrying both
  sim-time and wall-time durations in a ring-buffer store.
- :mod:`~repro.telemetry.exposition` -- Prometheus text format and
  canonical JSON snapshots.

Components receive a :class:`Telemetry` facade. A component keeps its
counts in its own fields either way; with telemetry enabled it also
registers one collector (:meth:`Telemetry.collect`) that reads them when
the registry is read, so counting costs the same with telemetry on or
off. There is exactly one disabled instance (:func:`Telemetry.disabled`):
it ignores collectors and hands out the shared no-op histogram and null
spans. Trajectories are bit-identical either way -- telemetry observes
the simulation, it never participates in it.
"""

from __future__ import annotations

import logging
from typing import Callable, Mapping, Optional, Sequence, Union

from repro.telemetry.exposition import (
    PROMETHEUS_CONTENT_TYPE,
    registry_from_snapshot,
    render_json,
    render_prometheus,
    save_snapshot,
    snapshot,
)
from repro.telemetry.fairness import jains_index
from repro.telemetry.registry import (
    DEFAULT_TIME_BUCKETS,
    NULL_HISTOGRAM,
    Collector,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullHistogram,
    Series,
    counter_series,
    gauge_series,
)
from repro.telemetry.tracing import NULL_SPAN, NullTracer, SpanRecord, Tracer


class Telemetry:
    """One run's telemetry surface: a registry plus a tracer.

    Use :meth:`create` for an enabled instance and :meth:`disabled` for
    the shared no-op one; components should accept either and call the
    same methods unconditionally.
    """

    __slots__ = ("enabled", "registry", "tracer")

    def __init__(
        self,
        enabled: bool,
        registry: Optional[MetricsRegistry],
        tracer: Union[Tracer, NullTracer],
    ) -> None:
        self.enabled = enabled
        self.registry = registry
        self.tracer = tracer

    @classmethod
    def create(cls, trace_capacity: int = 8192) -> "Telemetry":
        return cls(True, MetricsRegistry(), Tracer(capacity=trace_capacity))

    @classmethod
    def disabled(cls) -> "Telemetry":
        """The process-wide no-op instance."""
        return _DISABLED

    # ------------------------------------------------------------------
    # Metric sources
    # ------------------------------------------------------------------
    def collect(self, collector: Collector) -> None:
        """Read ``collector``'s samples on every registry read (ignored
        when disabled)."""
        if self.enabled:
            self.registry.add_collector(collector)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Optional[Mapping[str, str]] = None,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ):
        if not self.enabled:
            return NULL_HISTOGRAM
        return self.registry.histogram(name, help_text, labels, buckets)

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: object):
        return self.tracer.span(name, **attributes)

    def bind_sim_clock(self, clock: Callable[[], float]) -> None:
        self.tracer.bind_sim_clock(clock)

    def __reduce__(self):
        # The disabled instance is a process-wide singleton; components
        # test identity-free `enabled` flags but sharing one no-op object
        # keeps restored snapshots structurally identical to fresh runs.
        if not self.enabled:
            return (Telemetry.disabled, ())
        return (Telemetry, (True, self.registry, self.tracer))


_DISABLED = Telemetry(False, None, NullTracer())


def configure_logging(
    level: Union[str, int] = "warning", stream=None, force: bool = False
) -> None:
    """Wire the ``repro`` logger hierarchy to a stream handler.

    The library itself only attaches a ``NullHandler`` (in
    ``repro/__init__``), per stdlib convention; applications -- the CLI,
    tests, notebooks -- call this to actually see log lines. Repeated
    calls are idempotent unless ``force`` replaces the handler.
    """
    if isinstance(level, str):
        numeric = logging.getLevelName(level.upper())
        if not isinstance(numeric, int):
            raise ValueError(f"unknown log level {level!r}")
        level = numeric
    logger = logging.getLogger("repro")
    logger.setLevel(level)
    stream_handlers = [
        h for h in logger.handlers if isinstance(h, logging.StreamHandler)
    ]
    if stream_handlers and not force:
        for handler in stream_handlers:
            handler.setLevel(level)
        return
    for handler in stream_handlers:
        logger.removeHandler(handler)
    handler = logging.StreamHandler(stream)
    handler.setLevel(level)
    handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s: %(message)s")
    )
    logger.addHandler(handler)


__all__ = [
    "Collector",
    "Counter",
    "DEFAULT_TIME_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_HISTOGRAM",
    "NULL_SPAN",
    "NullHistogram",
    "NullTracer",
    "SpanRecord",
    "Telemetry",
    "Tracer",
    "Series",
    "configure_logging",
    "counter_series",
    "gauge_series",
    "jains_index",
    "registry_from_snapshot",
    "render_json",
    "PROMETHEUS_CONTENT_TYPE",
    "render_prometheus",
    "save_snapshot",
    "snapshot",
]
