"""Metric series, collectors and the registry that reads them.

The registry is the control plane's single metrics surface: Prometheus
exposition, JSON snapshots and campaign-level aggregation all read one
:class:`MetricsRegistry`. Three properties shape the design:

- **One copy of every count.** A component keeps its counts in its own
  fields and, with telemetry enabled, registers one collector: a bound
  method yielding its :class:`Series` samples. Every read (``families()``,
  ``value()``, ``merge()``, exposition) calls the collectors, which read
  O(1) or O(groups) fields, so recording costs nothing beyond the field
  update and a scrape costs the same at 80 servers as at 10k. Only
  histograms, which have no owner field to read, stay instruments
  (disabled telemetry hands out the shared :data:`NULL_HISTOGRAM`).
- **Deterministic content.** Only simulation-derived quantities go into
  the registry (sim-time durations, seeded-noise readings, event
  counts). Wall-clock timings live in the span tracer
  (:mod:`repro.telemetry.tracing`), which never crosses the campaign
  worker boundary, so serial and parallel campaign runs produce
  byte-identical merged snapshots.
- **Copies cross boundaries.** A live registry points into its run
  through the collectors (a run snapshot pickles it with the run);
  results carry :meth:`MetricsRegistry.materialize`, a plain copy that
  crosses a ``ProcessPoolExecutor`` boundary like any campaign record.
  :meth:`MetricsRegistry.merge` folds per-cell registries into one
  (counters and histograms add; gauges take the last merged value,
  deterministic because campaigns always merge in cell order).

Metric names follow the Prometheus convention used throughout the
repository: ``repro_<component>_<what>[_<unit>][_total]``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: canonical label form: sorted ``(key, value)`` pairs
LabelKey = Tuple[Tuple[str, str], ...]

#: default histogram buckets (seconds) -- spans sub-millisecond RPCs up
#: to multi-second timeouts, the range the control plane actually sees
DEFAULT_TIME_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: one sample a collector yields: ``(name, kind, help, labels, value)``
Sample = Tuple[str, str, str, LabelKey, float]
#: a component's bound method yielding its current samples
Collector = Callable[[], Iterable[Sample]]


class Series:
    """A counter or gauge family a collector exports, with at most one
    label; calling it with a value (and the label's value) makes the
    sample to yield."""

    __slots__ = ("name", "kind", "help", "label")

    def __init__(
        self, name: str, kind: str, help_text: str, label: Optional[str] = None
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label = label

    def __call__(self, value: float, label_value: Optional[str] = None) -> Sample:
        key = () if label_value is None else ((self.label, label_value),)
        return (self.name, self.kind, self.help, key, value)


def counter_series(name: str, help_text: str, label: Optional[str] = None) -> Series:
    return Series(name, COUNTER, help_text, label)


def gauge_series(name: str, help_text: str, label: Optional[str] = None) -> Series:
    return Series(name, GAUGE, help_text, label)


def _label_key(labels: Optional[Mapping[str, str]]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count: a series of a copied or rebuilt
    registry (a live run's counters come from collectors)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """Point-in-time value: a series of a copied or rebuilt registry."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram (latencies, durations, batch sizes).

    Buckets are upper bounds; an implicit ``+Inf`` bucket catches the
    rest. ``bucket_counts`` are per-bucket (non-cumulative) internally
    and cumulated only at exposition time, which keeps ``observe`` to a
    single list update.
    """

    __slots__ = ("uppers", "bucket_counts", "sum", "count")

    def __init__(self, uppers: Sequence[float]) -> None:
        cleaned = tuple(float(u) for u in uppers)
        if not cleaned:
            raise ValueError("histogram needs at least one bucket bound")
        if list(cleaned) != sorted(cleaned):
            raise ValueError(f"bucket bounds must be sorted, got {cleaned}")
        self.uppers = cleaned
        self.bucket_counts = [0] * (len(cleaned) + 1)  # + the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for i, upper in enumerate(self.uppers):
            if value <= upper:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def cumulative_counts(self) -> List[int]:
        """Prometheus-style cumulative bucket counts (ends at ``count``)."""
        out: List[int] = []
        running = 0
        for n in self.bucket_counts:
            running += n
            out.append(running)
        return out


class NullHistogram:
    """Shared no-op histogram handed out by disabled telemetry."""

    __slots__ = ()
    sum = 0.0
    count = 0

    def observe(self, value: float) -> None:
        pass


NULL_HISTOGRAM = NullHistogram()


class MetricFamily:
    """All series of one metric name: kind, help text and labeled children."""

    __slots__ = ("name", "kind", "help", "buckets", "children")

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.buckets = buckets
        self.children: Dict[LabelKey, object] = {}

    def child(self, key: LabelKey):
        existing = self.children.get(key)
        if existing is not None:
            return existing
        if self.kind == COUNTER:
            made: object = Counter()
        elif self.kind == GAUGE:
            made = Gauge()
        else:
            made = Histogram(self.buckets or DEFAULT_TIME_BUCKETS)
        self.children[key] = made
        return made


class MetricsRegistry:
    """Owner of every metric family; picklable, mergeable, exportable."""

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._collectors: List[Collector] = []

    # ------------------------------------------------------------------
    # Sources (construction-time, not hot-path)
    # ------------------------------------------------------------------
    def add_collector(self, collect: Collector) -> None:
        """Read ``collect()``'s samples on every read of this registry.

        Samples of one series from several collectors combine like a
        merge: counters add, the last gauge wins.
        """
        self._collectors.append(collect)

    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, kind, help_text, buckets)
            self._families[name] = family
            return family
        if family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, "
                f"cannot re-register as {kind}"
            )
        if kind == HISTOGRAM and buckets is not None and family.buckets != buckets:
            raise ValueError(
                f"metric {name!r} already registered with buckets "
                f"{family.buckets}, got {buckets}"
            )
        return family

    def counter(
        self, name: str, help_text: str = "", labels: Optional[Mapping[str, str]] = None
    ) -> Counter:
        return self._family(name, COUNTER, help_text).child(_label_key(labels))

    def gauge(
        self, name: str, help_text: str = "", labels: Optional[Mapping[str, str]] = None
    ) -> Gauge:
        return self._family(name, GAUGE, help_text).child(_label_key(labels))

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Optional[Mapping[str, str]] = None,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> Histogram:
        return self._family(name, HISTOGRAM, help_text, tuple(buckets)).child(
            _label_key(labels)
        )

    # ------------------------------------------------------------------
    # Reads (every one runs the collectors)
    # ------------------------------------------------------------------
    def _read(self) -> Dict[str, MetricFamily]:
        """Every family by name: the instruments plus what each
        collector yields now (collected series are fresh objects)."""
        if not self._collectors:
            return self._families
        collected: Dict[str, MetricFamily] = {}
        for collect in self._collectors:
            for name, kind, help_text, key, value in collect():
                family = collected.get(name)
                if family is None:
                    if name in self._families:
                        raise ValueError(
                            f"metric {name!r} is both an instrument and collected"
                        )
                    family = collected[name] = MetricFamily(name, kind, help_text)
                elif family.kind != kind:
                    raise ValueError(f"metric {name!r} collected as two kinds")
                child = family.children.get(key)
                if kind == COUNTER:
                    if child is None:
                        child = family.children[key] = Counter()
                    child.value += value
                else:
                    if child is None:
                        child = family.children[key] = Gauge()
                    child.value = float(value)
        return {**self._families, **collected}

    def families(self) -> List[MetricFamily]:
        """Families in sorted-name order (the canonical export order)."""
        families = self._read()
        return [families[name] for name in sorted(families)]

    def get(self, name: str, labels: Optional[Mapping[str, str]] = None):
        """The series for ``name``/``labels`` as read now, or ``None``."""
        family = self._read().get(name)
        if family is None:
            return None
        return family.children.get(_label_key(labels))

    def value(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Optional[float]:
        """Scalar value of a counter/gauge series (``None`` if absent)."""
        instrument = self.get(name, labels)
        if instrument is None or isinstance(instrument, Histogram):
            return None
        return instrument.value

    def __len__(self) -> int:
        return len(self._read())

    def materialize(self) -> "MetricsRegistry":
        """A plain copy of what a read returns now, with no collectors.

        What results carry: a live registry points into its run through
        the collectors, a copy is a few dicts of scalars.
        """
        return MetricsRegistry.merged([self])

    # ------------------------------------------------------------------
    # Merge (the campaign worker boundary)
    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold what ``other`` reads now into this registry's instruments.

        Counters and histograms add; gauges take ``other``'s value (the
        merge is performed in cell order by both the serial and the
        parallel campaign paths, so the result is deterministic).
        """
        theirs_by_name = other._read()
        for name in sorted(theirs_by_name):
            theirs = theirs_by_name[name]
            family = self._family(name, theirs.kind, theirs.help, theirs.buckets)
            for key in sorted(theirs.children):
                child = theirs.children[key]
                mine = family.child(key)
                if theirs.kind == COUNTER:
                    mine.value += child.value  # type: ignore[union-attr]
                elif theirs.kind == GAUGE:
                    mine.value = child.value  # type: ignore[union-attr]
                else:
                    assert isinstance(child, Histogram)
                    assert isinstance(mine, Histogram)
                    if mine.uppers != child.uppers:
                        raise ValueError(
                            f"cannot merge histogram {name!r}: bucket bounds "
                            f"differ ({mine.uppers} vs {child.uppers})"
                        )
                    for i, n in enumerate(child.bucket_counts):
                        mine.bucket_counts[i] += n
                    mine.sum += child.sum
                    mine.count += child.count

    @classmethod
    def merged(cls, registries: Iterable["MetricsRegistry"]) -> "MetricsRegistry":
        """A fresh registry holding the in-order merge of ``registries``."""
        out = cls()
        for registry in registries:
            out.merge(registry)
        return out


__all__ = [
    "COUNTER",
    "DEFAULT_TIME_BUCKETS",
    "GAUGE",
    "HISTOGRAM",
    "Collector",
    "Counter",
    "Gauge",
    "Histogram",
    "LabelKey",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_HISTOGRAM",
    "NullHistogram",
    "Sample",
    "Series",
    "counter_series",
    "gauge_series",
]
