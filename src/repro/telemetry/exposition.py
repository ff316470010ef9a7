"""Exposition: Prometheus text format and JSON snapshots of a registry.

Both exports are *canonical*: families in sorted-name order, series in
sorted-label order, floats rendered with ``repr`` so equal registries
produce byte-identical documents. The campaign determinism tests lean on
this -- "serial and parallel merged snapshots are identical" is asserted
on these rendered forms, not on object graphs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.durability.atomic import atomic_write_text
from repro.telemetry.registry import (
    COUNTER,
    GAUGE,
    Histogram,
    LabelKey,
    MetricsRegistry,
)


#: the Content-Type the text format must be served under. Shared by the
#: CLI's ``metrics --prom`` note and the service's ``/metrics`` endpoint
#: so the two can never drift apart.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _format_value(value: float) -> str:
    """Prometheus-style number rendering (integers without the dot)."""
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value) == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def escape_label_value(value: str) -> str:
    """Escape a label value per the text-format spec.

    Backslash, double-quote and newline are the three characters the
    format reserves inside quoted label values; anything else passes
    through. Backslash must go first or it would re-escape the others.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def escape_help_text(text: str) -> str:
    """Escape a HELP docstring (backslash and newline only, per spec)."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _format_labels(key: LabelKey, extra: str = "") -> str:
    parts = [f'{k}="{escape_label_value(v)}"' for k, v in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (version 0.0.4)."""
    lines: List[str] = []
    for name, kind, help_text, series in registry.series():
        if help_text:
            lines.append(f"# HELP {name} {escape_help_text(help_text)}")
        lines.append(f"# TYPE {name} {kind}")
        for key in sorted(series):
            value = series[key]
            if isinstance(value, Histogram):
                cumulative = value.cumulative_counts()
                bounds = [*value.uppers, float("inf")]
                for upper, count in zip(bounds, cumulative):
                    le_label = 'le="' + _format_value(upper) + '"'
                    lines.append(
                        f"{name}_bucket{_format_labels(key, le_label)} {count}"
                    )
                lines.append(
                    f"{name}_sum{_format_labels(key)} {_format_value(value.sum)}"
                )
                lines.append(f"{name}_count{_format_labels(key)} {value.count}")
            else:
                lines.append(f"{name}{_format_labels(key)} {_format_value(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def snapshot(registry: MetricsRegistry) -> Dict[str, Any]:
    """Canonical plain-dict form of a registry (the JSON export)."""
    doc: Dict[str, Any] = {}
    for name, kind, help_text, series in registry.series():
        entries: List[Dict[str, Any]] = []
        for key in sorted(series):
            value = series[key]
            entry: Dict[str, Any] = {"labels": {k: v for k, v in key}}
            if isinstance(value, Histogram):
                entry["buckets"] = list(value.uppers)
                entry["bucket_counts"] = list(value.bucket_counts)
                entry["sum"] = value.sum
                entry["count"] = value.count
            else:
                entry["value"] = value
            entries.append(entry)
        doc[name] = {"kind": kind, "help": help_text, "series": entries}
    return doc


def render_json(registry: MetricsRegistry, indent: int = 2) -> str:
    """The snapshot as deterministic JSON text."""
    return json.dumps(snapshot(registry), indent=indent, sort_keys=True)


def save_snapshot(registry: MetricsRegistry, path: Union[str, Path]) -> None:
    atomic_write_text(path, render_json(registry) + "\n")


def registry_from_snapshot(doc: Dict[str, Any]) -> MetricsRegistry:
    """Rebuild a registry from :func:`snapshot` output.

    Archived snapshots become live registries again, so campaign-level
    aggregation can merge stored runs with fresh ones.
    """
    registry = MetricsRegistry()
    for name in sorted(doc):
        family_doc = doc[name]
        kind = family_doc["kind"]
        for entry in family_doc["series"]:
            labels = entry.get("labels") or None
            if kind == COUNTER:
                registry.counter(name, family_doc.get("help", ""), labels).inc(
                    entry["value"]
                )
            elif kind == GAUGE:
                registry.gauge(name, family_doc.get("help", ""), labels).set(
                    entry["value"]
                )
            else:
                histogram = registry.histogram(
                    name,
                    family_doc.get("help", ""),
                    labels,
                    buckets=entry["buckets"],
                )
                histogram.bucket_counts = list(entry["bucket_counts"])
                histogram.sum = entry["sum"]
                histogram.count = entry["count"]
    return registry


__all__ = [
    "PROMETHEUS_CONTENT_TYPE",
    "escape_help_text",
    "escape_label_value",
    "registry_from_snapshot",
    "render_json",
    "render_prometheus",
    "save_snapshot",
    "snapshot",
]
