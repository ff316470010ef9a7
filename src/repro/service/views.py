"""Observe-side JSON documents built from live experiment state.

Every function here takes a :class:`~repro.sim.staged.StagedRun`
and returns plain dicts/lists of JSON-native values. They are called
*on the simulation thread* (via :meth:`RealTimeDriver.read`), so they
may walk live object graphs freely -- but they must **copy** everything
they return, because by the time the HTTP thread serializes the
document the sim thread has moved on.

``json.dumps`` happily emits ``NaN``/``Infinity``, which browsers'
``JSON.parse`` rejects -- and live power telemetry legitimately holds
NaNs (an IPMI read during a monitoring blackout carries last-known
value with a NaN marker, a never-sampled group has no latest point).
:func:`jsonsafe` scrubs every document to ``null`` before it leaves the
sim thread (a group's per-server columns with one vectorised check).

The state, group and controller documents (the operator's polled
reads) take O(groups) fields plus array expressions over the
``ClusterState`` columns, never a Python loop over servers.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import Optional

import numpy as np

from repro.sim.staged import StagedRun


def jsonsafe(value):
    """Recursively coerce a document to JSON-native, finite values.

    NaN/Inf become ``None`` (valid JSON, parseable by browsers), numpy
    scalars and arrays become Python numbers and lists, tuples become
    lists, enums their values, dataclasses dicts. Unknown objects fall
    back to ``str`` so an observe endpoint never 500s on an exotic leaf.
    """
    if value is None or isinstance(value, (bool, str, int)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, np.generic):
        return jsonsafe(value.item())
    if isinstance(value, np.ndarray):
        return [jsonsafe(v) for v in value.tolist()]
    if isinstance(value, enum.Enum):
        return jsonsafe(value.value)
    if isinstance(value, dict):
        return {str(k): jsonsafe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [jsonsafe(v) for v in items]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: jsonsafe(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    return str(value)


# ----------------------------------------------------------------------
# Documents
# ----------------------------------------------------------------------
def config_doc(run: StagedRun) -> dict:
    return jsonsafe(
        {
            "kind": run.SNAPSHOT_KIND,
            "config": run.config,
            "end_seconds": run.end_seconds,
        }
    )


#: the flags a group document's ``flags`` column packs, bit ``i`` for
#: ``SERVER_FLAGS[i]`` (frozen = 1, capped = 2, failed = 4, off = 8)
SERVER_FLAGS = ("frozen", "capped", "failed", "powered_off")


def _group_summary(run: StagedRun, name: str, group, masks: dict) -> dict:
    breaker = run.breakers().get(name)
    supervisor = run.supervisors().get(name)
    power = group.power_watts()
    doc = {
        "name": name,
        "n_servers": len(group),
        "power_watts": power,
        "budget_watts": group.power_budget_watts,
        "rated_watts": group.rated_watts(),
        "normalized_power": power / group.power_budget_watts,
        "over_provision_ratio": group.over_provision_ratio,
        **{flag: int(np.count_nonzero(masks[flag])) for flag in SERVER_FLAGS},
        "controlled": name in run.controllers(),
        "safety_state": supervisor.state.name if supervisor else None,
        "safety_level": int(supervisor.state) if supervisor else None,
        "breaker": (
            {
                "tripped": breaker.tripped,
                "thermal_fraction": breaker.thermal_fraction,
                "trips": breaker.stats.trips,
            }
            if breaker
            else None
        ),
    }
    try:
        doc["violations"] = run.monitor.violation_count(name)
    except KeyError:
        doc["violations"] = None
    return doc


def state_doc(run: StagedRun) -> dict:
    """The facility overview: every group, one summary row each."""
    monitor = run.monitor
    summaries = [
        _group_summary(run, name, group, group.flag_masks())
        for name, group in run.groups().items()
    ]
    return jsonsafe(
        {
            "kind": run.SNAPSHOT_KIND,
            "sim_now": run.engine.now,
            "facility_budget_watts": monitor.facility_budget_watts,
            "facility_power_watts": sum(g["power_watts"] for g in summaries),
            "in_outage": monitor.in_outage,
            "sensor_bias": monitor.sensor_bias,
            "groups": summaries,
        }
    )


def _finite_list(values: np.ndarray) -> list:
    """``values`` as a list with every NaN/Inf turned into ``None``."""
    out = values.tolist()
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        out[i] = None
    return out


def group_doc(run: StagedRun, name: str) -> Optional[dict]:
    """One group in depth: its summary, controller state and per-server
    columns.

    ``servers`` holds parallel lists in member order: ``id``,
    ``power_watts`` and ``flags``, whose bit ``i`` is set when
    ``SERVER_FLAGS[i]`` holds (listed in ``server_flags``). Every column
    is an array read of the group's slots.
    """
    groups = run.groups()
    if name not in groups:
        return None
    group = groups[name]
    masks = group.flag_masks()
    doc = _group_summary(run, name, group, masks)
    controller = run.controllers().get(name)
    if controller is not None:
        state = controller.state_of(name)
        doc["controller"] = {
            "ticks": state.ticks,
            "active_ticks": state.active_ticks,
            "freeze_actions": state.freeze_actions,
            "unfreeze_actions": state.unfreeze_actions,
            "u_mean": state.u_mean,
            "u_max": state.u_max,
            "intended_frozen": len(state.intended_frozen),
            "residuals": state.residual_summary(),
        }
    else:
        doc["controller"] = None
    doc = jsonsafe(doc)
    flags = np.zeros(len(group), dtype=np.int64)
    for bit, flag in enumerate(SERVER_FLAGS):
        flags[masks[flag]] |= 1 << bit
    doc["server_flags"] = list(SERVER_FLAGS)
    doc["servers"] = {
        "id": group.state.server_ids[group.state_indices].tolist(),
        "power_watts": _finite_list(group.server_powers()),
        "flags": flags.tolist(),
    }
    return doc


def controllers_doc(run: StagedRun) -> dict:
    """Controller health counters per controlled group."""
    out = {}
    for name, controller in run.controllers().items():
        state = controller.state_of(name)
        out[name] = {
            "crashed": controller.crashed,
            "health": controller.health.summary(),
            "u_mean": state.u_mean,
            "u_max": state.u_max,
            "ticks": state.ticks,
        }
    return jsonsafe({"controllers": out})


def ledger_doc(run: StagedRun) -> Optional[dict]:
    """The facility budget ledger (fleet runs only)."""
    ledger = run.ledger
    if ledger is None:
        return None
    return jsonsafe(
        {
            "facility_budget_watts": ledger.facility_budget_watts,
            "frozen": ledger.frozen,
            "rows": [
                {
                    "name": row.name,
                    "allocation_watts": row.allocation_watts,
                    "static_watts": row.static_watts,
                    "rating_watts": row.rating_watts,
                    "floor_watts": row.floor_watts,
                }
                for row in ledger.rows()
            ],
        }
    )


def tenants_doc(run: StagedRun) -> Optional[dict]:
    """Per-tenant fairness accounting (multi-tenant runs only)."""
    accountant = run.accountant
    if accountant is None:
        return None
    stats = accountant.stats_snapshot()
    return jsonsafe(
        {
            "policy": stats.policy,
            "jain_index": stats.jain_index,
            "total_frozen_server_minutes": stats.total_frozen_server_minutes,
            "total_shed_events": stats.total_shed_events,
            "tenants": stats.tenants,
        }
    )


def events_doc(run: StagedRun, limit: int = 100,
               kind: Optional[str] = None) -> dict:
    """The tail of the control-plane eventlog, newest last."""
    events = run.event_log.events
    if kind is not None:
        events = [e for e in events if e.kind == kind]
    tail = events[-limit:] if limit > 0 else list(events)
    return jsonsafe(
        {
            "total": len(run.event_log.events),
            "returned": len(tail),
            "events": [
                {
                    "time": e.time,
                    "kind": e.kind,
                    "server_id": e.server_id,
                    "detail": e.detail,
                }
                for e in tail
            ],
        }
    )


def series_doc(run: StagedRun,
               window_seconds: float = 3600.0) -> dict:
    """Power-vs-budget traces for the dashboard's charts.

    Returns the trailing ``window_seconds`` of each group's monitor
    series plus the facility roll-up when one exists.
    """
    monitor = run.monitor
    now = run.engine.now
    start = max(0.0, now - window_seconds)
    series = {}
    for name, group in run.groups().items():
        try:
            times, watts = monitor.power_series(name, start, now)
        except KeyError:
            continue
        series[name] = {
            "times": times,
            "watts": watts,
            "budget_watts": group.power_budget_watts,
        }
    try:
        times, watts = monitor.facility_power_series(start, now)
        facility = {
            "times": times,
            "watts": watts,
            "budget_watts": monitor.facility_budget_watts,
        }
    except KeyError:
        facility = None
    return jsonsafe(
        {"sim_now": now, "window_seconds": window_seconds,
         "groups": series, "facility": facility}
    )


def safety_doc(run: StagedRun) -> dict:
    """Safety-ladder and breaker state for every protected group."""
    out = {}
    breakers = run.breakers()
    for name, supervisor in run.supervisors().items():
        stats = supervisor.stats
        out[name] = {
            "state": supervisor.state.name,
            "level": int(supervisor.state),
            "escalations": stats.escalations,
            "deescalations": stats.deescalations,
            "max_state": stats.max_state,
            "freezes_issued": stats.freezes_issued,
            "slams": stats.slams,
            "jobs_shed": stats.jobs_shed,
            "seconds_in_state": stats.seconds_in_state,
        }
    breaker_docs = {}
    for name, breaker in breakers.items():
        breaker_docs[name] = {
            "tripped": breaker.tripped,
            "thermal_fraction": breaker.thermal_fraction,
            "trips": breaker.stats.trips,
            "resets": breaker.stats.resets,
            "jobs_killed": breaker.stats.jobs_killed,
        }
    return jsonsafe({"supervisors": out, "breakers": breaker_docs})


def faults_doc(run: StagedRun) -> dict:
    """Build-time and runtime-armed fault injector statistics."""

    def injector_doc(injector) -> dict:
        stats = injector.stats_snapshot()
        return {
            "scenario": injector.scenario.name,
            "stats": stats,
        }

    build = run.injector
    return jsonsafe(
        {
            "build": injector_doc(build) if build is not None else None,
            "runtime": [
                injector_doc(inj) for inj in run.runtime_injectors
            ],
        }
    )


def audit_doc(run: StagedRun) -> dict:
    """Run a full (unsampled) invariant sweep right now and report it.

    Also includes the cumulative stats of the experiment's *online*
    auditor when one was armed via config.
    """
    from repro.sim.audit import AuditorConfig

    auditor = run.build_auditor(
        AuditorConfig(sample_fraction=1.0, on_violation="record")
    )
    violations = auditor.audit(sample=False)
    online = run.auditor
    return jsonsafe(
        {
            "clean": not violations,
            "violations": [
                {"check": v.check, "time": v.time, "message": v.message,
                 "details": v.details}
                for v in violations
            ],
            "online": (
                {
                    "passes": online.stats.passes,
                    "checks_run": online.stats.checks_run,
                    "violations": online.stats.violations,
                    "violations_by_check": online.stats.violations_by_check,
                }
                if online is not None
                else None
            ),
        }
    )


__all__ = [
    "SERVER_FLAGS",
    "audit_doc",
    "config_doc",
    "controllers_doc",
    "events_doc",
    "faults_doc",
    "group_doc",
    "jsonsafe",
    "ledger_doc",
    "safety_doc",
    "series_doc",
    "state_doc",
    "tenants_doc",
]
