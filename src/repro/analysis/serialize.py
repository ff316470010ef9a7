"""Serialization of experiment results to plain JSON.

A recorded :class:`~repro.sim.experiment.ExperimentResult` round-trips to
a JSON document containing the configuration, per-group summaries and the
measured series, so runs can be archived, diffed across code versions,
and post-processed without re-simulating.

Campaign rows get the same treatment: :func:`campaign_row_to_dict` /
:func:`campaign_row_from_dict` define the *stable* row representation
used at the parallel worker boundary and by the golden campaign fixture
-- key order is fixed, floats are written verbatim, and a row (including
its cell and workload spec) reconstructs exactly.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Dict, Iterable, List

import numpy as np

from repro.analysis.metrics import GroupRunSummary
from repro.sim.campaign import CampaignCell, CampaignRow
from repro.sim.experiment import ExperimentResult, GroupOutcome
from repro.sim.testbed import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a hard fleet import
    from repro.sim.fleet_experiment import FleetResult


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of config values to JSON-safe types."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)  # policies and other live objects


def summary_to_dict(summary: GroupRunSummary) -> Dict[str, Any]:
    return {
        "name": summary.name,
        "p_mean": summary.p_mean,
        "p_max": summary.p_max,
        "u_mean": summary.u_mean,
        "u_max": summary.u_max,
        "violations": summary.violations,
        "throughput": summary.throughput,
    }


def outcome_to_dict(outcome: GroupOutcome, include_series: bool = True) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "summary": summary_to_dict(outcome.summary),
        "throughput": outcome.throughput,
    }
    if include_series:
        payload["power_times"] = outcome.power_times.tolist()
        payload["normalized_power"] = outcome.normalized_power.tolist()
        payload["u_times"] = outcome.u_times.tolist()
        payload["u_values"] = outcome.u_values.tolist()
    return payload


def result_to_dict(
    result: ExperimentResult, include_series: bool = True
) -> Dict[str, Any]:
    """Full experiment result as a JSON-serializable dict."""
    payload: Dict[str, Any] = {
        "config": _jsonable(result.config),
        "experiment": outcome_to_dict(result.experiment, include_series),
        "control": outcome_to_dict(result.control, include_series),
        "r_t": result.r_t,
        "g_tpw": result.g_tpw,
    }
    # Safety-ladder outcomes only appear when a breaker/supervisor was
    # armed, keeping documents from safety-free runs byte-stable.
    if result.breaker_stats is not None:
        payload["breaker"] = _jsonable(result.breaker_stats.snapshot())
    if result.safety_stats is not None:
        payload["safety"] = _jsonable(result.safety_stats.snapshot())
    if result.facility is not None:
        payload["facility"] = _jsonable(result.facility)
    # Tenancy stats only appear for multi-tenant runs, keeping documents
    # from untenanted runs byte-stable (the config's ``tenancy: null`` is
    # additive and serializes via _jsonable like every other field).
    if result.tenancy is not None:
        payload["tenancy"] = _jsonable(result.tenancy)
    return payload


def fleet_result_to_dict(result: "FleetResult") -> Dict[str, Any]:
    """A fleet run as a JSON-serializable dict (stable key order).

    Imported lazily so loading this module never pulls the fleet
    package in for single-row workflows.
    """
    return {
        "config": _jsonable(result.config),
        "rows": [
            {
                "name": row.name,
                "summary": summary_to_dict(row.summary),
                "static_budget_watts": row.static_budget_watts,
                "final_allocation_watts": row.final_allocation_watts,
                "rating_watts": row.rating_watts,
                "frozen_server_minutes": row.frozen_server_minutes,
                "breaker_trips": row.breaker_trips,
                "mean_wait_seconds": row.mean_wait_seconds,
                "p99_wait_seconds": row.p99_wait_seconds,
            }
            for row in result.rows
        ],
        "facility": _jsonable(result.facility),
        "ledger": _jsonable(result.ledger),
        "coordinator": _jsonable(result.coordinator_stats),
        "faults": _jsonable(result.fault_stats),
        **(
            {"tenancy": _jsonable(result.tenancy)}
            if result.tenancy is not None
            else {}
        ),
    }


# ---------------------------------------------------------------------------
# Campaign rows: the stable record format of the worker boundary
# ---------------------------------------------------------------------------

def campaign_cell_to_dict(cell: CampaignCell) -> Dict[str, Any]:
    return {
        "over_provision_ratio": cell.over_provision_ratio,
        "workload_name": cell.workload_name,
        "workload": _jsonable(cell.workload),
        "seed": cell.seed,
    }


def campaign_cell_from_dict(doc: Dict[str, Any]) -> CampaignCell:
    return CampaignCell(
        over_provision_ratio=doc["over_provision_ratio"],
        workload_name=doc["workload_name"],
        workload=WorkloadSpec(**doc["workload"]),
        seed=doc["seed"],
    )


def campaign_row_to_dict(row: CampaignRow) -> Dict[str, Any]:
    """Stable JSON form of one campaign row, cell included.

    Fixed key order and verbatim floats: serial and parallel execution
    of the same campaign must produce byte-identical documents.
    """
    return {
        "cell": campaign_cell_to_dict(row.cell),
        "p_mean": row.p_mean,
        "p_max": row.p_max,
        "u_mean": row.u_mean,
        "r_t": row.r_t,
        "g_tpw": row.g_tpw,
        "violations": row.violations,
        "trips": row.trips,
        "jobs_shed": row.jobs_shed,
        "frozen_server_minutes": row.frozen_server_minutes,
        "reallocations": row.reallocations,
        # Tenancy columns are emitted only for tenanted cells so the
        # golden campaign fixture (untenanted) stays byte-identical.
        **(
            {
                "tenancy_policy": row.tenancy_policy,
                "jain_index": row.jain_index,
            }
            if row.tenancy_policy is not None
            else {}
        ),
        "error": row.error,
    }


def campaign_row_from_dict(doc: Dict[str, Any]) -> CampaignRow:
    return CampaignRow(
        cell=campaign_cell_from_dict(doc["cell"]),
        p_mean=doc["p_mean"],
        p_max=doc["p_max"],
        u_mean=doc["u_mean"],
        r_t=doc["r_t"],
        g_tpw=doc["g_tpw"],
        violations=doc["violations"],
        trips=doc.get("trips", 0),
        jobs_shed=doc.get("jobs_shed", 0),
        frozen_server_minutes=doc.get("frozen_server_minutes", 0.0),
        reallocations=doc.get("reallocations", 0),
        tenancy_policy=doc.get("tenancy_policy"),
        jain_index=doc.get("jain_index"),
        error=doc.get("error"),
    )


def campaign_rows_to_dicts(rows: Iterable[CampaignRow]) -> List[Dict[str, Any]]:
    return [campaign_row_to_dict(row) for row in rows]


__all__ = [
    "fleet_result_to_dict",
    "result_to_dict",
    "summary_to_dict",
    "outcome_to_dict",
    "campaign_cell_to_dict",
    "campaign_cell_from_dict",
    "campaign_row_to_dict",
    "campaign_row_from_dict",
    "campaign_rows_to_dicts",
]
