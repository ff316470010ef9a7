"""Snapshot verification shared by the CLI and the live service.

``ampere-repro verify-snapshot`` and the service's ``verify-snapshot``
endpoint answer the same question -- "does this durable frame restore
into a state whose invariants hold?" -- so the restore-and-audit sweep
lives here once and both front-ends format the structured report their
own way (table + exit code vs. JSON + HTTP status).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.audit import ALL_CHECKS, AuditorConfig

#: exit codes of the CLI command (and mapped onto HTTP statuses)
EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_UNREADABLE = 2


@dataclass
class VerifyReport:
    """Structured outcome of one snapshot verification sweep."""

    path: str
    exit_code: int
    kind: Optional[str] = None
    meta: Dict[str, object] = field(default_factory=dict)
    error: Optional[str] = None
    #: per-check violation counts, in check order (empty when unreadable)
    check_counts: Dict[str, int] = field(default_factory=dict)
    #: ``(check, message)`` pairs of every violation found
    violations: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.exit_code == EXIT_OK

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "ok": self.ok,
            "exit_code": self.exit_code,
            "kind": self.kind,
            "meta": dict(self.meta),
            "error": self.error,
            "checks": dict(self.check_counts),
            "violations": [
                {"check": check, "message": message}
                for check, message in self.violations
            ],
        }


def verify_snapshot_file(
    path: str, checks: Optional[Sequence[str]] = None
) -> VerifyReport:
    """Restore a durable snapshot and run a full invariant sweep.

    The frame's kind picks the run class
    (:func:`repro.sim.staged.restore_run`). Never raises for bad input:
    unreadable/corrupt/unknown-kind frames come back with
    ``exit_code == EXIT_UNREADABLE`` and an ``error`` message, invariant
    violations with ``exit_code == EXIT_VIOLATIONS``.
    """
    from repro.durability import SnapshotError, read_header
    from repro.sim.staged import restore_run

    path = str(path)
    try:
        header = read_header(path)
    except (OSError, SnapshotError) as exc:
        return VerifyReport(
            path=path,
            exit_code=EXIT_UNREADABLE,
            error=f"cannot read snapshot: {exc}",
        )
    kind = header.get("kind")
    try:
        experiment = restore_run(path)
    except SnapshotError as exc:
        return VerifyReport(
            path=path,
            exit_code=EXIT_UNREADABLE,
            kind=kind,
            error=f"snapshot rejected: {exc}",
        )
    meta = dict(header.get("meta", {}))
    selected = tuple(checks) if checks else ALL_CHECKS
    auditor = experiment.build_auditor(
        AuditorConfig(
            sample_fraction=1.0, on_violation="record", checks=selected
        )
    )
    violations = auditor.audit(sample=False)
    report = VerifyReport(
        path=path,
        exit_code=EXIT_VIOLATIONS if violations else EXIT_OK,
        kind=kind,
        meta=meta,
        check_counts={
            check: sum(1 for v in violations if v.check == check)
            for check in selected
        },
        violations=[(v.check, v.message) for v in violations],
    )
    return report


__all__ = [
    "EXIT_OK",
    "EXIT_UNREADABLE",
    "EXIT_VIOLATIONS",
    "VerifyReport",
    "verify_snapshot_file",
]
