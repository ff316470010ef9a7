"""The budget ledger: conservation and safety invariants, enforced.

Every watt the fleet coordinator hands to one row must come from
somewhere; the ledger is the single place where the facility's budget is
divided, and it *refuses* any assignment that breaks an invariant
instead of trusting the policy that proposed it:

- allocations across rows never sum above the facility budget,
- no row is allocated below its current safety floor,
- no row is allocated above its physical feed rating (breakers are
  hardware; budget moves must never reach the trip curve).

Policies are pluggable and experimental; the ledger is neither. A buggy
policy raises :class:`LedgerError` here rather than silently steering
the fast control loops into a breaker.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Mapping

#: relative slack for floating-point conservation checks
LEDGER_RTOL = 1e-9


class LedgerError(ValueError):
    """A proposed assignment violates a ledger invariant."""


@dataclass
class RowBudget:
    """One row's entry in the ledger.

    ``rating_watts`` is the physical feed rating and never changes.
    ``static_watts`` is the build-time share (what the row would own
    with no coordinator). ``floor_watts`` is the current safety floor
    (demand-derived, updated each coordinator tick) and
    ``allocation_watts`` the live budget the row's controller defends.
    """

    name: str
    rating_watts: float
    static_watts: float
    floor_watts: float = 0.0
    allocation_watts: float = 0.0

    def __post_init__(self) -> None:
        if self.rating_watts <= 0:
            raise ValueError(
                f"rating_watts must be positive, got {self.rating_watts}"
            )
        if not 0 < self.static_watts <= self.rating_watts * (1 + LEDGER_RTOL):
            raise ValueError(
                f"static_watts for {self.name!r} must be in (0, rating], got "
                f"{self.static_watts} (rating {self.rating_watts})"
            )
        if self.allocation_watts == 0.0:
            self.allocation_watts = self.static_watts


@dataclass
class LedgerStats:
    """Accounting of ledger activity (picklable)."""

    applies: int = 0
    reallocations: int = 0
    watts_moved: float = 0.0
    floor_scalings: int = 0
    freezes: int = 0
    rejected: int = 0


class BudgetLedger:
    """Divides one facility budget between rows, enforcing invariants."""

    def __init__(
        self, facility_budget_watts: float, rows: Iterable[RowBudget]
    ) -> None:
        if facility_budget_watts <= 0:
            raise ValueError(
                "facility_budget_watts must be positive, got "
                f"{facility_budget_watts}"
            )
        self.facility_budget_watts = float(facility_budget_watts)
        self._rows: Dict[str, RowBudget] = {}
        for row in rows:
            if row.name in self._rows:
                raise ValueError(f"duplicate row {row.name!r}")
            self._rows[row.name] = row
        if not self._rows:
            raise ValueError("ledger needs at least one row")
        slack = self.facility_budget_watts * (1 + LEDGER_RTOL)
        total_static = sum(r.static_watts for r in self._rows.values())
        if total_static > slack:
            raise ValueError(
                f"static budgets sum to {total_static:.1f} W, above the "
                f"facility budget {self.facility_budget_watts:.1f} W"
            )
        self.frozen = False
        self.frozen_since: float = float("nan")
        self.stats = LedgerStats()

    # ------------------------------------------------------------------
    @property
    def row_names(self) -> List[str]:
        return sorted(self._rows)

    def row(self, name: str) -> RowBudget:
        return self._rows[name]

    def rows(self) -> List[RowBudget]:
        """Rows in name order (deterministic iteration everywhere)."""
        return [self._rows[name] for name in self.row_names]

    def allocations(self) -> Dict[str, float]:
        return {name: self._rows[name].allocation_watts for name in self.row_names}

    def total_allocated(self) -> float:
        return sum(r.allocation_watts for r in self._rows.values())

    # ------------------------------------------------------------------
    def set_floor(self, name: str, floor_watts: float) -> None:
        """Update one row's safety floor (clamped into [0, rating])."""
        row = self._rows[name]
        if floor_watts < 0:
            raise LedgerError(
                f"floor for {name!r} must be non-negative, got {floor_watts}"
            )
        if floor_watts > row.rating_watts * (1 + LEDGER_RTOL):
            raise LedgerError(
                f"floor for {name!r} ({floor_watts:.1f} W) exceeds the feed "
                f"rating ({row.rating_watts:.1f} W)"
            )
        row.floor_watts = float(min(floor_watts, row.rating_watts))

    def scale_floors_to_fit(self) -> bool:
        """If floors over-subscribe the budget, shrink them to fit.

        Demand spikes on every row at once can push the sum of
        demand-derived floors past the facility budget -- a physically
        unsatisfiable ask. Scaling all floors by a common factor keeps
        relative protection while restoring feasibility. Returns True if
        scaling was needed.
        """
        total = sum(r.floor_watts for r in self._rows.values())
        if total <= self.facility_budget_watts:
            return False
        factor = self.facility_budget_watts / total
        for row in self._rows.values():
            row.floor_watts *= factor
        self.stats.floor_scalings += 1
        return True

    # ------------------------------------------------------------------
    def freeze(self, now: float) -> None:
        """Pin allocations at last-good (coordinator blackout)."""
        if not self.frozen:
            self.frozen = True
            self.frozen_since = now
            self.stats.freezes += 1

    def thaw(self) -> None:
        self.frozen = False
        self.frozen_since = float("nan")

    # ------------------------------------------------------------------
    def check(self, allocations: Mapping[str, float]) -> None:
        """Raise :class:`LedgerError` unless ``allocations`` could be
        applied now; changes nothing, not even the stats."""
        if self.frozen:
            raise LedgerError("ledger is frozen (coordinator blackout)")
        if set(allocations) != set(self._rows):
            raise LedgerError(
                f"assignment names {sorted(allocations)} != ledger rows "
                f"{self.row_names}"
            )
        slack = self.facility_budget_watts * LEDGER_RTOL
        total = 0.0
        for name in self.row_names:
            row = self._rows[name]
            watts = float(allocations[name])
            if watts < row.floor_watts - slack:
                raise LedgerError(
                    f"{name!r}: {watts:.1f} W is below the safety floor "
                    f"{row.floor_watts:.1f} W"
                )
            if watts > row.rating_watts + slack:
                raise LedgerError(
                    f"{name!r}: {watts:.1f} W exceeds the feed rating "
                    f"{row.rating_watts:.1f} W"
                )
            total += watts
        if total > self.facility_budget_watts + slack:
            raise LedgerError(
                f"assignment sums to {total:.1f} W, above the facility "
                f"budget {self.facility_budget_watts:.1f} W"
            )

    def apply(self, allocations: Mapping[str, float]) -> float:
        """Adopt a complete assignment, or raise without changing anything
        but the ``rejected`` count.

        Returns the total watts moved (half the L1 distance from the
        previous assignment -- every watt gained by one row left
        another).
        """
        try:
            self.check(allocations)
        except LedgerError:
            self.stats.rejected += 1
            raise
        slack = self.facility_budget_watts * LEDGER_RTOL
        moved = 0.5 * sum(
            abs(float(allocations[name]) - self._rows[name].allocation_watts)
            for name in self.row_names
        )
        for name in self.row_names:
            self._rows[name].allocation_watts = float(allocations[name])
        self.stats.applies += 1
        if moved > slack:
            self.stats.reallocations += 1
            self.stats.watts_moved += moved
        return moved

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Plain-types snapshot for result objects and serialization."""
        return {
            "facility_budget_watts": self.facility_budget_watts,
            "frozen": self.frozen,
            "rows": [
                {
                    "name": row.name,
                    "rating_watts": row.rating_watts,
                    "static_watts": row.static_watts,
                    "floor_watts": row.floor_watts,
                    "allocation_watts": row.allocation_watts,
                }
                for row in self.rows()
            ],
            "stats": {
                "applies": self.stats.applies,
                "reallocations": self.stats.reallocations,
                "watts_moved": self.stats.watts_moved,
                "floor_scalings": self.stats.floor_scalings,
                "freezes": self.stats.freezes,
                "rejected": self.stats.rejected,
            },
        }

    def stats_snapshot(self) -> LedgerStats:
        return replace(self.stats)


__all__ = [
    "BudgetLedger",
    "LedgerError",
    "LedgerStats",
    "RowBudget",
    "LEDGER_RTOL",
]
