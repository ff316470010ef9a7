"""Write-ahead log of operator acts, and their one shared apply path.

Every mutating act the service accepts -- ``freeze``/``unfreeze``,
budget ``reallocate``, ``arm-faults`` -- flows through
:func:`apply_act`, both when a live request lands on the sim thread and
when the supervisor replays history during recovery. One code path
means replay cannot drift from live behaviour.

The log discipline (see :class:`ActWal`):

- A record is appended *after* its act applied successfully and *before*
  the HTTP 200 goes out (ack-after-durable). A crash between apply and
  append loses the act -- but the client never saw a success, so the
  recovered state is exactly what an unacknowledged request promises.
- Records carry the simulated time they executed at. Replay advances the
  restored experiment to each record's sim-time and re-applies; because
  ``engine.run(until=T)`` composes exactly (events strictly before ``T``
  fire, the clock lands on ``T``, events at ``T`` stay pending), the
  recovered trajectory is byte-identical to the uninterrupted one.
- Appends are single ``write``+``fsync`` lines
  (:func:`repro.durability.append_line_fsync`), so a torn write can
  damage at most the final line. :class:`ActWal` drops an unparseable
  tail on load (counted, never silent) and refuses corruption anywhere
  else.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from typing import List, Optional, Union

from repro.durability import append_line_fsync
from repro.faults.scenario import FaultScenario, builtin_scenarios
from repro.sim.staged import StagedRun

logger = logging.getLogger(__name__)

#: eventlog actor id for operator actions issued through the API (the
#: breaker is -1, the fleet coordinator -2)
OPERATOR_EVENT_ID = -3

#: acts the service logs and replays; anything else is rejected loudly
WAL_OPS = ("freeze", "unfreeze", "reallocate", "arm-faults")


class ActError(RuntimeError):
    """An act failed in an anticipated way (HTTP-ish status attached)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class WalError(RuntimeError):
    """The write-ahead log is corrupted beyond its repairable tail."""


class WalRecord:
    """One applied act: monotonic ``seq``, sim-time, op name, payload."""

    __slots__ = ("seq", "sim_time", "op", "payload")

    def __init__(self, seq: int, sim_time: float, op: str, payload: dict):
        self.seq = seq
        self.sim_time = sim_time
        self.op = op
        self.payload = payload

    def to_line(self) -> str:
        return json.dumps(
            {
                "seq": self.seq,
                "sim_time": self.sim_time,
                "op": self.op,
                "payload": self.payload,
            },
            sort_keys=True,
        )

    @classmethod
    def from_line(cls, line: str) -> "WalRecord":
        doc = json.loads(line)
        return cls(
            seq=int(doc["seq"]),
            sim_time=float(doc["sim_time"]),
            op=str(doc["op"]),
            payload=dict(doc["payload"]),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WalRecord(seq={self.seq}, sim_time={self.sim_time}, "
            f"op={self.op!r})"
        )


class ActWal:
    """Durable JSONL act log (or an in-memory one when ``path`` is None).

    Loading tolerates exactly the damage a crash can cause: a torn final
    line (no newline, or unparseable JSON) is dropped and counted in
    ``torn_tail_dropped``. Corruption anywhere *before* the tail -- or a
    non-monotonic ``seq`` -- raises :class:`WalError`, because appends
    never rewrite earlier bytes and such damage means the file is not
    our log.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self.path = Path(path) if path is not None else None
        self.records: List[WalRecord] = []
        self.torn_tail_dropped = 0
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        raw = self.path.read_bytes()
        if not raw:
            return
        lines = raw.split(b"\n")
        torn_tail = lines[-1] != b""  # no terminating newline
        body, tail = (lines[:-1], lines[-1]) if torn_tail else (lines[:-1], None)
        for index, line in enumerate(body):
            try:
                record = WalRecord.from_line(line.decode("utf-8"))
            except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
                if index == len(body) - 1 and tail is None:
                    # A complete-looking but unparseable final line: treat
                    # as the torn tail (fsync ordered, content was not).
                    self.torn_tail_dropped += 1
                    logger.warning(
                        "WAL %s: dropped unparseable final record", self.path
                    )
                    break
                raise WalError(
                    f"WAL {self.path}: corrupt record at line {index + 1}: "
                    f"{exc}"
                ) from exc
            if record.seq != self.last_seq + 1:
                raise WalError(
                    f"WAL {self.path}: seq {record.seq} after "
                    f"{self.last_seq} (expected {self.last_seq + 1})"
                )
            self.records.append(record)
        if torn_tail:
            self.torn_tail_dropped += 1
            logger.warning(
                "WAL %s: dropped torn final line (%d bytes, no newline)",
                self.path,
                len(tail),
            )

    @property
    def last_seq(self) -> int:
        return self.records[-1].seq if self.records else 0

    def append(self, op: str, payload: dict, sim_time: float) -> WalRecord:
        """Durably log one applied act; returns the record."""
        if op not in WAL_OPS:
            raise WalError(f"op {op!r} is not WAL-able (one of {WAL_OPS})")
        record = WalRecord(self.last_seq + 1, float(sim_time), op, payload)
        if self.path is not None:
            append_line_fsync(self.path, record.to_line())
        self.records.append(record)
        return record

    def records_after(self, seq: int) -> List[WalRecord]:
        return [record for record in self.records if record.seq > seq]


# ----------------------------------------------------------------------
# The one apply path (live requests and replay both land here)
# ----------------------------------------------------------------------
def apply_act(run: StagedRun, op: str, payload: dict) -> dict:
    """Execute one act against the live run; sim thread only.

    Deterministic given (run state, op, payload): replaying the same
    records against the same restored state reproduces the same
    mutations, which is what makes the WAL a recovery log rather than an
    audit trail.

    A freeze or thaw of a group that a controller steers is not a hold:
    the controller plans each tick from the scheduler's frozen set and
    commands its own plan, so the operator's set lasts until that
    controller's next tick, at most one control interval while it ticks.
    Such acts are accepted, not refused.
    """
    if op == "freeze":
        return _set_group_frozen(run, payload, frozen=True)
    if op == "unfreeze":
        return _set_group_frozen(run, payload, frozen=False)
    if op == "reallocate":
        return _reallocate(run, payload)
    if op == "arm-faults":
        return _arm_faults(run, payload)
    raise ActError(400, f"unknown act {op!r}")


def _set_group_frozen(
    run: StagedRun, payload: dict, frozen: bool
) -> dict:
    name = payload.get("group")
    if not isinstance(name, str) or not name:
        raise ActError(400, "freeze/unfreeze needs a 'group' name")
    groups = run.groups()
    if name not in groups:
        raise ActError(404, f"unknown group {name!r}")
    # one scheduler call for the whole group (a thaw drains the queues once)
    changed = run.scheduler_for(name).set_frozen(groups[name].state_indices, frozen)
    return {
        "group": name,
        "action": "freeze" if frozen else "unfreeze",
        "servers_changed": len(changed),
        "sim_now": run.engine.now,
    }


def _reallocate(run: StagedRun, payload: dict) -> dict:
    from repro.fleet.ledger import LedgerError

    allocations = payload.get("allocations")
    if not isinstance(allocations, dict) or not allocations:
        raise ActError(400, "allocations must be a non-empty object")
    try:
        requested = {
            str(name): float(watts) for name, watts in allocations.items()
        }
    except (TypeError, ValueError) as exc:
        raise ActError(
            400, f"allocations must map row names to watts: {exc}"
        ) from exc

    ledger = run.ledger
    if ledger is None:
        raise ActError(409, "no budget ledger: this is a single-row run")
    merged = ledger.allocations()
    unknown = sorted(set(requested) - set(merged))
    if unknown:
        raise ActError(404, f"unknown rows: {unknown}")
    previous = dict(merged)
    merged.update(requested)
    # check() first: a refused act is never logged, so it must leave no
    # trace in run state (not even the ledger's rejected count), or a
    # recovered run would differ from the uninterrupted one.
    try:
        ledger.check(merged)
    except LedgerError as exc:
        raise ActError(422, f"ledger rejected: {exc}") from exc
    moved = ledger.apply(merged)
    controllers = run.controllers()
    changed = []
    for row_name, watts in merged.items():
        if watts == previous[row_name]:
            continue
        controller = controllers.get(row_name)
        if controller is not None:
            controller.update_budget(row_name, watts)
        else:
            run.groups()[row_name].power_budget_watts = watts
        changed.append(f"{row_name}:{previous[row_name]:.0f}->{watts:.0f}")
    run.event_log.record(
        "budget",
        OPERATOR_EVENT_ID,
        f"operator moved={moved:.0f}W " + " ".join(changed),
    )
    return {
        "moved_watts": moved,
        "changed": changed,
        "allocations": merged,
        "sim_now": run.engine.now,
    }


def _arm_faults(run: StagedRun, payload: dict) -> dict:
    scenario = payload.get("scenario")
    spec = payload.get("spec")
    if (scenario is None) == (spec is None):
        raise ActError(
            400, "provide exactly one of 'scenario' (name) or 'spec'"
        )
    if scenario is not None:
        registry = builtin_scenarios()
        if scenario not in registry:
            raise ActError(
                404,
                f"unknown scenario {scenario!r}; known: {sorted(registry)}",
            )
        built = registry[scenario]
    else:
        try:
            built = FaultScenario(**spec)
        except (TypeError, ValueError) as exc:
            raise ActError(400, f"invalid scenario spec: {exc}") from exc
    return run.arm_faults(built)


class WalReplayError(RuntimeError):
    """Replay diverged: a logged act failed against the restored state."""


def replay(run: StagedRun, records: List[WalRecord]) -> int:
    """Re-apply ``records`` in order, advancing to each act's sim-time.

    The run must be restored to a state at or before the first
    record's sim-time (the checkpoint the records were logged after).
    Returns the number of acts re-applied.
    """
    applied = 0
    for record in records:
        now = run.engine.now
        if record.sim_time < now:
            raise WalReplayError(
                f"WAL seq {record.seq} at t={record.sim_time:.1f}s is "
                f"behind the restored state (t={now:.1f}s); checkpoint "
                "and log disagree"
            )
        if record.sim_time > now:
            run.advance(record.sim_time)
        try:
            apply_act(run, record.op, record.payload)
        except ActError as exc:
            raise WalReplayError(
                f"WAL seq {record.seq} ({record.op}) failed on replay: "
                f"{exc.message}"
            ) from exc
        applied += 1
    return applied


__all__ = [
    "ActError",
    "ActWal",
    "OPERATOR_EVENT_ID",
    "WAL_OPS",
    "WalError",
    "WalRecord",
    "WalReplayError",
    "apply_act",
    "replay",
]
