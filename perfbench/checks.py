"""Output checks and exact simulated counts for one finished run.

Both take the program's own service adapter (``harness_for``), which
gives one shape over the single-row and the fleet experiment.

The checks are invariants that hold for every seed on correct code --
never guessed model ranges (those live in the paper-figure tests):

- the clock reached the horizon;
- job conservation from ``SchedulerStats`` on every scheduler:
  submitted = placed + queued, and
  placed = completed + running + killed + shed + preempted;
- a full, unsampled ``build_auditor().audit()`` finds no violation.

The counts are exact simulated statistics. They are reported, never
gated: a change meant only to speed the simulator up must leave every
one of them, and their digest, identical.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List


def schedulers(harness) -> list:
    """Every distinct scheduler of the run (groups may share one)."""
    unique = {}
    for name in harness.groups():
        scheduler = harness.scheduler_for(name)
        unique[id(scheduler)] = scheduler
    return list(unique.values())


def jobs_placed(harness) -> int:
    return sum(s.stats.placed for s in schedulers(harness))


def n_servers(harness) -> int:
    return sum(len(group.servers) for group in harness.groups().values())


def scheduled_events(engine) -> int:
    """Events ever pushed on the heap (the engine's sequence counter)."""
    text = repr(engine._sequence)  # "count(N)"; reading it consumes nothing
    return int(text[text.index("(") + 1 : -1])


def simulated_counts(harness) -> Dict[str, int]:
    """Exact counts of what the simulation did."""
    stats = [s.stats for s in schedulers(harness)]
    states = [st for c in harness.controllers().values() for st in c.states.values()]
    counts = {
        "events": harness.engine.events_processed,
        "events_scheduled": scheduled_events(harness.engine),
        "jobs_submitted": sum(s.submitted for s in stats),
        "jobs_placed": sum(s.placed for s in stats),
        "jobs_completed": sum(s.completed for s in stats),
        "jobs_killed": sum(s.jobs_killed for s in stats),
        "jobs_shed": sum(s.jobs_shed for s in stats),
        "controller_freezes": sum(st.freeze_actions for st in states),
        "controller_unfreezes": sum(st.unfreeze_actions for st in states),
        "breaker_trips": sum(b.stats.trips for b in harness.breakers().values()),
        "ladder_escalations": sum(s.stats.escalations for s in harness.supervisors().values()),
        "control_events": len(harness.event_log.events),
    }
    coordinator = getattr(harness.experiment, "coordinator", None)
    if coordinator is not None:
        counts["coordinator_reallocations"] = coordinator.stats.reallocations
    if harness.auditor is not None:
        counts["auditor_passes"] = harness.auditor.stats.passes
    return counts


def digest(counts: Dict[str, int]) -> str:
    """Short stable hash over the counts (equal counts <=> equal digest)."""
    text = json.dumps(counts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def check_run(harness) -> List[str]:
    """Invariant failures of a finished run (empty list = all hold)."""
    from repro.sim.audit import AuditorConfig

    failures: List[str] = []
    now = harness.engine.now
    if abs(now - harness.end_seconds) > 1e-6:
        failures.append(f"clock stopped at t={now} before horizon {harness.end_seconds}")
    for index, scheduler in enumerate(schedulers(harness)):
        stats = scheduler.stats
        queued = scheduler.queued_jobs
        if stats.submitted != stats.placed + queued:
            failures.append(
                f"scheduler {index}: submitted {stats.submitted} != "
                f"placed {stats.placed} + queued {queued}"
            )
        running = sum(
            1
            for server in scheduler.tracker.servers
            for job in server.tasks.values()
            if job.remaining_work != float("inf")
        )
        ended = (
            stats.completed + running + stats.jobs_killed + stats.jobs_shed
            + stats.jobs_preempted
        )
        if stats.placed != ended:
            failures.append(
                f"scheduler {index}: placed {stats.placed} != completed "
                f"{stats.completed} + running {running} + killed "
                f"{stats.jobs_killed} + shed {stats.jobs_shed} + preempted "
                f"{stats.jobs_preempted}"
            )
    auditor = harness.build_auditor(AuditorConfig(sample_fraction=1.0, on_violation="record"))
    violations = auditor.audit(sample=False)
    failures.extend(f"audit: {v}" for v in violations[:5])
    if harness.auditor is not None and harness.auditor.stats.violations:
        failures.append(f"online auditor recorded {harness.auditor.stats.violations} violation(s)")
    return failures
