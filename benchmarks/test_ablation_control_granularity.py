"""Ablation: row-level vs rack-level power control (design choice 1).

Section 3.1's first design choice is to control at the row level rather
than the rack level: "there is a larger amount of unused power at the row
level than at the rack level" -- pooling across ~20 racks lets a hot rack
borrow its neighbours' head-room ("virtually consolidate unused power at
a larger scale").

The effect needs imbalance to show, so three of the ten racks carry
pinned services (hot racks) while batch load fills the rest. The same
total over-provisioned budget is then enforced either as one row-level
constraint or as ten per-rack constraints. Expected shape: the rack-level
controller must freeze heavily (only starving the hot racks of batch work
brings them under their own budgets, and it still takes violations while
draining), while the row-level controller barely acts because the row as
a whole has head-room.
"""

import numpy as np

from benchmarks.conftest import once, print_header
from repro.analysis.report import render_table
from repro.cluster.group import ServerGroup
from repro.core.config import AmpereConfig
from repro.core.controller import AmpereController
from repro.core.freeze_model import FreezeEffectModel
from repro.sim.testbed import Testbed, WorkloadSpec
from repro.workload.interactive import InteractiveService

R_O = 0.25
HOURS = 8.0
WARMUP = 3600.0
HOT_RACKS = 3


def run_granularity(level: str, seed: int = 2):
    testbed = Testbed(rows=(400,), seed=seed)
    end = WARMUP + HOURS * 3600.0

    # Pin services on every server of the first HOT_RACKS racks: those
    # racks run hot regardless of batch placement.
    for rack in testbed.row.racks[:HOT_RACKS]:
        for server in rack.servers:
            InteractiveService(server, testbed.engine, testbed.scheduler, cores=6.0)

    generator = testbed.add_batch_workload(WorkloadSpec.typical(), end)
    generator.start(end)

    if level == "row":
        groups = [ServerGroup("ctl-row", testbed.row.servers)]
    else:
        groups = [
            ServerGroup(f"ctl-rack-{rack.rack_id}", rack.servers)
            for rack in testbed.row.racks
        ]
    for group in groups:
        group.set_over_provision_ratio(R_O)
        testbed.monitor.register_group(group)

    controller = AmpereController(
        testbed.engine,
        testbed.scheduler,
        testbed.monitor,
        groups,
        config=AmpereConfig(),
        freeze_model=FreezeEffectModel(),
    )
    testbed.monitor.start(end, first_at=WARMUP)
    controller.start(end, first_at=WARMUP)
    testbed.engine.run(until=end)

    violations = sum(testbed.monitor.violation_count(g.name) for g in groups)
    u_means = [controller.state_of(g.name).u_mean for g in groups]
    return {
        "violations": violations,
        "u_mean": float(np.mean(u_means)),
        "u_max": float(np.max([controller.state_of(g.name).u_max for g in groups])),
        "throughput": testbed.scheduler.stats.placed,
        "groups": len(groups),
    }


def test_ablation_control_granularity(benchmark):
    results = once(
        benchmark, lambda: {level: run_granularity(level) for level in ("row", "rack")}
    )

    print_header(
        "Ablation: control granularity with 3 hot racks (same total budget)"
    )
    rows = [
        [level, str(r["groups"]), str(r["violations"]),
         f"{r['u_mean']:.1%}", f"{r['u_max']:.1%}", str(r["throughput"])]
        for level, r in results.items()
    ]
    print(render_table(
        ["level", "controlled groups", "violations", "u_mean", "u_max", "throughput"],
        rows,
    ))
    print(
        "\npaper's design choice 1: the row pools its racks' unused power, "
        "so one constraint over 400 servers needs far less freezing than "
        "ten constraints over 40"
    )

    row = results["row"]
    rack = results["rack"]
    # Rack-level control freezes much more to satisfy per-rack budgets...
    assert rack["u_mean"] > 2 * row["u_mean"] + 0.01
    # ...and accepts no more batch work for it.
    assert rack["throughput"] <= row["throughput"] * 1.02
