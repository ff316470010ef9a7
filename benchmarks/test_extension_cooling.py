"""Extension (paper Section 6 future work): workload-sensitive cooling.

Not a figure in the paper -- its second future-work item. The cooling
controller follows Ampere's statistical pattern (per-minute aggregated
row power + conservative margin + minimal actuation interface) and is
compared against the standard static worst-case cooling configuration.
Expected shape: large cooling-energy savings at zero thermal violations.
"""

import numpy as np

from benchmarks.conftest import once, print_header
from repro.analysis.report import render_table
from repro.cooling.controller import CoolingController, StaticWorstCaseCooling
from repro.cooling.thermal import CoolingUnit
from repro.sim.testbed import Testbed, WorkloadSpec


def run_mode(mode: str, hours: float = 8.0, seed: int = 4):
    testbed = Testbed(rows=(400,), seed=seed)
    row = testbed.row
    testbed.monitor.register_group(row)
    unit = CoolingUnit()
    horizon = hours * 3600.0
    generator = testbed.add_batch_workload(WorkloadSpec.typical(), horizon)
    generator.start(horizon)
    testbed.monitor.start(horizon)
    if mode == "adaptive":
        controller = CoolingController(testbed.engine, testbed.monitor, row, unit)
    else:
        controller = StaticWorstCaseCooling(testbed.engine, row, unit)
    controller.start(horizon)
    testbed.engine.run(until=horizon)
    it_energy = float(
        np.trapezoid(
            testbed.monitor.power_series(row.name)[1],
            testbed.monitor.power_series(row.name)[0],
        )
    )
    return unit, it_energy


def test_extension_cooling(benchmark):
    results = once(
        benchmark, lambda: {m: run_mode(m) for m in ("static", "adaptive")}
    )

    print_header("Extension: workload-sensitive cooling vs static worst-case")
    rows = []
    for mode, (unit, it_energy) in results.items():
        overhead = unit.cooling_energy_joules / it_energy if it_energy else float("nan")
        rows.append(
            [
                mode,
                f"{unit.cooling_energy_joules / 3.6e6:.1f}",
                f"{overhead:.2%}",
                str(unit.thermal_violations),
            ]
        )
    print(render_table(
        ["mode", "cooling energy (kWh)", "overhead vs IT energy", "thermal violations"],
        rows,
    ))
    static_unit, _ = results["static"]
    adaptive_unit, _ = results["adaptive"]
    saving = 1.0 - adaptive_unit.cooling_energy_joules / static_unit.cooling_energy_joules
    print(f"\ncooling energy saved by workload-sensitive control: {saving:.1%}")

    assert adaptive_unit.thermal_violations == 0
    assert static_unit.thermal_violations == 0
    assert saving > 0.2
