"""Command-line interface for the Ampere reproduction.

Exposes the main experiment harnesses without writing Python::

    ampere-repro experiment --workload heavy --hours 24 --ro 0.25
    ampere-repro run --faults chaos --hours 2 --capping
    ampere-repro sweep --hours 12
    ampere-repro calibrate --hours 12
    ampere-repro interactive --hours 2
    ampere-repro trace --days 1
    ampere-repro fleet --hours 6 --policies static demand-following
    ampere-repro campaign --fleet-policy demand-following --hours 6
    ampere-repro tenancy-ab --tenants critical-batch --hours 3
    ampere-repro campaign --checkpoint-dir ck/ --resume
    ampere-repro metrics --hours 2 --json snapshot.json
    ampere-repro spans --hours 2
    ampere-repro verify-snapshot run.snap

(``run`` is an alias of ``experiment``; ``--faults`` injects one of the
named fault scenarios from :mod:`repro.faults` -- control-plane and
data-plane alike -- and ``--safety`` arms the breaker-trip physics plus
the defense-in-depth emergency ladder of :mod:`repro.core.safety`.
``fleet`` runs the
multi-row facility A/B of :mod:`repro.sim.fleet_experiment` -- the same
seeded fleet under each budget-reallocation policy -- and ``campaign
--fleet-policy`` runs every campaign cell on the two-row fleet harness.
``tenancy-ab``
runs the same seeded multi-tenant cell under the ``blind`` and ``fair``
freeze policies and reports the per-tenant fairness delta; ``--tenants``
on ``experiment``/``fleet``/``campaign``/``serve`` tags the run with one
of the builtin tenant mixes of :mod:`repro.tenancy`.
``metrics``
and ``spans`` run a telemetry-enabled experiment and expose the
:mod:`repro.telemetry` registry and control-loop span traces; the global
``--log-level`` flag turns on the package's stdlib logging.)

Every command prints the same style of tables the paper reports. A run
or option the program refuses (a bad size, a fault scenario no seam of
the run receives, a negative retry count, ...) ends in one ``error:``
line on stderr and exit status 2; ``--log-level debug`` also logs the
traceback.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from typing import List, Optional

from repro.analysis.report import format_percent, render_table
from repro.durability.atomic import atomic_write_text
from repro.sim.audit import ALL_CHECKS as AUDIT_CHECKS
from repro.faults.scenario import builtin_scenarios
from repro.fleet.config import POLICY_NAMES
from repro.sim.experiment import (
    ControlledExperiment,
    ExperimentConfig,
    ExperimentResult,
    run_tenancy_ab,
)
from repro.sim.testbed import WorkloadSpec
from repro.telemetry import configure_logging
from repro.tenancy import TENANCY_POLICIES, TenancyConfig, builtin_mixes

# Named, not __name__: under ``python -m repro.cli`` the module is
# __main__, outside the ``repro`` hierarchy that --log-level configures.
logger = logging.getLogger("repro.cli")

LOG_LEVELS = ("debug", "info", "warning", "error", "critical")

WORKLOADS = {
    "light": WorkloadSpec.light,
    "typical": WorkloadSpec.typical,
    "heavy": WorkloadSpec.heavy,
}

SCENARIOS = builtin_scenarios()

MIXES = builtin_mixes()


def _add_run_options(
    parser: argparse.ArgumentParser,
    *,
    hours: float,
    seed: int = 0,
    servers: Optional[str] = "fleet size (multiple of 40)",
    warmup_hours: Optional[float] = None,
    ro: bool = False,
    workload: Optional[str] = None,
    faults: bool = False,
    safety: bool = False,
    capping: bool = False,
    tenants: bool = False,
) -> None:
    """The run-shaping options shared by the subcommands.

    ``hours``, ``seed``, ``warmup_hours`` and ``workload`` are the
    subcommand's defaults (``None`` leaves the option out); the flags
    add ``--servers`` (with ``servers`` as its help; ``None`` leaves it
    out), ``--ro``, ``--faults``, ``--safety``, ``--capping`` and the
    tenancy options. :func:`_run_fields` turns the parsed values into
    config fields.
    """
    parser.add_argument("--seed", type=int, default=seed, help="master RNG seed")
    if servers:
        parser.add_argument("--servers", type=int, default=400, help=servers)
    parser.add_argument("--hours", type=float, default=hours)
    if warmup_hours is not None:
        parser.add_argument(
            "--warmup-hours",
            type=float,
            default=warmup_hours,
            help="warm-up before monitoring/control begin",
        )
    if ro:
        parser.add_argument(
            "--ro", type=float, default=0.25, help="over-provision ratio"
        )
    if workload is not None:
        parser.add_argument(
            "--workload", choices=sorted(WORKLOADS), default=workload
        )
    if faults:
        parser.add_argument(
            "--faults",
            choices=sorted(SCENARIOS),
            default=None,
            help="inject a named fault scenario (repro.faults)",
        )
    if safety:
        parser.add_argument(
            "--safety",
            action="store_true",
            help="arm the breaker model and the emergency safety ladder "
            "(repro.core.safety)",
        )
    if capping:
        parser.add_argument(
            "--capping", action="store_true", help="enable the DVFS capping safety net"
        )
    if tenants:
        parser.add_argument(
            "--tenants",
            choices=sorted(MIXES),
            default=None,
            metavar="MIX",
            help="tag the run with a builtin tenant mix "
            f"({', '.join(sorted(MIXES))}; default: untenanted)",
        )
        parser.add_argument(
            "--tenancy-policy",
            choices=TENANCY_POLICIES,
            default=None,
            help="freeze-fairness policy for the tenant mix "
            "(default: the mix's own, 'fair')",
        )


def _run_fields(args: argparse.Namespace, *names: str) -> dict:
    """Config fields set by the shared run options present on ``args``.

    Field names are those of :class:`ExperimentConfig` (and, where they
    exist there, of the fleet and campaign configs); ``names`` keeps
    only those fields.
    """
    from repro.core.safety import SafetyConfig

    present = vars(args)
    fields = {"seed": args.seed, "duration_hours": args.hours}
    if "servers" in present:
        fields["n_servers"] = args.servers
    if "warmup_hours" in present:
        fields["warmup_hours"] = args.warmup_hours
    if "ro" in present:
        fields["over_provision_ratio"] = args.ro
    if "workload" in present:
        fields["workload"] = WORKLOADS[args.workload]()
    if "faults" in present:
        fields["faults"] = SCENARIOS[args.faults] if args.faults else None
    if "safety" in present:
        fields["safety"] = SafetyConfig() if args.safety else None
    if "capping" in present:
        fields["capping_enabled"] = args.capping
    if "tenants" in present:
        fields["tenancy"] = _tenancy_config(args)
    if names:
        fields = {name: fields[name] for name in names}
    return fields


def _tenancy_config(args: argparse.Namespace) -> Optional[TenancyConfig]:
    """The TenancyConfig implied by --tenants/--tenancy-policy (or None)."""
    if getattr(args, "tenants", None) is None:
        if getattr(args, "tenancy_policy", None) is not None:
            raise ValueError("--tenancy-policy requires --tenants")
        return None
    config = MIXES[args.tenants]
    policy = getattr(args, "tenancy_policy", None)
    if policy is not None and policy != config.policy:
        config = replace(config, policy=policy)
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ampere-repro",
        description="Reproduction of Ampere (EuroSys 2016): statistical power control",
    )
    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default=None,
        metavar="LEVEL",
        help="enable stdlib logging for the repro package "
        f"({', '.join(LOG_LEVELS)}; default: logging stays silent)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    experiment = sub.add_parser(
        "experiment",
        aliases=["run"],
        help="run one controlled A/B experiment (Section 4.2)",
    )
    _add_run_options(
        experiment, hours=24.0, ro=True, workload="heavy",
        faults=True, safety=True, capping=True, tenants=True,
    )
    experiment.add_argument(
        "--no-ampere", action="store_true", help="disable the controller"
    )
    experiment.add_argument(
        "--scale-experiment-only",
        action="store_true",
        help="Section 4.4 mode: control group keeps the rated budget",
    )
    experiment.add_argument(
        "--save-snapshot",
        type=str,
        default=None,
        metavar="PATH",
        help="write a durable snapshot of the finished simulation state "
        "to PATH (verify it later with 'verify-snapshot')",
    )

    sweep = sub.add_parser("sweep", help="G_TPW sweep over r_O (Table 3 / Section 4.4)")
    _add_run_options(sweep, hours=12.0, workload="typical")
    sweep.add_argument(
        "--ratios", type=float, nargs="+", default=[0.13, 0.17, 0.21, 0.25]
    )

    calibrate = sub.add_parser(
        "calibrate", help="measure f(u) and fit k_r (Section 3.4 / Figure 5)"
    )
    _add_run_options(calibrate, hours=12.0)

    interactive = sub.add_parser(
        "interactive", help="capping vs Ampere tail latency (Figure 11)"
    )
    _add_run_options(interactive, hours=2.0)

    trace = sub.add_parser(
        "trace", help="multi-row power characterization (Section 2.2)"
    )
    trace.add_argument("--seed", type=int, default=9)
    trace.add_argument("--days", type=float, default=1.0)
    trace.add_argument("--rows", type=int, default=5)

    advise = sub.add_parser(
        "advise", help="recommend r_O from a simulated power history (Section 4.4)"
    )
    _add_run_options(advise, hours=12.0, workload="typical")
    advise.add_argument(
        "--ratios", type=float, nargs="+", default=[0.13, 0.17, 0.21, 0.25]
    )

    campaign = sub.add_parser(
        "campaign", help="run a grid of Section 4.4 cells (the Table 3 study)"
    )
    _add_run_options(
        campaign,
        hours=12.0,
        servers="fleet size (multiple of 40; of 80 with --fleet-policy, "
        "which splits it over two rows)",
        faults=True,
        safety=True,
        tenants=True,
    )
    campaign.add_argument(
        "--ratios", type=float, nargs="+", default=[0.13, 0.17, 0.21, 0.25]
    )
    campaign.add_argument("--seeds", type=int, nargs="+", default=[13])
    campaign.add_argument("--csv", type=str, default=None, help="write rows to CSV")
    campaign.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="run cells on a process pool of N workers (results are "
        "bit-identical to the serial run)",
    )
    campaign.add_argument(
        "--parallel",
        action="store_true",
        help="shorthand for --workers <cpu count>",
    )
    campaign.add_argument(
        "--fleet-policy",
        choices=POLICY_NAMES,
        default=None,
        metavar="POLICY",
        help="run every cell on the two-row fleet harness under this "
        f"budget-reallocation policy ({', '.join(POLICY_NAMES)})",
    )
    campaign.add_argument(
        "--fleet-skew",
        type=float,
        default=0.25,
        metavar="FRACTION",
        help="cold-row intensity as a fraction of the cell workload "
        "(fleet cells only)",
    )
    campaign.add_argument(
        "--checkpoint-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="durably record every finished cell in DIR (atomic writes); "
        "a killed campaign can then be continued with --resume",
    )
    campaign.add_argument(
        "--resume",
        action="store_true",
        help="continue a checkpointed campaign: cells already recorded "
        "in --checkpoint-dir are restored instead of re-run",
    )
    campaign.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="parallel runs only: re-dispatch a cell whose worker has "
        "been silent for this long (straggler speculation)",
    )
    campaign.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="parallel runs only: resubmit a failing cell N times "
        "before quarantining it as a failed row (default 1)",
    )

    verify = sub.add_parser(
        "verify-snapshot",
        help="restore a durable snapshot and run the full state-invariant "
        "audit suite against it (repro.sim.audit)",
    )
    verify.add_argument("path", help="snapshot file written by --save-snapshot")
    verify.add_argument(
        "--checks",
        nargs="+",
        choices=AUDIT_CHECKS,
        default=None,
        metavar="CHECK",
        help=f"restrict to specific checks ({', '.join(AUDIT_CHECKS)}; "
        "default: all)",
    )

    fleet = sub.add_parser(
        "fleet",
        help="multi-row facility A/B: static split vs dynamic "
        "budget reallocation (repro.fleet)",
    )
    _add_run_options(
        fleet, hours=6.0, seed=7, servers=None, ro=True, tenants=True
    )
    fleet.add_argument(
        "--servers-per-row",
        type=int,
        default=80,
        help="row size (multiple of 40); the fleet has one hot and one cold row",
    )
    fleet.add_argument(
        "--policies",
        nargs="+",
        choices=POLICY_NAMES,
        default=["static", "demand-following"],
        help="reallocation policies to A/B against each other",
    )
    fleet.add_argument(
        "--hot-util",
        type=float,
        default=0.40,
        help="target utilization of the hot row",
    )
    fleet.add_argument(
        "--cold-util",
        type=float,
        default=0.06,
        help="target utilization of the cold (donor) row",
    )
    fleet.add_argument(
        "--json",
        type=str,
        default=None,
        metavar="PATH",
        help="write the per-policy result documents to PATH",
    )

    tenancy_ab = sub.add_parser(
        "tenancy-ab",
        help="seeded A/B of the blind vs fair freeze policies on one "
        "tenant mix (repro.tenancy)",
    )
    _add_run_options(
        tenancy_ab, hours=3.0, warmup_hours=0.5, ro=True, workload="heavy"
    )
    tenancy_ab.add_argument(
        "--tenants",
        choices=sorted(MIXES),
        default="critical-batch",
        metavar="MIX",
        help=f"tenant mix to A/B on ({', '.join(sorted(MIXES))})",
    )

    metrics = sub.add_parser(
        "metrics",
        help="run a telemetry-enabled experiment and print its metrics "
        "(Prometheus text format)",
    )
    _add_run_options(metrics, hours=2.0, ro=True, workload="heavy", faults=True)
    metrics.add_argument(
        "--json",
        type=str,
        default=None,
        metavar="PATH",
        help="also write the JSON snapshot to PATH",
    )
    metrics.add_argument(
        "--prom",
        type=str,
        default=None,
        metavar="PATH",
        help="also write the Prometheus exposition to PATH",
    )

    spans = sub.add_parser(
        "spans",
        help="run a telemetry-enabled experiment and summarize its "
        "control-loop span traces",
    )
    _add_run_options(spans, hours=2.0, ro=True, workload="heavy", faults=True)
    spans.add_argument(
        "--name",
        type=str,
        default=None,
        help="restrict to one span name (e.g. controller.tick)",
    )
    spans.add_argument(
        "--last",
        type=int,
        default=0,
        metavar="N",
        help="also print the last N raw span records",
    )

    serve = sub.add_parser(
        "serve",
        help="run one experiment as a live service: REST API, SSE event "
        "stream and HTML dashboard (repro.service)",
    )
    _add_run_options(
        serve, hours=2.0, warmup_hours=0.5, ro=True, workload="heavy",
        faults=True, safety=True, capping=True, tenants=True,
    )
    serve.add_argument(
        "--audit",
        action="store_true",
        help="arm the online invariant auditor on the live run",
    )
    serve.add_argument(
        "--no-telemetry",
        action="store_true",
        help="disable the metrics registry (empties /metrics; required "
        "for byte-identity with the telemetry-free batch goldens)",
    )
    serve.add_argument(
        "--fleet",
        action="store_true",
        help="serve a two-row fleet experiment (budget ledger + "
        "coordinator) instead of the single-row A/B",
    )
    serve.add_argument(
        "--fleet-policy",
        choices=POLICY_NAMES,
        default="demand-following",
        help="reallocation policy of the served fleet run",
    )
    serve.add_argument(
        "--golden",
        action="store_true",
        help="serve exactly the pinned golden-regression configuration "
        "(80 servers, 2 h, seed 42, telemetry off); a --step-mode run "
        "driven to the horizon matches tests/golden byte for byte",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8321,
        help="listen port (0 picks an ephemeral port and prints it)",
    )
    serve.add_argument(
        "--step-mode",
        action="store_true",
        help="no wall-clock pacing: simulated time moves only on "
        "POST /api/step (byte-identical to a batch run)",
    )
    serve.add_argument(
        "--speedup",
        type=float,
        default=60.0,
        metavar="N",
        help="simulated seconds per wall second (1 = real time); "
        "ignored with --step-mode",
    )
    serve.add_argument(
        "--final-snapshot",
        type=str,
        default=None,
        metavar="PATH",
        help="write a durable snapshot on SIGTERM/SIGINT before exiting "
        "(verify it later with 'verify-snapshot')",
    )
    serve.add_argument(
        "--state-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="durable service state: verified auto-snapshots, rotation "
        "manifest and the act write-ahead log live here; a killed serve "
        "process can then be continued with 'serve --resume'",
    )
    serve.add_argument(
        "--auto-snapshot-every",
        type=float,
        default=10.0,
        metavar="SIM_MINUTES",
        help="sim-minutes between auditor-verified auto-snapshots "
        "(0 disables them; recovery then only has the genesis frame)",
    )
    serve.add_argument(
        "--auto-snapshot-min-wall",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="wall-clock floor between auto-snapshot offers (checkpoints "
        "bound wall-time recovery loss, so a step-mode run racing "
        "through simulated time is not charged one frame encode per "
        "sim-cadence tick; 0 disables the throttle)",
    )
    serve.add_argument(
        "--serve-resume",
        "--resume",
        dest="serve_resume",
        action="store_true",
        help="resume from --state-dir (newest verified snapshot + WAL "
        "replay); experiment-building flags are ignored",
    )
    return parser


def _print_facility_line(result: ExperimentResult) -> None:
    """Facility-level roll-up of one run (absolute watts)."""
    facility = result.facility
    if facility is None:
        return
    print(
        f"facility: budget={facility.budget_watts:.0f} W  "
        f"P_mean={facility.p_mean_watts:.0f} W  "
        f"P_max={facility.p_max_watts:.0f} W  "
        f"violations={facility.violations}"
    )


def _print_fault_report(result: ExperimentResult) -> None:
    """Fault-injection and controller-health summary of one run."""
    stats = result.fault_stats
    if stats is None:
        return
    print(f"\nfault injection ({stats.scenario}):")
    print(
        f"  blackouts={stats.blackouts_injected}  "
        f"suppressed samples={stats.samples_suppressed}  "
        f"rpc calls={stats.rpc_calls}  rpc failures={stats.rpc_failures}  "
        f"crashes={stats.crashes_injected}"
    )
    if (
        stats.surge_windows
        or stats.sensor_bias_windows
        or stats.server_failures
    ):
        print(
            f"  data plane: surges={stats.surge_windows}  "
            f"sensor bias windows={stats.sensor_bias_windows}  "
            f"server failures={stats.server_failures}  "
            f"repairs={stats.server_repairs}  "
            f"jobs killed={stats.jobs_killed_by_failures}"
        )
    health = result.controller_health
    if health is not None:
        s = health.summary()
        print(
            "  controller: "
            f"degraded ticks={s['degraded_ticks']}  "
            f"skipped ticks={s['skipped_ticks']}  "
            f"rpc retries={s['rpc_retries']}  "
            f"rpc giveups={s['rpc_giveups']}  "
            f"reconciliations={s['reconciliations']} "
            f"({s['reconciliation_diff_total']} servers)  "
            f"recoveries={s['recoveries']}"
        )


def _print_safety_report(result: ExperimentResult) -> None:
    """Breaker and emergency-ladder summary of one run (if armed)."""
    breaker = result.breaker_stats
    if breaker is not None:
        print(
            f"\nbreaker: trips={breaker.trips}  resets={breaker.resets}  "
            f"jobs killed={breaker.jobs_killed}  "
            f"servers de-energized={breaker.servers_deenergized}  "
            f"peak thermal={breaker.max_thermal_fraction:.0%}"
        )
    safety = result.safety_stats
    if safety is not None:
        print(
            f"safety ladder: escalations={safety.escalations}  "
            f"de-escalations={safety.deescalations}  "
            f"freezes={safety.freezes_issued}  slams={safety.slams}  "
            f"jobs shed={safety.jobs_shed}"
        )


def _print_tenancy_report(stats) -> None:
    """Per-tenant fairness summary of one run (if tenanted)."""
    if stats is None:
        return
    print(
        f"\ntenancy ({stats.policy}): "
        f"Jain fairness index = {stats.jain_index:.4f}"
    )
    rows = [
        [
            tenant.name,
            tenant.sla,
            f"{tenant.share:.2f}",
            str(tenant.n_servers),
            f"{tenant.frozen_server_minutes:.0f}",
            f"{tenant.normalized_frozen:.0f}",
            str(tenant.freeze_events),
            str(tenant.shed_events),
        ]
        for tenant in stats.tenants
    ]
    print(
        render_table(
            ["tenant", "sla", "share", "servers", "frozen (srv-min)",
             "normalized", "freezes", "shed"],
            rows,
        )
    )


# ---------------------------------------------------------------------------
def cmd_experiment(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        **_run_fields(args),
        ampere_enabled=not args.no_ampere,
        scale_control_budget=not args.scale_experiment_only,
    )
    experiment = ControlledExperiment(config)
    result = experiment.run()
    print(
        render_table(
            ["group", "u_mean", "u_max", "P_mean", "P_max", "violations"],
            [result.experiment.summary.as_row(), result.control.summary.as_row()],
        )
    )
    print(f"\nr_T = {result.r_t:.3f}   G_TPW = {format_percent(result.g_tpw)}")
    _print_facility_line(result)
    _print_fault_report(result)
    _print_safety_report(result)
    _print_tenancy_report(result.tenancy)
    if args.save_snapshot:
        experiment.save_snapshot(args.save_snapshot)
        print(f"snapshot written to {args.save_snapshot}", file=sys.stderr)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    rows = []
    for r_o in args.ratios:
        config = ExperimentConfig(
            **_run_fields(args),
            over_provision_ratio=r_o,
            scale_control_budget=False,
        )
        result = ControlledExperiment(config).run()
        summary = result.experiment.summary
        rows.append(
            [
                f"{r_o:.2f}",
                f"{summary.p_mean:.3f}",
                format_percent(summary.u_mean),
                f"{result.r_t:.3f}",
                format_percent(result.g_tpw),
                str(summary.violations),
            ]
        )
    print(render_table(["r_O", "P_mean", "u_mean", "r_T", "G_TPW", "violations"], rows))
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.sim.calibration import run_freeze_effect_calibration

    result = run_freeze_effect_calibration(
        hours=args.hours, n_servers=args.servers, seed=args.seed
    )
    summary = result.model.binned_percentiles(bin_width=0.1)
    rows = [
        [f"{c:.2f}", f"{p[25.0]:+.4f}", f"{p[50.0]:+.4f}", f"{p[75.0]:+.4f}"]
        for c, p in summary.items()
    ]
    print(render_table(["u", "p25", "median", "p75"], rows))
    print(f"\nk_r = {result.k_r:.4f}")
    return 0


def cmd_interactive(args: argparse.Namespace) -> int:
    from repro.sim.interactive_experiment import (
        InteractiveExperimentConfig,
        run_interactive_comparison,
    )

    config = InteractiveExperimentConfig(**_run_fields(args), warmup_hours=0.5)
    results = run_interactive_comparison(config)
    rows = []
    for op in results["capping"].reports:
        c = results["capping"].reports[op].p999 * 1e6
        a = results["ampere"].reports[op].p999 * 1e6
        rows.append([op, f"{c:.0f}", f"{a:.0f}", f"{c / a:.2f}x"])
    print(render_table(["operation", "capping p99.9 (us)", "ampere p99.9 (us)", "ratio"], rows))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.workload.traces import MultiRowTraceConfig, run_multi_row_trace

    trace = run_multi_row_trace(
        MultiRowTraceConfig(n_rows=args.rows, days=args.days, seed=args.seed)
    )
    rows = []
    for level in ("rack", "row", "datacenter"):
        samples = trace.pooled_utilization_samples(level)
        rows.append([level, f"{samples.mean():.3f}", f"{samples.std():.4f}"])
    print(render_table(["level", "mean utilization", "std"], rows))
    return 0


def cmd_advise(args: argparse.Namespace) -> int:
    from repro.core.advisor import recommend_over_provision_ratio

    history = ControlledExperiment(
        ExperimentConfig(
            **_run_fields(args), over_provision_ratio=0.0, ampere_enabled=False
        )
    ).run()
    advice = recommend_over_provision_ratio(
        history.control.normalized_power, candidate_ratios=tuple(args.ratios)
    )
    rows = [
        [
            f"{a.ratio:.2f}",
            f"{a.scaled_percentile_power:.3f}",
            format_percent(a.fraction_time_over_threshold),
            format_percent(a.fraction_time_over_budget, digits=2),
            format_percent(a.expected_min_gain),
        ]
        for a in advice.assessments
    ]
    print(
        render_table(
            ["r_O", "p95 power (scaled)", "time over threshold",
             "time over budget", "expected min gain"],
            rows,
        )
    )
    print(f"\nrecommended over-provision ratio: {advice.recommended_ratio:.2f}")
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.fleet.config import FleetConfig
    from repro.sim.campaign import Campaign, CampaignCell, CampaignRow
    from repro.sim.checkpoint import CheckpointError

    fleet = (
        FleetConfig(policy=args.fleet_policy)
        if args.fleet_policy is not None
        else None
    )
    if fleet is not None and args.servers % 80:
        raise ValueError(
            f"--servers {args.servers} must be a multiple of 80 with "
            "--fleet-policy (each cell splits it over two rows)"
        )
    campaign = Campaign(
        ratios=tuple(args.ratios),
        seeds=tuple(args.seeds),
        fleet=fleet,
        fleet_skew=args.fleet_skew,
        **_run_fields(
            args, "n_servers", "duration_hours", "faults", "safety", "tenancy"
        ),
    )
    workers: Optional[int] = args.workers
    if workers is not None and workers < 1:
        raise ValueError(f"--workers must be >= 1, got {workers}")
    if workers is None and args.parallel:
        import os

        workers = os.cpu_count() or 1
    total = len(campaign)
    done = [0]

    def progress(cell: CampaignCell, row: CampaignRow) -> None:
        done[0] += 1
        if not row.ok:
            status = f"FAILED ({row.error})"
        elif fleet is not None:
            status = f"frozen = {row.frozen_server_minutes:.0f} server-min"
        else:
            status = f"G_TPW = {format_percent(row.g_tpw)}"
        print(f"  [{done[0]}/{total}] {cell.label()}: {status}", flush=True)

    if args.resume and args.checkpoint_dir is None:
        raise ValueError("--resume requires --checkpoint-dir")
    try:
        if workers is not None:
            print(f"running {total} cells on {workers} workers ...")
            result = campaign.run_parallel(
                max_workers=workers,
                on_cell=progress,
                checkpoint_dir=args.checkpoint_dir,
                resume=args.resume,
                cell_timeout=args.cell_timeout,
                retries=args.retries,
            )
        else:
            print(f"running {total} cells ...")
            result = campaign.run(
                on_cell=progress,
                checkpoint_dir=args.checkpoint_dir,
                resume=args.resume,
            )
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if result.failed_rows:
        print(f"warning: {len(result.failed_rows)} cells failed; see rows below")
    if fleet is not None:
        # Fleet cells have no uncontrolled twin, so r_T / G_TPW do not
        # exist; the capacity story is frozen time and budget moves.
        headers = [
            "r_O", "workload", "P_mean", "u_mean", "frozen (srv-min)",
            "reallocs", "violations", "trips",
        ]
        if args.tenants:
            headers.append("jain")
        rows = []
        for row in result.rows:
            cells = [
                f"{row.cell.over_provision_ratio:.2f}",
                row.cell.workload_name,
                f"{row.p_mean:.3f}",
                format_percent(row.u_mean),
                f"{row.frozen_server_minutes:.0f}",
                str(row.reallocations),
                str(row.violations),
                str(row.trips),
            ]
            if args.tenants:
                cells.append(
                    f"{row.jain_index:.4f}"
                    if row.jain_index is not None else "n/a"
                )
            rows.append(cells)
        print(render_table(headers, rows))
    else:
        headers = ["r_O", "workload", "P_mean", "u_mean", "r_T", "G_TPW", "violations"]
        if args.safety:
            headers += ["trips", "shed"]
        if args.tenants:
            headers.append("jain")
        rows = []
        for row in result.rows:
            cells = [
                f"{row.cell.over_provision_ratio:.2f}",
                row.cell.workload_name,
                f"{row.p_mean:.3f}",
                format_percent(row.u_mean),
                f"{row.r_t:.3f}",
                format_percent(row.g_tpw),
                str(row.violations),
            ]
            if args.safety:
                cells += [str(row.trips), str(row.jobs_shed)]
            if args.tenants:
                cells.append(
                    f"{row.jain_index:.4f}"
                    if row.jain_index is not None else "n/a"
                )
            rows.append(cells)
        print(render_table(headers, rows))
        try:
            print(f"\nworst-case-optimal r_O: {result.best_ratio('worst_case'):.2f}")
        except KeyError:
            # Some (ratio, workload) combinations have only failed rows; a
            # partial sweep still prints its table.
            print("\nworst-case-optimal r_O: n/a (failed cells)")
    if args.csv:
        result.save_csv(args.csv)
        print(f"rows written to {args.csv}")
    return 0


def _hot_cold_rows(n_servers: int, hot_util: float = 0.40, cold_util: float = 0.06):
    """The two-row fleet of ``fleet`` and ``serve --fleet``: one bursty
    hot row and one cold (donor) row."""
    from repro.sim.fleet_experiment import FleetRowSpec

    hot = WorkloadSpec(target_utilization=hot_util, bursts_per_day=4.0, burst_factor=1.3)
    return (
        FleetRowSpec(n_servers=n_servers, workload=hot),
        FleetRowSpec(n_servers=n_servers, workload=WorkloadSpec(target_utilization=cold_util)),
    )


def cmd_fleet(args: argparse.Namespace) -> int:
    from repro.sim.fleet_experiment import FleetExperimentConfig, run_fleet_ab

    config = FleetExperimentConfig(
        rows=_hot_cold_rows(args.servers_per_row, args.hot_util, args.cold_util),
        warmup_hours=min(1.0, args.hours / 4.0),
        **_run_fields(args),
    )
    results = run_fleet_ab(config, policies=tuple(args.policies))
    rows = []
    for policy, result in results.items():
        stats = result.coordinator_stats
        rows.append(
            [
                policy,
                f"{result.total_frozen_server_minutes:.0f}",
                str(result.total_violations),
                str(result.total_breaker_trips),
                str(stats.reallocations if stats is not None else 0),
                f"{stats.watts_moved:.0f}" if stats is not None else "0",
                str(result.total_throughput),
            ]
        )
    print(
        render_table(
            ["policy", "frozen (srv-min)", "violations", "trips",
             "reallocs", "W moved", "jobs done"],
            rows,
        )
    )
    print()
    for policy, result in results.items():
        facility = result.facility
        print(
            f"{policy}: facility P_mean={facility.p_mean_watts:.0f} W  "
            f"P_max={facility.p_max_watts:.0f} W  "
            f"budget={facility.budget_watts:.0f} W  "
            f"violations={facility.violations}"
        )
        if result.tenancy is not None:
            print(
                f"  tenancy ({result.tenancy.policy}): "
                f"Jain index = {result.tenancy.jain_index:.4f}"
            )
    if args.json:
        import json

        from repro.analysis.serialize import fleet_result_to_dict

        payload = {
            policy: fleet_result_to_dict(result)
            for policy, result in results.items()
        }
        atomic_write_text(args.json, json.dumps(payload, indent=2))
        print(f"results written to {args.json}", file=sys.stderr)
    return 0


def cmd_tenancy_ab(args: argparse.Namespace) -> int:
    from repro.core.safety import SafetyConfig

    config = ExperimentConfig(
        **_run_fields(args),
        scale_control_budget=False,
        # The breaker ladder is armed so "fairness did not cost safety"
        # is part of the printed comparison, matching the pinned test.
        safety=SafetyConfig(),
    )
    results = run_tenancy_ab(config)
    for policy, result in results.items():
        trips = (
            result.breaker_stats.trips
            if result.breaker_stats is not None
            else 0
        )
        print(
            f"policy={policy}: r_T={result.r_t:.3f}  "
            f"G_TPW={format_percent(result.g_tpw)}  trips={trips}"
        )
        _print_tenancy_report(result.tenancy)
        print()
    delta = (
        results["fair"].tenancy.jain_index
        - results["blind"].tenancy.jain_index
    )
    print(f"Jain index delta (fair - blind): {delta:+.4f}")
    return 0


def _run_telemetry_experiment(args: argparse.Namespace) -> ControlledExperiment:
    """Build and run the telemetry-enabled experiment behind
    ``metrics``/``spans``. Returns the experiment (registry + tracer)."""
    config = ExperimentConfig(**_run_fields(args), telemetry_enabled=True)
    experiment = ControlledExperiment(config)
    experiment.run()
    return experiment


def cmd_metrics(args: argparse.Namespace) -> int:
    from repro.telemetry import (
        PROMETHEUS_CONTENT_TYPE,
        render_prometheus,
        save_snapshot,
    )

    experiment = _run_telemetry_experiment(args)
    registry = experiment.telemetry.registry
    text = render_prometheus(registry)
    print(text, end="")
    if args.prom:
        atomic_write_text(args.prom, text)
        print(
            f"# exposition written to {args.prom} "
            f"(serve as {PROMETHEUS_CONTENT_TYPE!r})",
            file=sys.stderr,
        )
    if args.json:
        save_snapshot(registry, args.json)
        print(f"# snapshot written to {args.json}", file=sys.stderr)
    return 0


def cmd_spans(args: argparse.Namespace) -> int:
    experiment = _run_telemetry_experiment(args)
    tracer = experiment.telemetry.tracer
    summary = tracer.summary()
    if args.name is not None:
        summary = {k: v for k, v in summary.items() if k == args.name}
        if not summary:
            print(f"no spans named {args.name!r}", file=sys.stderr)
            return 1
    rows = [
        [
            name,
            str(int(stats["count"])),
            f"{stats['sim_total']:.1f}",
            f"{stats['wall_total'] * 1e3:.2f}",
            f"{stats['wall_mean'] * 1e6:.1f}",
            f"{stats['wall_max'] * 1e6:.1f}",
        ]
        for name, stats in sorted(summary.items())
    ]
    print(
        render_table(
            ["span", "count", "sim total (s)", "wall total (ms)",
             "wall mean (us)", "wall max (us)"],
            rows,
        )
    )
    if tracer.dropped:
        print(f"\n({tracer.dropped} spans dropped by the ring buffer)")
    if args.last > 0:
        records = list(tracer.spans(name=args.name))[-args.last :]
        print()
        for record in records:
            print(
                f"  t={record.start_sim:10.1f}s  {record.name:<16s} "
                f"wall={record.wall_duration * 1e6:8.1f}us "
                f"attrs={record.attributes}"
            )
    return 0


def cmd_verify_snapshot(args: argparse.Namespace) -> int:
    from repro.sim.verify import verify_snapshot_file

    report = verify_snapshot_file(
        args.path, checks=tuple(args.checks) if args.checks else None
    )
    if report.error is not None:
        print(f"error: {report.error}", file=sys.stderr)
        return report.exit_code
    described = "  ".join(
        f"{k}={report.meta[k]}" for k in sorted(report.meta)
    )
    print(f"snapshot: kind={report.kind}  {described}")
    for check, count in report.check_counts.items():
        status = "ok" if count == 0 else f"{count} violation(s)"
        print(f"  {check:<12s} {status}")
        for vcheck, message in report.violations:
            if vcheck == check:
                print(f"    - {message}")
    if report.violations:
        print(f"FAILED: {len(report.violations)} invariant violation(s)")
    else:
        print("all invariants hold")
    return report.exit_code


def cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.service import SupervisorConfig, build_service
    from repro.sim.audit import AuditorConfig

    # Refused in the operator's units, before minutes become seconds.
    for flag, value, unit in (
        ("--auto-snapshot-every", args.auto_snapshot_every, "sim-minutes"),
        ("--auto-snapshot-min-wall", args.auto_snapshot_min_wall, "seconds"),
    ):
        if value < 0:
            raise ValueError(f"{flag} must be >= 0 {unit}, got {value}")
    supervisor_config = SupervisorConfig(
        state_dir=args.state_dir,
        auto_snapshot_every=(
            args.auto_snapshot_every * 60.0
            if args.auto_snapshot_every else None
        ),
        auto_snapshot_min_wall_seconds=args.auto_snapshot_min_wall,
    )

    if args.serve_resume:
        if args.state_dir is None:
            raise ValueError("--resume requires --state-dir")
        experiment = None
    elif args.golden:
        # The pinned regression configuration (tests/test_golden.py):
        # a --step-mode run driven to the horizon via the API returns
        # the golden result document byte for byte.
        config = ExperimentConfig(
            n_servers=80,
            duration_hours=2.0,
            warmup_hours=0.5,
            over_provision_ratio=0.25,
            workload=WorkloadSpec(
                target_utilization=0.33, modulation_sigma=0.05
            ),
            seed=42,
        )
        experiment = ControlledExperiment(config)
    elif args.fleet:
        from repro.fleet.config import FleetConfig
        from repro.sim.fleet_experiment import FleetExperiment, FleetExperimentConfig

        fleet_config = FleetExperimentConfig(
            rows=_hot_cold_rows(args.servers),
            fleet=FleetConfig(policy=args.fleet_policy),
            telemetry_enabled=not args.no_telemetry,
            auditor=AuditorConfig() if args.audit else None,
            **_run_fields(
                args, "seed", "duration_hours", "warmup_hours",
                "over_provision_ratio", "faults", "safety", "tenancy",
            ),
        )
        experiment = FleetExperiment(fleet_config)
    else:
        config = ExperimentConfig(
            **_run_fields(args),
            telemetry_enabled=not args.no_telemetry,
            auditor=AuditorConfig() if args.audit else None,
        )
        experiment = ControlledExperiment(config)

    mode = "manual" if args.step_mode else (
        "realtime" if args.speedup == 1.0 else "accelerated"
    )
    service = build_service(
        experiment,
        mode=mode,
        speedup=args.speedup,
        host=args.host,
        port=args.port,
        supervisor_config=supervisor_config,
        resume=args.serve_resume,
    )
    service.start()
    host, port = service.address
    # One parseable line on stdout so headless harnesses (CI smoke) can
    # discover an ephemeral port; everything else goes through logging.
    print(f"serving on http://{host}:{port} (mode={mode})", flush=True)

    stop = threading.Event()

    def _on_signal(signum, frame):
        print(f"received {signal.Signals(signum).name}, shutting down",
              file=sys.stderr, flush=True)
        stop.set()

    # Handlers must be installed on the main thread; the HTTP and sim
    # loops run on daemon threads, so the main thread just waits here.
    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    try:
        while not stop.is_set():
            stop.wait(0.5)
    finally:
        written = service.stop(snapshot_path=args.final_snapshot)
        if args.final_snapshot:
            print(
                f"final snapshot written to {args.final_snapshot} "
                f"({written} bytes)",
                file=sys.stderr,
                flush=True,
            )
    return 0


COMMANDS = {
    "experiment": cmd_experiment,
    "run": cmd_experiment,  # alias registered on the subparser
    "sweep": cmd_sweep,
    "calibrate": cmd_calibrate,
    "interactive": cmd_interactive,
    "trace": cmd_trace,
    "advise": cmd_advise,
    "campaign": cmd_campaign,
    "fleet": cmd_fleet,
    "tenancy-ab": cmd_tenancy_ab,
    "metrics": cmd_metrics,
    "spans": cmd_spans,
    "verify-snapshot": cmd_verify_snapshot,
    "serve": cmd_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_level is not None:
        configure_logging(args.log_level)
    try:
        return COMMANDS[args.command](args)
    except ValueError as exc:
        logger.debug("refused: %s", exc, exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
