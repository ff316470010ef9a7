"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_defaults(self):
        args = build_parser().parse_args(["experiment"])
        assert args.command == "experiment"
        assert args.workload == "heavy"
        assert args.ro == 0.25
        assert not args.no_ampere

    def test_experiment_flags(self):
        args = build_parser().parse_args(
            [
                "experiment", "--workload", "light", "--hours", "2",
                "--ro", "0.17", "--no-ampere", "--capping",
                "--scale-experiment-only", "--seed", "7", "--servers", "80",
            ]
        )
        assert args.workload == "light"
        assert args.hours == 2.0
        assert args.ro == 0.17
        assert args.no_ampere and args.capping and args.scale_experiment_only
        assert args.servers == 80

    def test_invalid_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "--workload", "insane"])

    def test_sweep_ratios(self):
        args = build_parser().parse_args(["sweep", "--ratios", "0.1", "0.2"])
        assert args.ratios == [0.1, 0.2]

    def test_campaign_parallel_flags(self):
        args = build_parser().parse_args(["campaign", "--workers", "4"])
        assert args.workers == 4 and not args.parallel
        args = build_parser().parse_args(["campaign", "--parallel"])
        assert args.workers is None and args.parallel


#: ``vars(namespace)`` of every subcommand parsed with no optional
#: arguments: the shared run options must keep each subcommand's own
#: defaults and add or drop no flag
SUBCOMMAND_DEFAULTS = {
    "experiment": {
        "seed": 0, "servers": 400, "hours": 24.0, "ro": 0.25,
        "workload": "heavy", "no_ampere": False, "capping": False,
        "scale_experiment_only": False, "faults": None, "safety": False,
        "tenants": None, "tenancy_policy": None, "save_snapshot": None,
    },
    "sweep": {
        "seed": 0, "servers": 400, "hours": 12.0,
        "ratios": [0.13, 0.17, 0.21, 0.25], "workload": "typical",
    },
    "calibrate": {"seed": 0, "servers": 400, "hours": 12.0},
    "interactive": {"seed": 0, "servers": 400, "hours": 2.0},
    "trace": {"seed": 9, "days": 1.0, "rows": 5},
    "advise": {
        "seed": 0, "servers": 400, "hours": 12.0, "workload": "typical",
        "ratios": [0.13, 0.17, 0.21, 0.25],
    },
    "campaign": {
        "seed": 0, "servers": 400, "hours": 12.0,
        "ratios": [0.13, 0.17, 0.21, 0.25], "seeds": [13], "csv": None,
        "workers": None, "parallel": False, "faults": None, "safety": False,
        "fleet_policy": None, "fleet_skew": 0.25, "tenants": None,
        "tenancy_policy": None, "checkpoint_dir": None, "resume": False,
        "cell_timeout": None, "retries": 1,
    },
    "verify-snapshot": {"path": "x.snap", "checks": None},
    "fleet": {
        "seed": 7, "servers_per_row": 80, "hours": 6.0, "ro": 0.25,
        "policies": ["static", "demand-following"], "hot_util": 0.4,
        "cold_util": 0.06, "json": None, "tenants": None,
        "tenancy_policy": None,
    },
    "tenancy-ab": {
        "seed": 0, "servers": 400, "hours": 3.0, "warmup_hours": 0.5,
        "ro": 0.25, "workload": "heavy", "tenants": "critical-batch",
    },
    "metrics": {
        "seed": 0, "servers": 400, "hours": 2.0, "ro": 0.25,
        "workload": "heavy", "faults": None, "json": None, "prom": None,
    },
    "spans": {
        "seed": 0, "servers": 400, "hours": 2.0, "ro": 0.25,
        "workload": "heavy", "faults": None, "name": None, "last": 0,
    },
    "serve": {
        "seed": 0, "servers": 400, "hours": 2.0, "warmup_hours": 0.5,
        "ro": 0.25, "workload": "heavy", "faults": None, "safety": False,
        "capping": False, "audit": False, "no_telemetry": False,
        "fleet": False, "fleet_policy": "demand-following", "tenants": None,
        "tenancy_policy": None, "golden": False, "host": "127.0.0.1",
        "port": 8321, "step_mode": False, "speedup": 60.0,
        "final_snapshot": None, "state_dir": None,
        "auto_snapshot_every": 10.0, "auto_snapshot_min_wall": 5.0,
        "serve_resume": False,
    },
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_DEFAULTS) + ["run"])
def test_subcommand_defaults_are_pinned(command):
    """Every subcommand keeps its exact flag set and defaults."""
    positional = ["x.snap"] if command == "verify-snapshot" else []
    parsed = vars(build_parser().parse_args([command, *positional]))
    expected = dict(
        SUBCOMMAND_DEFAULTS["experiment" if command == "run" else command],
        log_level=None,
        command=command,
    )
    assert parsed == expected


class TestExecution:
    def test_experiment_command_runs(self, capsys):
        code = main(
            [
                "experiment", "--servers", "80", "--hours", "0.5",
                "--workload", "typical", "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "experiment" in out
        assert "G_TPW" in out

    def test_sweep_command_runs(self, capsys):
        code = main(
            [
                "sweep", "--servers", "80", "--hours", "0.5",
                "--ratios", "0.17", "--workload", "light",
            ]
        )
        assert code == 0
        assert "r_O" in capsys.readouterr().out

    def test_calibrate_command_runs(self, capsys):
        code = main(["calibrate", "--servers", "40", "--hours", "0.2"])
        assert code == 0
        out = capsys.readouterr().out
        header, _, *bins = out.split("\n\n")[0].splitlines()
        assert header.split() == ["u", "p25", "median", "p75"]
        assert bins  # at least one freezing-ratio bin was probed
        k_r = float(out.rsplit("k_r = ", 1)[1])
        assert 0.0 < k_r < 1.0

    def test_trace_command_runs(self, capsys):
        code = main(["trace", "--rows", "2", "--days", "0.05"])
        assert code == 0
        assert "datacenter" in capsys.readouterr().out

    def test_advise_command_runs(self, capsys):
        code = main(
            [
                "advise", "--servers", "80", "--hours", "2.0",
                "--workload", "typical", "--ratios", "0.17", "0.25",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "recommended over-provision ratio" in out

    def test_campaign_command_runs(self, capsys, tmp_path):
        csv_path = tmp_path / "c.csv"
        code = main(
            [
                "campaign", "--servers", "80", "--hours", "0.3",
                "--ratios", "0.17", "--seeds", "3", "--csv", str(csv_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "worst-case-optimal" in out
        assert csv_path.exists()

    def test_campaign_parallel_matches_serial_csv(self, capsys, tmp_path):
        serial_csv = tmp_path / "serial.csv"
        parallel_csv = tmp_path / "parallel.csv"
        base = [
            "campaign", "--servers", "40", "--hours", "0.2",
            "--ratios", "0.17", "--seeds", "3",
        ]
        assert main([*base, "--csv", str(serial_csv)]) == 0
        assert main([*base, "--workers", "2", "--csv", str(parallel_csv)]) == 0
        out = capsys.readouterr().out
        assert "on 2 workers" in out
        assert serial_csv.read_bytes() == parallel_csv.read_bytes()

    def test_campaign_rejects_nonpositive_workers(self, capsys):
        code = main(
            ["campaign", "--servers", "40", "--hours", "0.1",
             "--ratios", "0.17", "--seeds", "3", "--workers", "0"]
        )
        assert code == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            # a single row has no coordinator to black out
            ["run", "--servers", "40", "--hours", "0.2",
             "--faults", "fleet-blackout"],
            ["campaign", "--servers", "40", "--hours", "0.2",
             "--ratios", "0.17", "--seeds", "3", "--workers", "1",
             "--retries", "-1"],
            ["run", "--servers", "40", "--hours", "0.2",
             "--tenancy-policy", "fair"],
            ["serve", "--step-mode", "--port", "0",
             "--auto-snapshot-every", "-1"],
        ],
        ids=["fleet-blackout-on-row", "negative-retries", "policy-no-tenants",
             "negative-auto-snapshot"],
    )
    def test_refused_config_ends_in_one_error_line(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        if "--auto-snapshot-every" in argv:
            # the flag and the value as typed, not the converted seconds
            assert "--auto-snapshot-every" in err
            assert "-1" in err and "-60" not in err

    def test_campaign_survives_failing_cells(self, capsys):
        # 50 servers is invalid (must be a multiple of 40): every cell
        # fails in its worker, yet the sweep completes with failed rows.
        code = main(
            ["campaign", "--servers", "50", "--hours", "0.1",
             "--ratios", "0.17", "--seeds", "3", "--workers", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "cells failed" in out
        assert "n/a (failed cells)" in out


class TestTelemetryCommands:
    def teardown_method(self):
        import logging

        logger = logging.getLogger("repro")
        for handler in list(logger.handlers):
            if not isinstance(handler, logging.NullHandler):
                logger.removeHandler(handler)
        logger.setLevel(logging.NOTSET)

    def test_log_level_flag_parses(self):
        args = build_parser().parse_args(["--log-level", "debug", "experiment"])
        assert args.log_level == "debug"
        args = build_parser().parse_args(["experiment"])
        assert args.log_level is None

    def test_log_level_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--log-level", "chatty", "experiment"])

    def test_debug_log_level_keeps_the_refusal_traceback(self, capsys):
        code = main(
            ["--log-level", "debug", "run", "--servers", "40",
             "--hours", "0.2", "--faults", "fleet-blackout"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert err.rstrip("\n").splitlines()[-1].startswith("error: ")

    def test_metrics_command_prints_prometheus(self, capsys, tmp_path):
        import json

        snap_path = tmp_path / "snap.json"
        code = main(
            ["metrics", "--servers", "40", "--hours", "0.3",
             "--workload", "typical", "--json", str(snap_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_engine_events_total counter" in out
        assert "repro_monitor_sweeps_total" in out
        assert 'repro_scheduler_rpc_latency_seconds_bucket' in out
        doc = json.loads(snap_path.read_text())
        assert "repro_controller_ticks_total" in doc

    def test_spans_command_prints_summary(self, capsys):
        code = main(
            ["spans", "--servers", "40", "--hours", "0.3",
             "--workload", "heavy", "--last", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "controller.tick" in out
        assert "monitor.sweep" in out
        assert "wall mean (us)" in out

    def test_spans_unknown_name_fails(self, capsys):
        code = main(
            ["spans", "--servers", "40", "--hours", "0.2",
             "--workload", "typical", "--name", "nope"]
        )
        assert code == 1
        assert "no spans named" in capsys.readouterr().err

    def test_log_level_debug_emits_to_stderr(self, capsys):
        code = main(
            ["--log-level", "info", "metrics", "--servers", "40",
             "--hours", "0.2", "--workload", "typical"]
        )
        assert code == 0
