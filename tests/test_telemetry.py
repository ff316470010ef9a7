"""Tests of the repro.telemetry subsystem.

Covers the registry data model (instruments, families, label keying,
merge semantics), the span tracer, Prometheus/JSON exposition, the
disabled no-op path, the components' collectors (ControllerHealth and
ControlEventLog series read from their own counts), copied results, the
worker-boundary contract (pickling, serial-vs-parallel byte identity)
and the logging setup helper.
"""

import io
import json
import logging
import pickle

import numpy as np
import pytest

from repro.sim.campaign import Campaign
from repro.sim.engine import Engine
from repro.sim.eventlog import ControlEventLog
from repro.sim.experiment import ControlledExperiment, ExperimentConfig
from repro.sim.testbed import WorkloadSpec
from repro.telemetry import (
    DEFAULT_TIME_BUCKETS,
    NULL_HISTOGRAM,
    MetricsRegistry,
    Telemetry,
    Tracer,
    configure_logging,
    counter_series,
    gauge_series,
    registry_from_snapshot,
    render_json,
    render_prometheus,
    snapshot,
)
from repro.core.controller import HEALTH_KINDS

CONTROL_EVENTS_COUNTER = "repro_control_events_total"


def health_summary_from_registry(registry) -> dict:
    """``ControllerHealth.summary()`` as the registry exports it."""
    return {
        kind: int(registry.value("repro_controller_health_total", {"kind": kind}) or 0)
        for kind in HEALTH_KINDS
    }


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        n_servers=40,
        duration_hours=0.3,
        warmup_hours=0.05,
        workload=WorkloadSpec(target_utilization=0.3),
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# Registry instruments
# ---------------------------------------------------------------------------


class TestInstruments:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_test_total")
        c.inc()
        c.inc(2.5)
        assert reg.value("repro_test_total") == 3.5

    def test_counter_rejects_negative(self):
        c = MetricsRegistry().counter("repro_test_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("repro_test_depth")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert reg.value("repro_test_depth") == 7.0

    def test_histogram_buckets_and_sum(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_test_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(6.05)
        # non-cumulative internally: [<=0.1, <=1.0, +Inf]
        assert h.bucket_counts == [1, 2, 1]
        assert h.cumulative_counts() == [1, 3, 4]

    def test_histogram_requires_sorted_buckets(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("repro_bad_seconds", buckets=(1.0, 0.1))

    def test_same_name_same_labels_is_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_test_total", labels={"row": "0"})
        b = reg.counter("repro_test_total", labels={"row": "0"})
        c = reg.counter("repro_test_total", labels={"row": "1"})
        assert a is b
        assert a is not c

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_test_total", labels={"a": "1", "b": "2"})
        b = reg.counter("repro_test_total", labels={"b": "2", "a": "1"})
        assert a is b

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_test_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("repro_test_total")

    def test_histogram_bucket_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("repro_test_seconds", buckets=(1.0,))
        with pytest.raises(ValueError, match="buckets"):
            reg.histogram("repro_test_seconds", buckets=(2.0,))

    def test_value_of_missing_series_is_none(self):
        reg = MetricsRegistry()
        assert reg.value("repro_absent_total") is None
        reg.counter("repro_test_total", labels={"row": "0"})
        assert reg.value("repro_test_total", {"row": "1"}) is None


# ---------------------------------------------------------------------------
# Merge semantics (the campaign worker boundary)
# ---------------------------------------------------------------------------


def make_registry(counter=1.0, gauge=2.0, obs=(0.5,)) -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("repro_m_total", "h", {"g": "x"}).inc(counter)
    reg.gauge("repro_m_depth", "h").set(gauge)
    h = reg.histogram("repro_m_seconds", "h", buckets=(0.1, 1.0))
    for v in obs:
        h.observe(v)
    return reg


class _Owner:
    """A component keeping one count and one level in its own fields."""

    def __init__(self, name: str = "a") -> None:
        self.name = name
        self.done = 0
        self.level = 0.0

    def metrics(self):
        yield counter_series("repro_owner_done_total", "things done")(self.done)
        yield gauge_series("repro_owner_level", "a level", label="o")(self.level, "x")


class TestCollectors:
    def test_every_read_runs_the_collector(self):
        reg = MetricsRegistry()
        owner = _Owner()
        reg.add_collector(owner.metrics)
        owner.done = 3
        assert reg.value("repro_owner_done_total") == 3.0
        owner.done = 5
        owner.level = 0.5
        assert reg.value("repro_owner_done_total") == 5.0
        assert reg.value("repro_owner_level", {"o": "x"}) == 0.5
        assert "repro_owner_done_total 5" in render_prometheus(reg)

    def test_same_series_from_two_collectors_adds_counters_last_gauge_wins(self):
        reg = MetricsRegistry()
        first, second = _Owner(), _Owner()
        first.done, first.level = 2, 1.0
        second.done, second.level = 3, 2.0
        reg.add_collector(first.metrics)
        reg.add_collector(second.metrics)
        assert reg.value("repro_owner_done_total") == 5.0
        assert reg.value("repro_owner_level", {"o": "x"}) == 2.0

    def test_materialize_is_a_plain_frozen_copy(self):
        reg = MetricsRegistry()
        owner = _Owner()
        reg.add_collector(owner.metrics)
        reg.histogram("repro_owner_seconds").observe(0.2)
        owner.done = 4
        copy = reg.materialize()
        owner.done = 9
        assert copy._collectors == []
        assert copy.value("repro_owner_done_total") == 4.0
        assert copy.get("repro_owner_seconds").count == 1
        assert render_json(copy) != render_json(reg)

    def test_collected_name_cannot_also_be_an_instrument(self):
        reg = MetricsRegistry()
        reg.add_collector(_Owner().metrics)
        reg.counter("repro_owner_done_total").inc()
        with pytest.raises(ValueError, match="both an instrument and collected"):
            reg.series()

    def test_live_registry_pickles_with_its_owners(self):
        reg = MetricsRegistry()
        owner = _Owner()
        owner.done = 7
        reg.add_collector(owner.metrics)
        clone = pickle.loads(pickle.dumps(reg))
        assert clone.value("repro_owner_done_total") == 7.0


class TestMerge:
    def test_counters_add(self):
        merged = MetricsRegistry.merged([make_registry(1), make_registry(2)])
        assert merged.value("repro_m_total", {"g": "x"}) == 3.0

    def test_gauges_take_last(self):
        merged = MetricsRegistry.merged(
            [make_registry(gauge=5.0), make_registry(gauge=7.0)]
        )
        assert merged.value("repro_m_depth") == 7.0

    def test_histograms_add_bucketwise(self):
        merged = MetricsRegistry.merged(
            [make_registry(obs=(0.05, 0.5)), make_registry(obs=(5.0,))]
        )
        h = merged.get("repro_m_seconds")
        assert h.count == 3
        assert h.bucket_counts == [1, 1, 1]
        assert h.sum == pytest.approx(5.55)

    def test_merged_does_not_mutate_inputs(self):
        a, b = make_registry(1), make_registry(2)
        MetricsRegistry.merged([a, b])
        assert a.value("repro_m_total", {"g": "x"}) == 1.0
        assert b.value("repro_m_total", {"g": "x"}) == 2.0

    def test_merge_disjoint_names_unions(self):
        a = MetricsRegistry()
        a.counter("repro_a_total").inc()
        b = MetricsRegistry()
        b.counter("repro_b_total").inc()
        a.merge(b)
        assert a.value("repro_a_total") == 1.0
        assert a.value("repro_b_total") == 1.0

    def test_merge_mismatched_histogram_buckets_raises(self):
        a = MetricsRegistry()
        a.histogram("repro_m_seconds", buckets=(1.0,)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("repro_m_seconds", buckets=(2.0,)).observe(0.5)
        with pytest.raises(ValueError, match="buckets"):
            a.merge(b)

    def test_registry_round_trips_through_pickle(self):
        reg = make_registry(counter=4.0, gauge=1.5, obs=(0.2, 3.0))
        clone = pickle.loads(pickle.dumps(reg))
        assert render_prometheus(clone) == render_prometheus(reg)


# ---------------------------------------------------------------------------
# Exposition
# ---------------------------------------------------------------------------


class TestExposition:
    def test_prometheus_format_of_counter_and_gauge(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total", "things done", {"g": "a"}).inc(3)
        reg.gauge("repro_y_depth", "queue depth").set(2.5)
        text = render_prometheus(reg)
        assert "# HELP repro_x_total things done\n" in text
        assert "# TYPE repro_x_total counter\n" in text
        assert 'repro_x_total{g="a"} 3\n' in text
        assert "# TYPE repro_y_depth gauge\n" in text
        assert "repro_y_depth 2.5\n" in text

    def test_prometheus_histogram_lines_are_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_z_seconds", "latency", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        text = render_prometheus(reg)
        assert 'repro_z_seconds_bucket{le="0.1"} 1\n' in text
        assert 'repro_z_seconds_bucket{le="1"} 2\n' in text
        assert 'repro_z_seconds_bucket{le="+Inf"} 3\n' in text
        assert "repro_z_seconds_sum 5.55" in text
        assert "repro_z_seconds_count 3\n" in text

    def test_families_export_in_sorted_name_order(self):
        reg = MetricsRegistry()
        reg.counter("repro_b_total").inc()
        reg.counter("repro_a_total").inc()
        text = render_prometheus(reg)
        assert text.index("repro_a_total") < text.index("repro_b_total")

    def test_snapshot_round_trip(self):
        reg = make_registry(counter=2.0, gauge=9.0, obs=(0.01, 0.7))
        doc = json.loads(render_json(reg))
        rebuilt = registry_from_snapshot(doc)
        assert render_prometheus(rebuilt) == render_prometheus(reg)

    def test_snapshot_is_plain_json_types(self):
        doc = snapshot(make_registry())
        # must survive a strict JSON round trip unchanged
        assert json.loads(json.dumps(doc)) == doc

    def test_label_values_are_escaped(self):
        reg = MetricsRegistry()
        reg.counter(
            "repro_esc_total", "escapes",
            {"detail": 'say "hi"\nback\\slash'},
        ).inc()
        text = render_prometheus(reg)
        assert (
            'repro_esc_total{detail="say \\"hi\\"\\nback\\\\slash"} 1\n'
            in text
        )
        # no raw newline may survive inside a sample line
        for line in text.splitlines():
            assert line.count('"') % 2 == 0

    def test_escape_label_value_rules(self):
        from repro.telemetry.exposition import escape_label_value

        assert escape_label_value("plain") == "plain"
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\nb") == "a\\nb"
        assert escape_label_value("a\\b") == "a\\\\b"
        # backslash escapes first: the escaped quote keeps its backslash
        assert escape_label_value('\\"') == '\\\\\\"'

    def test_help_text_newlines_are_escaped(self):
        from repro.telemetry.exposition import escape_help_text

        reg = MetricsRegistry()
        reg.gauge("repro_multi_line", "first\nsecond").set(1)
        text = render_prometheus(reg)
        assert "# HELP repro_multi_line first\\nsecond\n" in text
        assert escape_help_text("a\\b\nc") == "a\\\\b\\nc"

    def test_content_type_constant(self):
        from repro.telemetry import PROMETHEUS_CONTENT_TYPE

        assert PROMETHEUS_CONTENT_TYPE.startswith("text/plain")
        assert "version=0.0.4" in PROMETHEUS_CONTENT_TYPE

    def test_escaped_exposition_stays_deterministic(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("repro_det_total", "x", {"k": 'v"\n\\'}).inc(2)
            return render_prometheus(reg)

        assert build() == build()


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_spans_record_sim_and_wall_time(self):
        clock = [100.0]
        tracer = Tracer()
        tracer.bind_sim_clock(lambda: clock[0])
        with tracer.span("controller.tick", rows=2):
            clock[0] = 160.0
        (record,) = tracer.spans("controller.tick")
        assert record.start_sim == 100.0
        assert record.sim_duration == 60.0
        assert record.wall_duration >= 0.0
        assert record.attributes == {"rows": 2}

    def test_nested_spans_link_parents(self):
        tracer = Tracer()
        with tracer.span("controller.tick") as outer:
            with tracer.span("rhc.decide"):
                pass
        tick = tracer.spans("controller.tick")[0]
        decide = tracer.spans("rhc.decide")[0]
        assert decide.parent_id == tick.span_id
        assert tick.parent_id is None
        assert outer is not None

    def test_ring_buffer_drops_oldest(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            with tracer.span("s", i=i):
                pass
        assert len(tracer) == 4
        assert tracer.dropped == 6
        kept = [r.attributes["i"] for r in tracer.spans("s")]
        assert kept == [6, 7, 8, 9]

    def test_range_query_filters_by_start_sim(self):
        clock = [0.0]
        tracer = Tracer()
        tracer.bind_sim_clock(lambda: clock[0])
        for t in (10.0, 20.0, 30.0):
            clock[0] = t
            with tracer.span("s"):
                pass
        assert [r.start_sim for r in tracer.spans("s", start=15.0, end=30.0)] == [20.0]

    def test_summary_aggregates_per_name(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("a"):
                pass
        with tracer.span("b"):
            pass
        summary = tracer.summary()
        assert summary["a"]["count"] == 3
        assert summary["b"]["count"] == 1
        assert summary["a"]["wall_total"] >= summary["a"]["wall_max"] > 0.0


# ---------------------------------------------------------------------------
# The disabled path
# ---------------------------------------------------------------------------


class TestDisabled:
    def test_disabled_is_a_shared_singleton(self):
        assert Telemetry.disabled() is Telemetry.disabled()

    def test_disabled_hands_out_shared_null_instruments(self):
        tel = Telemetry.disabled()
        assert tel.histogram("repro_any_seconds") is NULL_HISTOGRAM
        # collectors are ignored: there is no registry to read them
        tel.collect(lambda: iter(()))
        assert tel.registry is None

    def test_null_instruments_swallow_records(self):
        NULL_HISTOGRAM.observe(1.0)
        assert NULL_HISTOGRAM.count == 0
        assert NULL_HISTOGRAM.sum == 0.0

    def test_disabled_spans_are_noops(self):
        tel = Telemetry.disabled()
        with tel.span("anything", x=1) as span:
            span.set_attribute("y", 2)
        assert len(tel.tracer) == 0
        assert tel.tracer.spans() == []

    def test_engine_defaults_to_disabled_telemetry(self):
        assert Engine().telemetry is Telemetry.disabled()


# ---------------------------------------------------------------------------
# Bridges: ControllerHealth and ControlEventLog
# ---------------------------------------------------------------------------


class TestBridges:
    def test_health_counters_mirror_into_registry(self):
        from repro.core.controller import ControllerHealth

        registry = MetricsRegistry()
        health = ControllerHealth()
        registry.add_collector(health.samples)
        health.degraded_ticks += 1
        health.rpc_retries += 3
        health.reconciliation_diff_total += 7
        health.note(1.0, "degraded", "row")
        assert health_summary_from_registry(registry) == health.summary()
        assert (
            registry.value("repro_controller_health_events_total", {"kind": "degraded"})
            == 1
        )

    def test_health_summary_covers_every_kind(self):
        from repro.core.controller import ControllerHealth

        assert set(HEALTH_KINDS) == set(ControllerHealth().summary())

    def test_health_pickles_without_registry_wiring(self):
        from repro.core.controller import ControllerHealth

        health = ControllerHealth()
        health.crashes += 1
        health.note(1.0, "crash", "*")
        clone = pickle.loads(pickle.dumps(health))
        assert clone.summary() == health.summary()
        assert clone.counts_by_kind() == {"crash": 1}
        clone.note(2.0, "recover", "*")
        assert clone.counts_by_kind() == {"crash": 1, "recover": 1}

    def test_event_log_mirrors_kind_counts(self):
        tel = Telemetry.create()
        engine = Engine(telemetry=tel)
        log = ControlEventLog(engine)
        log.record("freeze", 1)
        log.record("freeze", 2)
        log.record("unfreeze", 1)
        assert log.counts_by_kind() == {"freeze": 2, "unfreeze": 1}
        for kind, n in log.counts_by_kind().items():
            assert tel.registry.value(CONTROL_EVENTS_COUNTER, {"kind": kind}) == n
        assert tel.registry.value(CONTROL_EVENTS_COUNTER, {"kind": "trip"}) == 0

    def test_experiment_health_matches_registry_mirror(self):
        result = ControlledExperiment(
            small_config(telemetry_enabled=True)
        ).run()
        assert result.telemetry is not None
        assert (
            health_summary_from_registry(result.telemetry)
            == result.controller_health.summary()
        )


# ---------------------------------------------------------------------------
# Experiment integration
# ---------------------------------------------------------------------------

CORE_SERIES = (
    "repro_engine_events_total",
    "repro_engine_queue_depth",
    "repro_monitor_sweeps_total",
    "repro_controller_ticks_total",
    "repro_scheduler_rpc_total",
    "repro_scheduler_rpc_latency_seconds",
)


class TestExperimentIntegration:
    def test_enabled_run_exports_core_series(self):
        result = ControlledExperiment(small_config(telemetry_enabled=True)).run()
        text = render_prometheus(result.telemetry)
        for name in CORE_SERIES:
            assert name in text, name
        assert result.telemetry.value("repro_engine_events_total") > 0
        assert (
            result.telemetry.value(
                "repro_controller_ticks_total", {"group": "experiment"}
            )
            > 0
        )

    def test_disabled_run_has_no_registry(self):
        result = ControlledExperiment(small_config()).run()
        assert result.telemetry is None

    def test_telemetry_does_not_change_trajectories(self):
        on = ControlledExperiment(small_config(telemetry_enabled=True)).run()
        off = ControlledExperiment(small_config()).run()
        assert np.array_equal(
            on.experiment.normalized_power, off.experiment.normalized_power
        )
        assert np.array_equal(on.experiment.u_values, off.experiment.u_values)
        assert on.experiment.throughput == off.experiment.throughput
        assert on.r_t == off.r_t
        assert on.g_tpw == off.g_tpw

    def test_spans_cover_the_control_loop(self):
        experiment = ControlledExperiment(small_config(telemetry_enabled=True))
        experiment.run()
        summary = experiment.telemetry.tracer.summary()
        for name in ("engine.run", "monitor.sweep", "controller.tick"):
            assert name in summary, name
        # controller ticks happen once per monitor interval after warmup
        assert summary["controller.tick"]["count"] == summary["monitor.sweep"]["count"]

    def test_result_with_registry_pickles(self):
        result = ControlledExperiment(small_config(telemetry_enabled=True)).run()
        clone = pickle.loads(pickle.dumps(result.without_series()))
        assert render_prometheus(clone.telemetry) == render_prometheus(
            result.telemetry
        )


# ---------------------------------------------------------------------------
# Campaign merge determinism across the worker boundary
# ---------------------------------------------------------------------------


def tiny_campaign() -> Campaign:
    return Campaign(
        ratios=(0.2,),
        workloads={"w": WorkloadSpec(target_utilization=0.25)},
        seeds=(1, 2),
        n_servers=40,
        duration_hours=0.2,
        warmup_hours=0.05,
        telemetry=True,
    )


class TestCampaignTelemetry:
    def test_serial_rows_carry_registries(self):
        result = tiny_campaign().run()
        assert all(row.telemetry is not None for row in result.rows)

    def test_rows_exclude_registry_from_records(self):
        result = tiny_campaign().run()
        assert "telemetry" not in result.rows[0].as_record()

    def test_merged_telemetry_none_when_disabled(self):
        campaign = Campaign(
            ratios=(0.2,),
            workloads={"w": WorkloadSpec(target_utilization=0.25)},
            seeds=(1,),
            n_servers=40,
            duration_hours=0.2,
            warmup_hours=0.05,
        )
        assert campaign.run().merged_telemetry() is None

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_serial_and_parallel_merged_snapshots_identical(self, workers):
        campaign = tiny_campaign()
        serial = campaign.run().merged_telemetry()
        parallel = campaign.run_parallel(max_workers=workers).merged_telemetry()
        assert render_prometheus(parallel) == render_prometheus(serial)
        assert render_json(parallel) == render_json(serial)

    def test_rows_carry_a_copy_not_the_live_run(self):
        """A row's registry is a plain copy: pickling the row pickles no
        engine, no collector, and no more than the series themselves."""
        import dataclasses
        import io

        from repro.sim.staged import StagedRun

        class Spy(pickle.Pickler):
            def __init__(self, stream):
                super().__init__(stream, protocol=5)
                self.types = set()

            def reducer_override(self, obj):
                self.types.add(type(obj))
                return NotImplemented

        row = tiny_campaign().run().rows[0]
        spy = Spy(io.BytesIO())
        spy.dump(row)
        assert MetricsRegistry in spy.types
        assert not spy.types & {Engine, ControlledExperiment, StagedRun}
        assert row.telemetry._collectors == []
        plain = dataclasses.replace(
            row, telemetry=registry_from_snapshot(snapshot(row.telemetry))
        )
        assert len(pickle.dumps(row)) <= 1.1 * len(pickle.dumps(plain))

    def test_merged_counters_are_sums_of_cells(self):
        result = tiny_campaign().run()
        merged = result.merged_telemetry()
        total = sum(
            row.telemetry.value("repro_engine_events_total") for row in result.rows
        )
        assert merged.value("repro_engine_events_total") == total


# ---------------------------------------------------------------------------
# Logging setup
# ---------------------------------------------------------------------------


class TestLogging:
    def teardown_method(self):
        # configure_logging mutates the package logger; restore silence.
        logger = logging.getLogger("repro")
        for handler in list(logger.handlers):
            logger.removeHandler(handler)
        logger.setLevel(logging.NOTSET)

    def test_package_root_has_null_handler(self):
        import repro

        handlers = logging.getLogger("repro").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)
        assert repro is not None

    def test_configure_logging_emits_module_records(self):
        stream = io.StringIO()
        configure_logging("info", stream=stream)
        logging.getLogger("repro.sim.parallel").info("pool message")
        assert "INFO repro.sim.parallel: pool message" in stream.getvalue()

    def test_configure_logging_is_idempotent(self):
        stream = io.StringIO()
        configure_logging("warning", stream=stream)
        configure_logging("warning", stream=stream)
        logger = logging.getLogger("repro")
        stream_handlers = [
            h
            for h in logger.handlers
            if isinstance(h, logging.StreamHandler)
            and not isinstance(h, logging.NullHandler)
        ]
        assert len(stream_handlers) == 1

    def test_configure_logging_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            configure_logging("chatty")

    def test_level_filters_debug(self):
        stream = io.StringIO()
        configure_logging("warning", stream=stream, force=True)
        logging.getLogger("repro.monitor.power_monitor").debug("hidden")
        logging.getLogger("repro.monitor.power_monitor").warning("shown")
        out = stream.getvalue()
        assert "hidden" not in out
        assert "shown" in out


# ---------------------------------------------------------------------------
# Default buckets sanity
# ---------------------------------------------------------------------------


def test_default_time_buckets_are_sorted_and_subsecond_to_timeout():
    assert list(DEFAULT_TIME_BUCKETS) == sorted(DEFAULT_TIME_BUCKETS)
    assert DEFAULT_TIME_BUCKETS[0] <= 0.001
    assert DEFAULT_TIME_BUCKETS[-1] >= 10.0
