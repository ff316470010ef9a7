"""Tests for the discrete-event simulation engine."""

import pytest

from repro.sim.engine import Engine
from repro.sim.events import EventPriority


class TestScheduling:
    def test_events_run_in_time_order(self, engine):
        seen = []
        engine.schedule(5.0, EventPriority.GENERIC, seen.append, "b")
        engine.schedule(1.0, EventPriority.GENERIC, seen.append, "a")
        engine.schedule(9.0, EventPriority.GENERIC, seen.append, "c")
        engine.run()
        assert seen == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self, engine):
        times = []
        engine.schedule(3.5, EventPriority.GENERIC, lambda: times.append(engine.now))
        engine.run()
        assert times == [3.5]
        assert engine.now == 3.5

    def test_same_time_priority_tiebreak(self, engine):
        seen = []
        engine.schedule(1.0, EventPriority.CONTROLLER_TICK, seen.append, "controller")
        engine.schedule(1.0, EventPriority.JOB_COMPLETION, seen.append, "completion")
        engine.schedule(1.0, EventPriority.MONITOR_SAMPLE, seen.append, "monitor")
        engine.run()
        assert seen == ["completion", "monitor", "controller"]

    def test_same_time_same_priority_fifo(self, engine):
        seen = []
        for i in range(5):
            engine.schedule(1.0, EventPriority.GENERIC, seen.append, i)
        engine.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_schedule_in_past_raises(self, engine):
        engine.schedule(10.0, EventPriority.GENERIC, lambda: None)
        engine.run()
        with pytest.raises(ValueError, match="before current"):
            engine.schedule(5.0, EventPriority.GENERIC, lambda: None)

    def test_schedule_in_negative_delay_raises(self, engine):
        with pytest.raises(ValueError, match="non-negative"):
            engine.schedule_in(-1.0, EventPriority.GENERIC, lambda: None)

    def test_schedule_in_offsets_from_now(self, engine):
        seen = []
        engine.schedule(10.0, EventPriority.GENERIC,
                        lambda: engine.schedule_in(5.0, EventPriority.GENERIC,
                                                   lambda: seen.append(engine.now)))
        engine.run()
        assert seen == [15.0]

    def test_events_scheduled_during_run_execute(self, engine):
        seen = []

        def chain(n):
            seen.append(n)
            if n < 3:
                engine.schedule_in(1.0, EventPriority.GENERIC, chain, n + 1)

        engine.schedule(0.0, EventPriority.GENERIC, chain, 0)
        engine.run()
        assert seen == [0, 1, 2, 3]
        assert engine.now == 3.0


class TestCancellation:
    def test_cancelled_event_is_skipped(self, engine):
        seen = []
        handle = engine.schedule(1.0, EventPriority.GENERIC, seen.append, "x")
        handle.cancel()
        engine.run()
        assert seen == []

    def test_cancel_during_run(self, engine):
        seen = []
        later = engine.schedule(2.0, EventPriority.GENERIC, seen.append, "later")
        engine.schedule(1.0, EventPriority.GENERIC, later.cancel)
        engine.run()
        assert seen == []


class TestRunUntil:
    def test_run_until_stops_before_boundary_events(self, engine):
        seen = []
        engine.schedule(1.0, EventPriority.GENERIC, seen.append, "a")
        engine.schedule(5.0, EventPriority.GENERIC, seen.append, "b")
        engine.run(until=5.0)
        assert seen == ["a"]
        assert engine.now == 5.0

    def test_run_until_composes(self, engine):
        seen = []
        engine.schedule(1.0, EventPriority.GENERIC, seen.append, "a")
        engine.schedule(5.0, EventPriority.GENERIC, seen.append, "b")
        engine.run(until=3.0)
        engine.run(until=10.0)
        assert seen == ["a", "b"]

    def test_run_until_advances_clock_with_no_events(self, engine):
        engine.run(until=42.0)
        assert engine.now == 42.0

    def test_reentrant_run_raises(self, engine):
        def nested():
            engine.run()

        engine.schedule(1.0, EventPriority.GENERIC, nested)
        with pytest.raises(RuntimeError, match="already running"):
            engine.run()


class TestPeriodic:
    def test_periodic_fires_at_interval(self, engine):
        times = []
        engine.schedule_periodic(
            10.0, EventPriority.GENERIC, lambda: times.append(engine.now), until=45.0
        )
        engine.run()
        assert times == [10.0, 20.0, 30.0, 40.0]

    def test_periodic_first_at(self, engine):
        times = []
        engine.schedule_periodic(
            10.0,
            EventPriority.GENERIC,
            lambda: times.append(engine.now),
            first_at=5.0,
            until=30.0,
        )
        engine.run()
        assert times == [5.0, 15.0, 25.0]

    def test_periodic_requires_positive_interval(self, engine):
        with pytest.raises(ValueError, match="positive"):
            engine.schedule_periodic(0.0, EventPriority.GENERIC, lambda: None)

    def test_periodic_without_until_runs_to_horizon(self, engine):
        count = [0]

        def tick():
            count[0] += 1

        engine.schedule_periodic(1.0, EventPriority.GENERIC, tick)
        engine.run(until=10.5)
        assert count[0] == 10


class TestBookkeeping:
    def test_events_processed_counts(self, engine):
        for i in range(7):
            engine.schedule(float(i), EventPriority.GENERIC, lambda: None)
        engine.run()
        assert engine.events_processed == 7

    def test_pending_count(self, engine):
        engine.schedule(1.0, EventPriority.GENERIC, lambda: None)
        engine.schedule(2.0, EventPriority.GENERIC, lambda: None)
        assert engine.pending_count() == 2

    def test_start_time(self):
        engine = Engine(start_time=100.0)
        assert engine.now == 100.0
        with pytest.raises(ValueError):
            engine.schedule(50.0, EventPriority.GENERIC, lambda: None)
