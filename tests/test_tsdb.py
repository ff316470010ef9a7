"""Tests for the in-memory time-series database."""

import numpy as np
import pytest

from repro.monitor.tsdb import TimeSeries, TimeSeriesDatabase


class TestTimeSeries:
    def test_append_and_last(self):
        series = TimeSeries("s")
        series.append(1.0, 10.0)
        series.append(2.0, 20.0)
        assert series.last() == (2.0, 20.0)
        assert series.last_value() == 20.0
        assert len(series) == 2

    def test_append_out_of_order_raises(self):
        series = TimeSeries("s")
        series.append(5.0, 1.0)
        with pytest.raises(ValueError, match="precedes"):
            series.append(4.0, 2.0)

    def test_equal_timestamps_allowed(self):
        series = TimeSeries("s")
        series.append(5.0, 1.0)
        series.append(5.0, 2.0)
        assert len(series) == 2

    def test_last_on_empty_raises(self):
        with pytest.raises(LookupError):
            TimeSeries("s").last()

    def test_range_query_half_open(self):
        series = TimeSeries("s")
        for t in range(10):
            series.append(float(t), float(t) * 10)
        times, values = series.range(2.0, 5.0)
        np.testing.assert_array_equal(times, [2.0, 3.0, 4.0])
        np.testing.assert_array_equal(values, [20.0, 30.0, 40.0])

    def test_range_query_open_ended(self):
        series = TimeSeries("s")
        for t in range(5):
            series.append(float(t), 0.0)
        times, _ = series.range()
        assert len(times) == 5
        times, _ = series.range(start=3.0)
        assert len(times) == 2
        times, _ = series.range(end=3.0)
        assert len(times) == 3

    def test_values_and_times_arrays(self):
        series = TimeSeries("s")
        series.append(1.0, 5.0)
        assert series.values().dtype == float
        assert series.times().tolist() == [1.0]


class TestTimeSeriesDatabase:
    def test_write_and_query(self):
        db = TimeSeriesDatabase()
        db.write("m", 1.0, 100.0)
        db.write("m", 2.0, 200.0)
        times, values = db.query("m")
        assert times.tolist() == [1.0, 2.0]
        assert values.tolist() == [100.0, 200.0]

    def test_unknown_metric_raises(self):
        db = TimeSeriesDatabase()
        with pytest.raises(KeyError):
            db.query("missing")
        with pytest.raises(KeyError):
            db.latest("missing")

    def test_series_get_or_create(self):
        db = TimeSeriesDatabase()
        series = db.series("a")
        assert db.series("a") is series
        assert "a" in db
        assert "b" not in db

    def test_names_sorted(self):
        db = TimeSeriesDatabase()
        db.write("z", 0.0, 0.0)
        db.write("a", 0.0, 0.0)
        assert db.names() == ["a", "z"]

    def test_latest(self):
        db = TimeSeriesDatabase()
        db.write("m", 1.0, 5.0)
        db.write("m", 2.0, 7.0)
        assert db.latest("m") == 7.0
