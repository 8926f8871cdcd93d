"""The metrics layer: counters, gauges, histograms, snapshots."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.serve.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RateView,
)


class TestCounterGauge:
    def test_counter_monotonic(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_gauge_set_add(self):
        gauge = Gauge()
        gauge.set(3.5)
        gauge.add(1.5)
        assert gauge.value == 5.0


class TestHistogram:
    def test_exact_quantiles_small_n(self):
        hist = Histogram()
        for value in range(1, 101):          # 1..100
            hist.observe(float(value))
        summary = hist.summary()
        assert summary["count"] == 100
        assert summary["min"] == 1.0
        assert summary["max"] == 100.0
        assert summary["p50"] in (50.0, 51.0)
        assert summary["p95"] in (95.0, 96.0)
        assert summary["p50"] <= summary["p95"] <= summary["p99"]

    def test_empty_histogram_summary(self):
        summary = Histogram().summary()
        assert summary["count"] == 0
        assert summary["p99"] == 0.0

    def test_reservoir_keeps_count_past_capacity(self):
        hist = Histogram(capacity=16)
        for value in range(1000):
            hist.observe(float(value))
        assert hist.count == 1000
        assert len(hist._samples) == 16
        summary = hist.summary()
        assert summary["min"] == 0.0 and summary["max"] == 999.0


class TestRegistry:
    def test_same_name_same_metric(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc()
        assert registry.counter("a").value == 2

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(3)
        registry.gauge("depth").set(7)
        registry.histogram("latency_ms").observe(1.5)
        snapshot = registry.snapshot()
        encoded = json.loads(json.dumps(snapshot))
        assert encoded["counters"]["requests"] == 3
        assert encoded["gauges"]["depth"] == 7
        assert encoded["histograms"]["latency_ms"]["count"] == 1


class TestRateView:
    def test_windowed_rate_over_steady_increments(self):
        counter = Counter()
        view = RateView(counter, window_ms=100.0)
        # 10 increments every 10 ms -> 1000 increments/s.
        for tick in range(0, 200, 10):
            view.sample(float(tick))
            counter.inc(10)
        view.sample(200.0)
        assert view.rate_per_s() == pytest.approx(1000.0)

    def test_window_prunes_old_samples(self):
        counter = Counter()
        view = RateView(counter, window_ms=50.0)
        counter.inc(1000)
        view.sample(0.0)                 # burst long before the window
        for tick in range(100, 200, 10):
            view.sample(float(tick))     # counter flat ever since
        assert view.rate_per_s() == 0.0

    def test_non_advancing_time_ignored(self):
        counter = Counter()
        view = RateView(counter)
        view.sample(10.0)
        counter.inc(5)
        view.sample(10.0)                # same instant: dropped
        view.sample(5.0)                 # going backwards: dropped
        assert view.rate_per_s() == 0.0  # still a single sample

    def test_cold_view_reads_zero(self):
        view = RateView(Counter())
        assert view.rate_per_s() == 0.0
        assert view.summary() == {"windowed_per_s": 0.0}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RateView(Counter(), window_ms=0.0)
        with pytest.raises(ConfigurationError):
            RateView(Counter(), window_ms=-1.0)

    def test_registry_hands_out_one_view_per_name(self):
        registry = MetricsRegistry()
        view = registry.rate_view("requests.offered")
        again = registry.rate_view("requests.offered")
        assert view is again
        registry.counter("requests.offered").inc(10)
        view.sample(0.0)
        registry.counter("requests.offered").inc(10)
        view.sample(10.0)
        snapshot = registry.snapshot()
        assert snapshot["rates"]["requests.offered"][
            "windowed_per_s"
        ] == pytest.approx(1000.0)
