"""Metrics registry: counters, gauges, histogram percentile math."""

import pytest

from repro.obs import events as ev
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SchedulerMetrics,
)


class TestCounterAndGauge:
    def test_counter_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_counter_rejects_negative_increments(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.set(3)
        assert gauge.value == 3


class TestHistogram:
    def test_bounds_must_be_strictly_increasing(self):
        with pytest.raises(ValueError):
            Histogram("h", (10, 10, 20))
        with pytest.raises(ValueError):
            Histogram("h", (20, 10))
        with pytest.raises(ValueError):
            Histogram("h", ())

    def test_rejects_negative_observations(self):
        with pytest.raises(ValueError):
            Histogram("h", (10,)).observe(-1)

    def test_bucket_edges_are_inclusive_upper(self):
        hist = Histogram("h", (10, 20))
        hist.observe(10)   # lands in the [0, 10] bucket
        hist.observe(11)   # lands in the (10, 20] bucket
        hist.observe(21)   # lands in the overflow bucket
        assert hist.counts == [1, 1, 1]

    def test_summary_statistics(self):
        hist = Histogram("h", (10, 20, 30))
        for value in (5, 10, 25):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == 40
        assert hist.min_value == 5
        assert hist.max_value == 25
        assert hist.mean == pytest.approx(40 / 3)

    def test_percentiles_exact_at_bucket_edges(self):
        # One observation on each bucket's upper edge: the interpolation
        # is exact, so percentile ranks map to the edges themselves.
        hist = Histogram("h", (10, 20, 30, 40))
        for value in (10, 20, 30, 40):
            hist.observe(value)
        assert hist.percentile(25) == 10
        assert hist.percentile(50) == 20
        assert hist.percentile(75) == 30
        assert hist.percentile(100) == 40

    def test_percentile_interpolates_within_a_bucket(self):
        hist = Histogram("h", (100,))
        for __ in range(4):
            hist.observe(100)
        # All mass in [0, 100]: p50 targets rank 2 of 4 -> halfway up.
        assert hist.percentile(50) == 50

    def test_overflow_bucket_reports_max_observed(self):
        hist = Histogram("h", (10,))
        hist.observe(5)
        hist.observe(1_000)
        assert hist.percentile(99) == 1_000
        assert hist.max_value == 1_000

    def test_empty_histogram_is_calm(self):
        hist = Histogram("h", (10,))
        assert hist.mean == 0.0
        assert hist.percentile(50) == 0.0
        snap = hist.snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None

    def test_percentile_range_checked(self):
        hist = Histogram("h", (10,))
        with pytest.raises(ValueError):
            hist.percentile(101)
        with pytest.raises(ValueError):
            hist.percentile(-1)

    def test_snapshot_shape(self):
        hist = Histogram("h", (10, 20))
        hist.observe(15)
        snap = hist.snapshot()
        assert snap["type"] == "histogram"
        assert [b["le"] for b in snap["buckets"]] == [10, 20, "inf"]
        assert sum(b["count"] for b in snap["buckets"][:-1]) == 1


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_type_conflicts_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ValueError):
            registry.gauge("a")
        with pytest.raises(ValueError):
            registry.histogram("a")

    def test_snapshot_and_render(self):
        registry = MetricsRegistry()
        registry.counter("n.count").inc(3)
        registry.gauge("n.level").set(7)
        registry.histogram("n.lat", (10,)).observe(4)
        snap = registry.snapshot()
        assert snap["n.count"] == 3
        assert snap["n.level"] == 7
        assert snap["n.lat"]["count"] == 1
        text = registry.render()
        assert "n.count" in text and "n.lat" in text
        assert registry.names() == ["n.count", "n.lat", "n.level"]


class TestSchedulerMetrics:
    def feed(self, metrics, kind, time, **data):
        metrics.capture(ev.Shape(kind, tuple(data)), time,
                        tuple(data.values()))

    def test_dispatch_latency_from_runnable(self):
        metrics = SchedulerMetrics()
        self.feed(metrics, ev.RUNNABLE, 100, tid=1)
        self.feed(metrics, ev.DISPATCH, 350, tid=1, quantum_work=1_000)
        hist = metrics.registry.histogram("sched.dispatch_latency_ns")
        assert hist.count == 1
        assert hist.total == 250

    def test_run_delay_from_wake(self):
        metrics = SchedulerMetrics()
        self.feed(metrics, ev.WAKE, 500, tid=2)
        self.feed(metrics, ev.DISPATCH, 900, tid=2, quantum_work=1_000)
        hist = metrics.registry.histogram("sched.run_delay_ns")
        assert hist.count == 1
        assert hist.total == 400

    def test_quantum_overrun_is_clamped_at_zero(self):
        metrics = SchedulerMetrics()
        self.feed(metrics, ev.DISPATCH, 0, tid=1, quantum_work=1_000)
        self.feed(metrics, ev.CHARGE, 10, tid=1, work=400)  # under-run
        self.feed(metrics, ev.DISPATCH, 20, tid=1, quantum_work=1_000)
        self.feed(metrics, ev.CHARGE, 30, tid=1, work=1_500)  # over-run
        overrun = metrics.registry.histogram("sched.quantum_overrun_work")
        assert overrun.count == 2
        assert overrun.total == 500

    def test_counters_follow_the_stream(self):
        metrics = SchedulerMetrics()
        self.feed(metrics, ev.PREEMPT, 0, tid=1)
        self.feed(metrics, ev.INTERRUPT, 1, cpu=0, service=700)
        self.feed(metrics, ev.VIOLATION, 2, rule="x", node="/")
        snap = metrics.registry.snapshot()
        assert snap["sched.preemptions"] == 1
        assert snap["sched.interrupts"] == 1
        assert snap["sched.interrupt_ns"] == 700
        assert snap["sched.violations"] == 1

    def test_exit_cleans_pending_state(self):
        metrics = SchedulerMetrics()
        self.feed(metrics, ev.RUNNABLE, 0, tid=9)
        self.feed(metrics, ev.WAKE, 0, tid=9)
        self.feed(metrics, ev.EXIT, 5, tid=9)
        self.feed(metrics, ev.DISPATCH, 10, tid=9, quantum_work=0)
        # The stale runnable/wake stamps were dropped at exit, so the
        # dispatch after respawn-with-same-tid records no latency sample.
        assert metrics.registry.histogram("sched.dispatch_latency_ns").count == 0
        assert metrics.registry.histogram("sched.run_delay_ns").count == 0
