"""Tracing: recorder, metrics, timeline."""

import pytest

from repro.obs import events as ev
from repro.threads.segments import Compute, SleepFor
from repro.trace.metrics import (
    common_runnable_intervals,
    cumulative_work_series,
    marker_rate,
    node_work,
    response_times,
    throughput_series,
)
from repro.trace.recorder import Recorder
from repro.trace.timeline import execution_order, merge_timeline
from repro.units import MS, SECOND

KILO = 1000


def trace_from(*events):
    """The trace a Recorder builds from ``(kind, time, fields)`` records
    of one thread (tid 1)."""
    recorder = Recorder()
    for kind, time, fields in events:
        data = dict(fields, tid=1)
        recorder.capture(ev.Shape(kind, tuple(data)), time,
                         tuple(data.values()))
    return recorder.threads[1]


def slice_event(t0, t1, work):
    return (ev.SLICE, t1, {"node": "/", "start": t0, "work": work})


class TestServiceCurve:
    def make_trace(self):
        return trace_from(slice_event(0, 10 * MS, 10 * KILO),
                          slice_event(20 * MS, 30 * MS, 10 * KILO))

    def test_total_work(self):
        assert self.make_trace().total_work == 20 * KILO

    def test_service_at_boundaries(self):
        trace = self.make_trace()
        assert trace.service_at(0) == 0
        assert trace.service_at(10 * MS) == 10 * KILO
        assert trace.service_at(15 * MS) == 10 * KILO  # idle gap
        assert trace.service_at(30 * MS) == 20 * KILO
        assert trace.service_at(SECOND) == 20 * KILO

    def test_service_interpolates_inside_slice(self):
        trace = self.make_trace()
        assert trace.service_at(5 * MS) == pytest.approx(5 * KILO)
        assert trace.service_at(25 * MS) == pytest.approx(15 * KILO)

    def test_service_before_first_slice(self):
        trace = self.make_trace()
        assert trace.service_at(-1) == 0

    def test_work_in_interval(self):
        trace = self.make_trace()
        assert trace.work_in(0, 30 * MS) == 20 * KILO
        assert trace.work_in(5 * MS, 25 * MS) == pytest.approx(10 * KILO)
        with pytest.raises(ValueError):
            trace.work_in(10, 5)


class TestRunnableIntervals:
    def test_open_interval_closed_at_horizon(self):
        trace = trace_from((ev.RUNNABLE, 10, {}))
        assert trace.runnable_intervals(100) == [(10, 100)]

    def test_paired_with_blocks(self):
        trace = trace_from((ev.RUNNABLE, 10, {}), (ev.BLOCK, 30, {}),
                           (ev.RUNNABLE, 50, {}))
        assert trace.runnable_intervals(100) == [(10, 30), (50, 100)]

    def test_exit_ends_interval(self):
        trace = trace_from((ev.RUNNABLE, 10, {}), (ev.EXIT, 40, {}))
        assert trace.runnable_intervals(100) == [(10, 40)]

    def test_common_intervals(self):
        a = trace_from((ev.RUNNABLE, 0, {}), (ev.BLOCK, 30, {}),
                       (ev.RUNNABLE, 60, {}))
        b = trace_from((ev.RUNNABLE, 10, {}), (ev.BLOCK, 80, {}))
        assert common_runnable_intervals(a, b, 100) == [(10, 30), (60, 80)]


class TestMetricsOnMachine:
    def run_two(self):
        from tests.conftest import Harness
        harness = Harness()
        a = harness.spawn_dhrystone("a", weight=1)
        b = harness.spawn_dhrystone("b", weight=1)
        harness.machine.run_until(SECOND)
        return harness, a, b

    def test_throughput_series_sums_to_capacity(self):
        harness, a, b = self.run_two()
        sa = throughput_series(harness.recorder, a, 100 * MS, SECOND)
        sb = throughput_series(harness.recorder, b, 100 * MS, SECOND)
        for wa, wb in zip(sa, sb):
            assert wa + wb == pytest.approx(100 * KILO, rel=0.01)

    def test_cumulative_series_monotone(self):
        harness, a, __ = self.run_two()
        series = cumulative_work_series(harness.recorder, a, 100 * MS, SECOND)
        values = [w for __, w in series]
        assert values == sorted(values)
        assert len(series) == 11

    def test_node_work_aggregates(self):
        harness, a, b = self.run_two()
        total = node_work(harness.recorder, [a, b], 0, SECOND)
        assert total == pytest.approx(1000 * KILO, rel=0.01)

    def test_marker_rate(self):
        harness, a, __ = self.run_two()
        a.stats.markers["frames"] = 50
        assert marker_rate(a, "frames", SECOND) == 50.0
        assert marker_rate(a, "missing", SECOND) == 0.0

    def test_marker_rate_scales_with_elapsed_ns(self):
        """Regression: the per-second normalization must use the SECOND
        units constant, not an ad-hoc literal — markers/s over any
        window length."""
        harness, a, __ = self.run_two()
        a.stats.markers["frames"] = 50
        assert marker_rate(a, "frames", 2 * SECOND) == 25.0
        assert marker_rate(a, "frames", SECOND // 2) == 100.0
        assert marker_rate(a, "frames", 0) == 0.0

    def test_response_times(self):
        from tests.conftest import Harness
        harness = Harness()
        segments = []
        for __ in range(5):
            segments.append(Compute(KILO))
            segments.append(SleepFor(20 * MS))
        t = harness.spawn_segments("i", segments)
        harness.machine.run_until(SECOND)
        times = response_times(harness.recorder, t)
        assert len(times) == 4  # 4 wakeups followed by a completion
        assert all(rt == 1 * MS for rt in times)


class TestTimeline:
    def test_merge_coalesces_adjacent_same_thread(self):
        from tests.conftest import Harness
        harness = Harness()
        # single thread: many quanta but one coalesced run
        t = harness.spawn_segments("solo", [Compute(50 * KILO)])
        harness.machine.run_until(SECOND)
        merged = merge_timeline(harness.recorder, [t])
        assert merged == [(0, 50 * MS, t)]

    def test_execution_order_alternation(self):
        from tests.conftest import Harness
        harness = Harness()
        a = harness.spawn_segments("a", [Compute(20 * KILO)])
        b = harness.spawn_segments("b", [Compute(20 * KILO)])
        harness.machine.run_until(SECOND)
        assert execution_order(harness.recorder, [a, b]) == \
            ["a", "b", "a", "b"]

    def test_recorder_interrupt_totals(self):
        recorder = Recorder()
        recorder.capture(ev.INTERRUPT_SHAPE, 0, (0, 5))
        recorder.capture(ev.INTERRUPT_SHAPE, 10, (0, 7))
        assert recorder.total_interrupt_time() == 12
        assert recorder.interrupts == [(0, 5), (10, 7)]


class TestRecorderCapture:
    """``capture`` is the recorder's one entry point; a record of a
    machine kind in another shape is read into it by field name."""

    RECORDS = [
        (ev.SPAWN_SHAPE, 0, (1, "a", "/x", 1)),
        (ev.RUNNABLE_SHAPE, 0, (1, "/x")),
        (ev.DISPATCH_SHAPE, 1, (1, "a", "/x", 0, 1, True, 0, 500)),
        (ev.TAG_UPDATE_SHAPE, 5, ("/x", 0.0, 1.0, 400)),
        (ev.VTIME_ADVANCE_SHAPE, 5, ("/", 0.5)),
        (ev.SLICE_SHAPE, 5, (1, "a", "/x", 0, 1, 400)),
        (ev.CHARGE_SHAPE, 5, (1, "/x", 400, True)),
        (ev.BLOCK_SHAPE, 5, (1, "/x", -1)),
        (ev.INTERRUPT_SHAPE, 7, (0, 3)),
        (ev.WAKE_SHAPE, 9, (1, "/x")),
        (ev.PREEMPT_SHAPE, 10, (1, "/x")),
        (ev.EXIT_SHAPE, 12, (1, "/x")),
        (ev.RUNNABLE_SHAPE, 13, (2, "/y")),
    ]

    def test_capture_and_events_fold_alike(self):
        # the same records in equal shapes that are not the catalogue's
        # objects (as a generic binlog record reads back) take the
        # by-name route and fold alike
        from tests.goldens import recorder_lines
        captured, called = Recorder(), Recorder()
        for shape, time, values in self.RECORDS:
            captured.capture(shape, time, values)
            called.capture(ev.Shape(shape.kind, shape.fields), time, values)
        assert recorder_lines(captured) == recorder_lines(called)
        trace = captured.threads[1]
        assert trace.name == "a"
        assert (trace.spawned_at, trace.exited_at) == (0, 12)
        assert trace.slices == [(1, 5, 400)]
        assert trace.slice_nodes == ["/x"]
        assert trace.charges == [(5, 400)]
        assert trace.segment_completions == [5]
        assert trace.dispatches == [1] and trace.blocks == [5]
        assert trace.wakes == [9] and trace.runnables == [0]
        assert captured.interrupts == [(7, 3)]
        assert captured.threads[2].name == "t2"

    def test_another_shape_of_a_machine_kind_is_read_by_name(self):
        recorder = Recorder()
        recorder.capture(ev.Shape(ev.SLICE, ("work", "start", "tid", "node")),
                         9, (300, 4, 2, "/y"))
        assert recorder.threads[2].slices == [(4, 9, 300)]
        assert recorder.threads[2].slice_nodes == ["/y"]
        assert recorder.threads[2].name == "t2"
