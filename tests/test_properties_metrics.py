"""Property-based tests of trace metrics and workload generators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import events as ev
from repro.trace.recorder import Recorder
from repro.units import MS, SECOND
from repro.workloads.mpeg import MpegVbrModel
from repro.workloads.periodic import PeriodicWorkload


def build_trace(gaps_and_lengths):
    """Feed a Recorder one thread's slice records from (gap, length, work)
    specs; returns that thread's trace and the last slice end."""
    recorder = Recorder()
    t = 0
    for gap, length, work in gaps_and_lengths:
        t += gap
        recorder.capture(ev.SLICE_SHAPE, t + length,
                         (1, "t1", "/", 0, t, work))
        t += length
    return recorder.threads[1], t


slice_specs = st.lists(
    st.tuples(st.integers(0, 1000), st.integers(1, 1000),
              st.integers(1, 10_000)),
    min_size=1, max_size=60)


class TestServiceCurveProperties:
    @given(slice_specs)
    @settings(max_examples=150, deadline=None)
    def test_service_curve_monotone(self, specs):
        trace, horizon = build_trace(specs)
        last = -1.0
        for t in range(0, horizon + 2, max(1, horizon // 200)):
            value = trace.service_at(t)
            assert value >= last
            last = value

    @given(slice_specs)
    @settings(max_examples=150, deadline=None)
    def test_total_equals_curve_limit(self, specs):
        trace, horizon = build_trace(specs)
        assert trace.service_at(horizon + 10) == trace.total_work

    @given(slice_specs, st.integers(0, 5000), st.integers(0, 5000))
    @settings(max_examples=150, deadline=None)
    def test_work_in_additive(self, specs, a, b):
        trace, horizon = build_trace(specs)
        t1, t2 = sorted((a % (horizon + 1), b % (horizon + 1)))
        mid = (t1 + t2) // 2
        left = trace.work_in(t1, mid)
        right = trace.work_in(mid, t2)
        assert left + right == pytest.approx(trace.work_in(t1, t2),
                                             abs=1e-6)

    @given(slice_specs)
    @settings(max_examples=100, deadline=None)
    def test_work_in_never_negative(self, specs):
        trace, horizon = build_trace(specs)
        step = max(1, horizon // 50)
        for t in range(0, horizon, step):
            assert trace.work_in(t, min(horizon, t + step)) >= -1e-9


class TestPeriodicProperties:
    @given(st.integers(1, 100), st.integers(1, 1000), st.integers(0, 500))
    @settings(max_examples=150, deadline=None)
    def test_release_and_deadline_arithmetic(self, period_ms, cost, offset_ms):
        period = period_ms * MS
        offset = offset_ms * MS
        workload = PeriodicWorkload(period=period, cost=cost, offset=offset)
        for k in range(5):
            assert workload.release_time(k) == offset + k * period
            assert workload.deadline(k) == workload.release_time(k + 1)


class TestMpegModelProperties:
    @given(st.integers(0, 10_000), st.integers(1, 200))
    @settings(max_examples=40, deadline=None)
    def test_costs_positive_and_deterministic(self, seed, count):
        a = MpegVbrModel(seed=seed).frame_costs(count)
        b = MpegVbrModel(seed=seed).frame_costs(count)
        assert a == b
        assert all(cost >= 1 for cost in a)

    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_gop_cycle(self, seed):
        model = MpegVbrModel(seed=seed)
        assert model.frame_type(0) == "I"
        assert model.frame_type(len(model.gop)) == "I"

