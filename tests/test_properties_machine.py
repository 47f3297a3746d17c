"""Property-based tests of machine-level invariants (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hierarchy import HierarchicalScheduler
from repro.core.structure import SchedulingStructure
from repro.cpu.costs import LinearCostModel
from repro.cpu.interrupts import PeriodicInterruptSource
from repro.cpu.machine import Machine
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.sim.engine import Simulator
from repro.threads.segments import Compute, SegmentListWorkload, SleepFor
from repro.threads.states import ThreadState
from repro.threads.thread import SimThread
from repro.trace.recorder import Recorder
from repro.units import MS, SECOND, US, work_from_time

CAPACITY = 1_000_000
#: one instruction per ns, so a horizon splits a burst without rounding
FAST_CAPACITY = 1_000_000_000
KILO = 1000

# random workloads: alternate compute/sleep segments
segment_scripts = st.lists(
    st.lists(st.tuples(st.integers(1, 40), st.integers(0, 30)),
             min_size=1, max_size=6),
    min_size=1, max_size=4)
weight_values = st.lists(st.integers(1, 8), min_size=4, max_size=4)


def build_machine(scripts, weights, capacity=CAPACITY, cost_model=None):
    structure = SchedulingStructure()
    leaf = structure.mknod("/apps", 1, scheduler=SfqScheduler())
    engine = Simulator()
    recorder = Recorder()
    machine = Machine(engine, HierarchicalScheduler(structure),
                      capacity_ips=capacity, default_quantum=10 * MS,
                      cost_model=cost_model, tracer=recorder)
    threads = []
    for index, script in enumerate(scripts):
        segments = []
        for compute_kilo, sleep_ms in script:
            # compute_kilo ms of CPU whatever the capacity
            segments.append(Compute(work_from_time(compute_kilo * MS,
                                                   capacity)))
            if sleep_ms:
                segments.append(SleepFor(sleep_ms * MS))
        thread = SimThread("t%d" % index, SegmentListWorkload(segments),
                           weight=weights[index % len(weights)])
        leaf.attach_thread(thread)
        machine.spawn(thread)
        threads.append(thread)
    return machine, engine, recorder, threads


class TestMachineInvariants:
    @given(segment_scripts, weight_values)
    @settings(max_examples=60, deadline=None)
    def test_all_work_eventually_done(self, scripts, weights):
        machine, engine, recorder, threads = build_machine(scripts, weights)
        machine.run_until(60 * SECOND)
        for thread, script in zip(threads, scripts):
            expected = sum(k * KILO for k, __ in script)
            assert thread.state is ThreadState.EXITED
            assert thread.stats.work_done == expected

    @given(segment_scripts, weight_values)
    @settings(max_examples=60, deadline=None)
    def test_time_accounting_partitions_elapsed(self, scripts, weights):
        machine, engine, recorder, threads = build_machine(scripts, weights)
        machine.run_until(60 * SECOND)
        stats = machine.stats
        assert stats.busy_time >= 0
        assert stats.idle_time(engine.now) >= 0
        assert (stats.busy_time + stats.interrupt_time + stats.overhead_time
                + stats.idle_time(engine.now)) == engine.now

    @given(segment_scripts, weight_values, st.integers(100, 50_000),
           st.floats(0.01, 0.9), st.integers(0, 50_000),
           st.lists(st.integers(1, 400_000), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_time_accounting_exact_at_every_horizon(
            self, scripts, weights, period_us, load, phase_us, horizons_us):
        machine, engine, recorder, threads = build_machine(scripts, weights)
        period = period_us * 1000
        machine.add_interrupt_source(PeriodicInterruptSource(
            period, max(1, int(period * load)), phase=phase_us * 1000))
        stats = machine.stats
        for horizon in sorted(set(horizons_us)):
            machine.run_until(horizon * 1000)
            assert stats.idle_time(engine.now) >= 0
            assert (stats.busy_time + stats.interrupt_time
                    + stats.overhead_time
                    + stats.idle_time(engine.now)) == engine.now

    @given(segment_scripts, weight_values,
           st.tuples(st.integers(0, 200), st.integers(0, 100),
                     st.integers(0, 200)),
           st.integers(100, 50_000), st.floats(0.01, 0.9),
           st.integers(0, 50_000),
           st.lists(st.integers(1, 1_500_000), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_dispatch_overhead_exact_at_every_horizon(
            self, scripts, weights, costs_us, period_us, load, phase_us,
            horizons_us):
        base_us, per_level_us, switch_us = costs_us
        period = period_us * 1000

        def run(horizons):
            machine, engine, recorder, threads = build_machine(
                scripts, weights, capacity=FAST_CAPACITY,
                cost_model=LinearCostModel(base_us * US, per_level_us * US,
                                           switch_us * US))
            machine.add_interrupt_source(PeriodicInterruptSource(
                period, max(1, int(period * load)), phase=phase_us * 1000))
            for horizon in horizons:
                machine.run_until(horizon)
                assert machine.stats.idle_time(horizon) >= 0
            stats = machine.stats
            return ([getattr(stats, name) for name in stats.__slots__],
                    [(t.stats.work_done, t.stats.exited_at, t.stats.cpu_time)
                     for t in threads])

        end = 2 * SECOND
        split = sorted({horizon * 1000 for horizon in horizons_us}) + [end]
        assert run(split) == run([end])

    @given(segment_scripts, weight_values)
    @settings(max_examples=40, deadline=None)
    def test_busy_time_matches_work(self, scripts, weights):
        machine, engine, recorder, threads = build_machine(scripts, weights)
        machine.run_until(60 * SECOND)
        total_work = sum(t.stats.work_done for t in threads)
        # capacity 1e6: 1 instruction per microsecond; rounding at slice
        # boundaries allows ~1 us per dispatch
        slack = machine.stats.dispatches * 1000 + 1000
        assert abs(machine.stats.busy_time - total_work * 1000) <= slack

    @given(segment_scripts, weight_values)
    @settings(max_examples=40, deadline=None)
    def test_trace_slices_are_disjoint_and_ordered(self, scripts, weights):
        machine, engine, recorder, threads = build_machine(scripts, weights)
        machine.run_until(60 * SECOND)
        all_slices = []
        for thread in threads:
            trace = recorder.trace_of(thread)
            for t0, t1, work in trace.slices:
                assert 0 <= t0 <= t1
                assert work > 0
                all_slices.append((t0, t1))
        all_slices.sort()
        for (a0, a1), (b0, b1) in zip(all_slices, all_slices[1:]):
            assert a1 <= b0  # one CPU: no overlapping execution

    @given(segment_scripts, weight_values)
    @settings(max_examples=40, deadline=None)
    def test_service_curves_match_stats(self, scripts, weights):
        machine, engine, recorder, threads = build_machine(scripts, weights)
        machine.run_until(60 * SECOND)
        for thread in threads:
            trace = recorder.trace_of(thread)
            assert trace.total_work == thread.stats.work_done
