"""Machine edge cases: horizon interactions, float-tag hierarchies,
repeated run_until, interrupts straddling windows, pause edges."""

import pytest

from repro.core.hierarchy import (PREEMPT_LEAF, PREEMPT_NONE,
                                  HierarchicalScheduler)
from repro.core.structure import SchedulingStructure
from repro.core.tags import FLOAT, TagMath
from repro.cpu.costs import LinearCostModel
from repro.cpu.interrupts import PoissonInterruptSource
from repro.cpu.machine import Machine
from repro.schedulers.edf import EdfScheduler
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.sim.engine import Simulator
from repro.sim.rng import make_rng
from repro.threads.segments import Compute, SegmentListWorkload, SleepFor
from repro.threads.states import ThreadState
from repro.threads.thread import SimThread
from repro.trace.recorder import Recorder
from repro.units import MS, SECOND, US
from repro.workloads.dhrystone import DhrystoneWorkload

KILO = 1000


class TestFloatTagHierarchy:
    """The whole structure can run in float mode end to end."""

    def build(self):
        structure = SchedulingStructure(tag_math=FLOAT)
        leaf_a = structure.mknod("/a", 1,
                                 scheduler=SfqScheduler(tag_math=FLOAT))
        leaf_b = structure.mknod("/b", 3,
                                 scheduler=SfqScheduler(tag_math=FLOAT))
        engine = Simulator()
        machine = Machine(engine, HierarchicalScheduler(structure),
                          capacity_ips=1_000_000, default_quantum=10 * MS,
                          tracer=Recorder())
        return structure, leaf_a, leaf_b, machine

    def test_weighted_split_in_float_mode(self):
        structure, leaf_a, leaf_b, machine = self.build()
        ta = SimThread("a", DhrystoneWorkload(loop_cost=100, batch=10))
        tb = SimThread("b", DhrystoneWorkload(loop_cost=100, batch=10))
        leaf_a.attach_thread(ta)
        leaf_b.attach_thread(tb)
        machine.spawn(ta)
        machine.spawn(tb)
        machine.run_until(2 * SECOND)
        assert tb.stats.work_done == pytest.approx(3 * ta.stats.work_done,
                                                   rel=0.01)

    def test_internal_queue_uses_float_tags(self):
        structure, leaf_a, leaf_b, machine = self.build()
        ta = SimThread("a", DhrystoneWorkload(loop_cost=100, batch=10))
        leaf_a.attach_thread(ta)
        machine.spawn(ta)
        machine.run_until(100 * MS)
        assert isinstance(structure.root.queue.finish_tag(leaf_a), float)


class TestHorizonInteractions:
    def test_repeated_run_until_consistent(self, harness):
        thread = harness.spawn_dhrystone("t")
        totals = []
        for stop_ms in (137, 450, 451, 999, 2000):
            harness.machine.run_until(stop_ms * MS)
            totals.append(thread.stats.work_done)
        # monotone and exact at every horizon (1 instruction rounding)
        assert totals == sorted(totals)
        for stop_ms, total in zip((137, 450, 451, 999, 2000), totals):
            assert abs(total - stop_ms * KILO) <= len(totals)

    def test_wakeup_exactly_at_horizon(self, harness):
        thread = harness.spawn_segments(
            "t", [Compute(KILO), SleepFor(99 * MS), Compute(KILO)])
        harness.machine.run_until(100 * MS)
        # the wake at t=100ms fires (events at the horizon run)
        assert thread.state in (ThreadState.RUNNABLE, ThreadState.RUNNING)
        harness.machine.run_until(SECOND)
        assert thread.state is ThreadState.EXITED

    def test_flush_while_paused_by_interrupt(self, harness):
        thread = harness.spawn_segments("t", [Compute(50 * KILO)])
        harness.engine.at(5 * MS, lambda: harness.machine.interrupt(20 * MS))
        # horizon lands inside the interrupt-service window
        harness.machine.run_until(10 * MS)
        stats = harness.machine.stats
        assert thread.stats.work_done == 5 * KILO
        # only the service before the horizon is booked
        assert stats.interrupt_time == 5 * MS
        assert stats.idle_time(10 * MS) == 0
        harness.machine.run_until(SECOND)
        assert thread.stats.work_done == 50 * KILO
        assert thread.stats.exited_at == 70 * MS
        assert stats.interrupt_time == 20 * MS

    def test_interrupt_spanning_many_quanta(self, harness):
        a = harness.spawn_dhrystone("a")
        b = harness.spawn_dhrystone("b")
        # one huge 200 ms interrupt: everything freezes, fairness resumes
        harness.engine.at(50 * MS, lambda: harness.machine.interrupt(200 * MS))
        harness.machine.run_until(SECOND)
        assert a.stats.work_done + b.stats.work_done == 800 * KILO
        assert abs(a.stats.work_done - b.stats.work_done) <= 10 * KILO


def _interrupt_at(machine, at, service):
    """Schedule an interrupt of ``service`` ns at absolute time ``at``."""
    machine.engine.at(at, lambda: machine.interrupt(service),
                      priority=Machine.PRIORITY_INTERRUPT)


class TestPauseEdges:
    """Interrupts and horizons that land exactly on a pause's edges."""

    def test_second_interrupt_at_drain_instant_extends_the_pause(
            self, harness):
        thread = harness.spawn_segments("t", [Compute(50 * KILO)])
        _interrupt_at(harness.machine, 5 * MS, 2 * MS)
        # arrives exactly when the first service drains
        _interrupt_at(harness.machine, 7 * MS, 3 * MS)
        harness.machine.run_until(SECOND)
        assert harness.machine.stats.interrupts == 2
        assert harness.machine.stats.pauses == 1
        assert thread.stats.exited_at == 55 * MS

    def test_horizon_at_drain_instant(self, harness):
        thread = harness.spawn_segments("t", [Compute(50 * KILO)])
        _interrupt_at(harness.machine, 5 * MS, 2 * MS)
        harness.machine.run_until(7 * MS)
        assert thread.stats.work_done == 5 * KILO
        harness.machine.run_until(SECOND)
        assert thread.stats.work_done == 50 * KILO
        assert thread.stats.exited_at == 52 * MS

    def test_pause_consuming_the_quantum_lets_a_drain_waker_compete(
            self, harness):
        a = harness.spawn_segments("a", [Compute(100 * KILO)])
        b = harness.spawn_segments("b", [SleepFor(12 * MS), Compute(5 * KILO)])
        # lands on a's quantum-end completion: the pause consumes the
        # quantum, and b wakes at the drain instant before a's dispatch ends
        _interrupt_at(harness.machine, 10 * MS, 2 * MS)
        harness.machine.run_until(SECOND)
        order = sorted((t, trace.name)
                       for trace in harness.recorder.threads.values()
                       for t in trace.dispatches)
        assert order[:4] == [(0, "a"), (12 * MS, "b"), (17 * MS, "a"),
                             (27 * MS, "a")]
        assert harness.recorder.trace_of(a).charges[0] == (12 * MS, 10 * KILO)
        assert harness.machine.stats.pauses == 1
        assert b.stats.exited_at == 17 * MS
        assert a.stats.exited_at == 107 * MS

    @staticmethod
    def _costly_machine(policy=PREEMPT_NONE, leaf_scheduler=None):
        """One leaf, 1e6 ips, and a 300 us cost for a switching dispatch."""
        structure = SchedulingStructure()
        leaf = structure.mknod("/apps", 1, scheduler=leaf_scheduler
                               or SfqScheduler())
        machine = Machine(Simulator(),
                          HierarchicalScheduler(structure, policy),
                          capacity_ips=1_000_000, default_quantum=10 * MS,
                          cost_model=LinearCostModel(
                              base_ns=100 * US, per_level_ns=50 * US,
                              context_switch_ns=100 * US))
        return machine, leaf

    def test_interrupt_inside_overhead_window(self):
        machine, leaf = self._costly_machine()
        thread = SimThread("t", SegmentListWorkload([Compute(5 * KILO)]))
        leaf.attach_thread(thread)
        machine.spawn(thread)
        # the dispatch at 0 costs 300 us; the interrupt lands inside it,
        # and the rest of the burst computes from the drain instant
        _interrupt_at(machine, 100 * US, 100 * US)
        machine.run_until(SECOND)
        assert machine.stats.pauses == 1
        # only the 100 us spent before the interrupt is overhead
        assert machine.stats.overhead_time == 100 * US
        assert machine.stats.idle_time(SECOND) == SECOND - 5200 * US
        assert thread.stats.exited_at == 5200 * US

    def test_horizon_inside_overhead_window(self):
        machine, leaf = self._costly_machine()
        thread = SimThread("t", SegmentListWorkload([Compute(5 * KILO)]))
        leaf.attach_thread(thread)
        machine.spawn(thread)
        machine.run_until(100 * US)
        # 100 us of the 300 us dispatch cost is spent by the horizon
        assert machine.stats.overhead_time == 100 * US
        assert machine.stats.idle_time(100 * US) == 0
        machine.run_until(SECOND)
        assert machine.stats.overhead_time == 300 * US
        # the horizon did not restart the compute: same exit as unsplit
        assert thread.stats.exited_at == 5300 * US

    def test_preempt_leaf_inside_overhead_window(self):
        machine, leaf = self._costly_machine(PREEMPT_LEAF, EdfScheduler())
        a = SimThread("a", SegmentListWorkload([Compute(10 * KILO)]),
                      params={"deadline": 100 * MS})
        urgent = SimThread(
            "urgent", SegmentListWorkload([SleepFor(100 * US),
                                           Compute(KILO)]),
            params={"deadline": 5 * MS})
        for thread in (a, urgent):
            leaf.attach_thread(thread)
            machine.spawn(thread)
        machine.run_until(SECOND)
        assert machine.stats.preemptions == 1
        # a's first dispatch is preempted 100 us into its 300 us cost;
        # urgent's dispatch and a's second each cost a full 300 us
        assert machine.stats.overhead_time == 700 * US
        assert urgent.stats.exited_at == 1400 * US
        assert a.stats.exited_at == 11700 * US
        assert machine.stats.idle_time(SECOND) == SECOND - 11700 * US

    @pytest.mark.parametrize("wake_ms, preempted, urgent_exit_ms", [
        (2, 0, 13),  # inside the service window
        (3, 0, 13),  # at the drain instant: still paused
        (4, 1, 5),   # after the drain: preempts
    ])
    def test_preempt_leaf_waits_out_the_pause(self, wake_ms, preempted,
                                              urgent_exit_ms):
        # untraced, so a compiled engine takes its own wake path
        structure = SchedulingStructure()
        rt = structure.mknod("/rt", 1, scheduler=EdfScheduler())
        machine = Machine(Simulator(),
                          HierarchicalScheduler(structure, PREEMPT_LEAF),
                          capacity_ips=1_000_000, default_quantum=50 * MS)
        a = SimThread("a", SegmentListWorkload([Compute(10 * KILO)]),
                      params={"deadline": 100 * MS})
        urgent = SimThread(
            "urgent", SegmentListWorkload([SleepFor(wake_ms * MS),
                                           Compute(KILO)]),
            params={"deadline": 5 * MS})
        for thread in (a, urgent):
            rt.attach_thread(thread)
            machine.spawn(thread)
        _interrupt_at(machine, 1 * MS, 2 * MS)
        machine.run_until(SECOND)
        assert machine.stats.pauses == 1
        assert machine.stats.preemptions == preempted
        assert a.stats.preemptions == preempted
        assert urgent.stats.exited_at == urgent_exit_ms * MS

    def test_one_event_per_interrupt(self):
        # untraced, so a compiled engine runs its turbo tick
        structure = SchedulingStructure()
        leaf = structure.mknod("/apps", 1, scheduler=SfqScheduler())
        engine = Simulator()
        machine = Machine(engine, HierarchicalScheduler(structure),
                          capacity_ips=1_000_000, default_quantum=10 * MS)
        thread = SimThread("d", DhrystoneWorkload(loop_cost=100, batch=10))
        leaf.attach_thread(thread)
        machine.spawn(thread)
        machine.add_interrupt_source(PoissonInterruptSource(
            mean_interarrival=3 * MS, mean_service=200 * US,
            rng=make_rng(1, "pause-events")))
        machine.run_until(SECOND)
        stats = machine.stats
        assert stats.pauses > 0
        # a pause schedules nothing of its own: every fired event is an
        # interrupt arrival or the end of a dispatch (the last is pending)
        assert engine.events_fired == stats.interrupts + stats.dispatches - 1


class TestThreadListBookkeeping:
    def test_machine_thread_registry(self, harness):
        threads = [harness.spawn_dhrystone("t%d" % i) for i in range(3)]
        assert harness.machine.threads == threads

    def test_now_property(self, harness):
        assert harness.machine.now == 0
        harness.machine.run_until(123 * MS)
        assert harness.machine.now == 123 * MS
