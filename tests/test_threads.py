"""Thread model: states, segments, SimThread."""

from fractions import Fraction

import pytest

from repro.cpu.flat import FlatScheduler
from repro.cpu.machine import Machine
from repro.errors import SchedulingError, WorkloadError
from repro.schedulers.fifo import FifoScheduler
from repro.sim.engine import Simulator
from repro.smp.machine import SmpMachine
from repro.threads.segments import (
    Compute,
    Exit,
    SegmentListWorkload,
    SleepFor,
    SleepUntil,
)
from repro.threads.states import ALLOWED_TRANSITIONS, ThreadState
from repro.threads.thread import SimThread
from repro.units import MS


class TestSegments:
    def test_compute_requires_positive_work(self):
        with pytest.raises(WorkloadError):
            Compute(0)

    def test_sleepfor_rejects_negative(self):
        with pytest.raises(WorkloadError):
            SleepFor(-1)

    def test_sleepfor_zero_allowed(self):
        assert SleepFor(0).duration == 0

    def test_sleepuntil_past_allowed(self):
        # "wake immediately" semantics for overruns
        assert SleepUntil(-5).wakeup == -5

    def test_reprs(self):
        assert "Compute(5)" == repr(Compute(5))
        assert "SleepFor(7)" == repr(SleepFor(7))
        assert "SleepUntil(9)" == repr(SleepUntil(9))
        assert "Exit()" == repr(Exit())


class TestSegmentListWorkload:
    def test_replays_then_exits(self):
        wl = SegmentListWorkload([Compute(1), SleepFor(2)])
        thread = SimThread("t", wl)
        assert isinstance(wl.next_segment(0, thread), Compute)
        assert isinstance(wl.next_segment(0, thread), SleepFor)
        assert isinstance(wl.next_segment(0, thread), Exit)

    def test_reset_restarts(self):
        wl = SegmentListWorkload([Compute(1)])
        thread = SimThread("t", wl)
        wl.next_segment(0, thread)
        wl.reset()
        assert isinstance(wl.next_segment(0, thread), Compute)


class TestStates:
    def test_exited_is_terminal(self):
        assert ALLOWED_TRANSITIONS[ThreadState.EXITED] == set()

    def test_runnable_only_to_running(self):
        assert ALLOWED_TRANSITIONS[ThreadState.RUNNABLE] == {ThreadState.RUNNING}

    def test_sleeping_can_exit(self):
        # a workload may return Exit right after a sleep
        assert ThreadState.EXITED in ALLOWED_TRANSITIONS[ThreadState.SLEEPING]


class TestSimThread:
    def make(self) -> SimThread:
        return SimThread("worker", SegmentListWorkload([Compute(10)]),
                         weight=2, params={"period": 100})

    def test_initial_state_new(self):
        assert self.make().state is ThreadState.NEW

    def test_unique_tids(self):
        """tids run 1..n in spawn order on each Simulator, 0 before."""
        for machine_class in (Machine, SmpMachine, Machine):
            machine = machine_class(Simulator(),
                                    FlatScheduler(FifoScheduler()))
            threads = [self.make() for __ in range(3)]
            assert [t.tid for t in threads] == [0, 0, 0]
            machine.spawn(threads[2])
            machine.spawn(threads[0], at=MS)
            machine.spawn(threads[1])
            assert [t.tid for t in threads] == [2, 3, 1]

    def test_valid_transition(self):
        thread = self.make()
        thread.transition(ThreadState.RUNNABLE)
        assert thread.state is ThreadState.RUNNABLE

    def test_invalid_transition_raises(self):
        thread = self.make()
        with pytest.raises(SchedulingError):
            thread.transition(ThreadState.RUNNING)  # NEW -> RUNNING illegal

    @pytest.mark.parametrize("new", list(ThreadState), ids=lambda s: s.value)
    @pytest.mark.parametrize("old", list(ThreadState), ids=lambda s: s.value)
    def test_transition_follows_the_public_table(self, old, new):
        thread = self.make()
        thread.state = old
        if new in ALLOWED_TRANSITIONS[old]:
            thread.transition(new)
            assert thread.state is new
            return
        with pytest.raises(SchedulingError) as excinfo:
            thread.transition(new)
        assert str(excinfo.value) == (
            "illegal transition for SimThread(tid=0, name='worker', "
            "state=%s): %s -> %s" % (old.value, old.value, new.value))
        assert thread.state is old

    def test_is_runnable(self):
        thread = self.make()
        assert not thread.is_runnable
        thread.transition(ThreadState.RUNNABLE)
        assert thread.is_runnable
        thread.transition(ThreadState.RUNNING)
        assert thread.is_runnable

    def test_alive_until_exit(self):
        thread = self.make()
        assert thread.alive
        thread.transition(ThreadState.RUNNABLE)
        thread.transition(ThreadState.RUNNING)
        thread.transition(ThreadState.EXITED)
        assert not thread.alive

    def test_weight_must_be_positive(self):
        for weight in (0, float("nan"), 2.5, Fraction(5, 2), True):
            with pytest.raises(ValueError):
                SimThread("x", SegmentListWorkload([]), weight=weight)

    def test_set_weight_validates(self):
        thread = self.make()
        thread.set_weight(5)
        assert thread.weight == 5
        for weight in (-1, float("nan"), 2.5, Fraction(5, 2), True):
            with pytest.raises(ValueError):
                thread.set_weight(weight)
        assert thread.weight == 5

    def test_params_are_copied(self):
        params = {"period": 1}
        thread = SimThread("x", SegmentListWorkload([]), params=params)
        params["period"] = 2
        assert thread.params["period"] == 1

    def test_marker_bumping(self):
        thread = self.make()
        thread.stats.bump_marker("frames")
        thread.stats.bump_marker("frames", 2)
        assert thread.stats.markers["frames"] == 3
