"""The multiprocessor machine.

``p`` identical CPUs drive one shared :class:`~repro.cpu.interface.TopScheduler`.
Relative to the uniprocessor :class:`~repro.cpu.machine.Machine` the model
is simplified where parallelism would not change the studied behaviour:

* a dispatched thread is withdrawn from the scheduler (``thread_blocked``)
  for the duration of its quantum and re-submitted (``thread_runnable``)
  after the charge — "in service" entities therefore never appear twice;
* no interrupt sources or scheduling-cost models (use the uniprocessor
  machine for those studies);
* quanta run to completion (no preemption), as in the paper.

Everything a thread does off the CPU — spawn, workload segments
(including synchronization), sleep and wakeup, exit — is the uniprocessor
machine's own code, inherited from :class:`~repro.cpu.machine.MachineBase`,
so events and statistics match and all metrics and analysis code work
unchanged.  Slices from different CPUs may overlap in time, which is
exactly what the SMP fairness analysis needs to see.
"""

from __future__ import annotations

from typing import Optional

from repro.cpu.interface import TopScheduler
from repro.cpu.machine import (
    _OUTCOME_RUN,
    _OUTCOME_SLEEP,
    _OUTCOME_WAIT,
    MachineBase,
    _leaf_path,
)
from repro.errors import SchedulingError, SimulationError
from repro.obs import events as obs
from repro.sim.engine import Simulator
from repro.threads.states import ThreadState
from repro.threads.thread import SimThread
from repro.units import MS, SECOND, work_from_time


class _Cpu:
    """Per-CPU dispatch state."""

    __slots__ = ("index", "current", "quantum_left", "quantum_done",
                 "burst_planned", "burst_start", "burst_handle")

    def __init__(self, index: int) -> None:
        self.index = index
        self.current: Optional[SimThread] = None
        self.quantum_left = 0
        self.quantum_done = 0
        self.burst_planned = 0
        self.burst_start = 0
        self.burst_handle = None


class SmpMachine(MachineBase):
    """``num_cpus`` identical CPUs sharing one scheduler.

    ``capacity_ips`` is the speed of each CPU.
    """

    def __init__(self, engine: Simulator, scheduler: TopScheduler,
                 num_cpus: int = 2, capacity_ips: int = 100_000_000,
                 default_quantum: int = 20 * MS, tracer=None) -> None:
        if num_cpus <= 0:
            raise SimulationError("need at least one CPU")
        super().__init__(engine, scheduler, capacity_ips, default_quantum,
                         tracer)
        self.cpus = [_Cpu(index) for index in range(num_cpus)]
        self.busy_time = 0  # summed over CPUs
        self.dispatches = 0

    # --- public API ------------------------------------------------------

    @property
    def num_cpus(self) -> int:
        """Number of CPUs in the machine."""
        return len(self.cpus)

    def spawn(self, thread: SimThread, at: Optional[int] = None) -> SimThread:
        """Create ``thread`` now or at absolute time ``at``; it takes the
        run's next tid."""
        thread.tid = self.engine.new_tid()
        self.threads.append(thread)
        if at is None or at <= self.engine.now:
            self._do_spawn(thread)
        else:
            self.engine.at(at, self._do_spawn, thread)
        return thread

    def run_until(self, time: int) -> None:
        """Advance to ``time``; in-flight bursts have their work settled."""
        self.engine.run_until(time)
        for cpu in self.cpus:
            self._flush_burst(cpu)

    def utilization(self) -> float:
        """Mean fraction of CPU-time spent executing threads."""
        if self.engine.now == 0:
            return 0.0  # derived metric, not state  # schedlint: disable=SL004
        return self.busy_time / (self.engine.now * self.num_cpus)  # schedlint: disable=SL004

    # --- wakeups --------------------------------------------------------------

    def _make_runnable(self, thread: SimThread) -> None:
        now = self.engine.now
        thread.transition(ThreadState.RUNNABLE)
        thread.last_runnable_at = now
        if self._bus.active:
            self._bus.emit(obs.RUNNABLE_SHAPE, now, thread.tid,
                           _leaf_path(thread))
        self.scheduler.thread_runnable(thread, now)
        self._dispatch_idle_cpus()

    # --- dispatching --------------------------------------------------------------

    def _dispatch_idle_cpus(self) -> None:
        for cpu in self.cpus:
            if cpu.current is None:
                self._dispatch(cpu)

    def _dispatch(self, cpu: _Cpu) -> None:
        now = self.engine.now
        # One scheduler call instead of has_runnable() + pick_next():
        # pick_next returns None when nothing is runnable (interface
        # contract), so has_runnable() is only consulted to keep the
        # contract-violation diagnostic.
        thread = self.scheduler.pick_next(now)
        if thread is None:
            if self.scheduler.has_runnable():
                raise SchedulingError(
                    "scheduler claimed runnable work, got None")
            return
        # Withdraw the thread for the duration of service: no other CPU
        # may pick it; tags are untouched until the charge.
        self.scheduler.thread_blocked(thread, now)
        thread.transition(ThreadState.RUNNING)
        cpu.current = thread
        self.dispatches += 1
        thread.stats.dispatches += 1
        quantum_ns = self.scheduler.quantum_for(thread)
        if quantum_ns is None:
            cpu.quantum_left = self._default_quantum_work
        else:
            cpu.quantum_left = work_from_time(quantum_ns, self.capacity_ips)
        if cpu.quantum_left <= 0:
            raise SimulationError("quantum too small for capacity")
        cpu.quantum_done = 0
        if self._bus.active:
            self._bus.emit(obs.DISPATCH_SHAPE, now, thread.tid, thread.name,
                           _leaf_path(thread), cpu.index,
                           self.scheduler.decision_depth, True, 0,
                           cpu.quantum_left)
        self._begin_burst(cpu)

    def _begin_burst(self, cpu: _Cpu) -> None:
        thread = cpu.current
        assert thread is not None
        planned = min(thread.remaining_work, cpu.quantum_left)
        if planned <= 0:
            raise SimulationError("empty burst on cpu%d" % cpu.index)
        cpu.burst_planned = planned
        cpu.burst_start = self.engine.now
        # time_from_work(planned, capacity) inlined: planned > 0 was just
        # checked and capacity was validated at construction.
        duration = -((-planned * SECOND) // self.capacity_ips)
        cpu.burst_handle = self.engine.at(
            self.engine.now + duration, self._on_burst_complete, cpu,
            priority=self.PRIORITY_COMPLETION)

    def _account_burst(self, cpu: _Cpu, executed: int) -> None:
        thread = cpu.current
        assert thread is not None
        if executed <= 0:
            return
        now = self.engine.now
        thread.remaining_work -= executed
        cpu.quantum_left -= executed
        cpu.quantum_done += executed
        elapsed = now - cpu.burst_start
        thread.stats.work_done += executed
        thread.stats.cpu_time += elapsed
        self.busy_time += elapsed
        if self._bus.active:
            self._bus.emit(obs.SLICE_SHAPE, now, thread.tid, thread.name,
                           _leaf_path(thread), cpu.index, cpu.burst_start,
                           executed)

    def _on_burst_complete(self, cpu: _Cpu) -> None:
        cpu.burst_handle = None
        self._account_burst(cpu, cpu.burst_planned)
        self._finish_dispatch(cpu)

    def _flush_burst(self, cpu: _Cpu) -> None:
        if cpu.current is None or cpu.burst_handle is None:
            return
        elapsed = self.engine.now - cpu.burst_start
        executed = min(work_from_time(elapsed, self.capacity_ips),
                       cpu.burst_planned)
        self.engine.cancel(cpu.burst_handle)
        cpu.burst_handle = None
        self._account_burst(cpu, executed)
        if cpu.current.remaining_work == 0 or cpu.quantum_left == 0:
            self._finish_dispatch(cpu)
        else:
            self._begin_burst(cpu)

    def _finish_dispatch(self, cpu: _Cpu) -> None:
        thread = cpu.current
        assert thread is not None
        now = self.engine.now
        cpu.current = None

        segment_done = thread.remaining_work == 0
        if segment_done:
            thread.stats.segments_completed += 1
            outcome, wake_time = self._advance_workload(thread)
        else:
            outcome, wake_time = _OUTCOME_RUN, None

        if outcome == _OUTCOME_RUN:
            thread.transition(ThreadState.RUNNABLE)
        elif outcome in (_OUTCOME_SLEEP, _OUTCOME_WAIT):
            thread.transition(ThreadState.SLEEPING)
            thread.stats.blocks += 1
        else:
            thread.transition(ThreadState.EXITED)
            thread.stats.exited_at = now

        if cpu.quantum_done > 0:
            self.scheduler.charge(thread, cpu.quantum_done, now)
            if self._bus.active:
                self._bus.emit(obs.CHARGE_SHAPE, now, thread.tid,
                               _leaf_path(thread), cpu.quantum_done,
                               segment_done)
        cpu.quantum_done = 0
        cpu.quantum_left = 0

        if outcome == _OUTCOME_RUN:
            # re-enter the queues with a fresh stamp S = max(v, F)
            self.scheduler.thread_runnable(thread, now)
        elif outcome == _OUTCOME_SLEEP:
            self._schedule_wakeup(thread, wake_time)
        elif outcome == _OUTCOME_WAIT:
            self._report_sync_wait(thread, now)
        else:
            self._retire(thread, now)

        self._dispatch_idle_cpus()
