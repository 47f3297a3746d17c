"""The single-CPU machine.

The machine owns every thread state transition.  Its execution model:

* Threads are dispatched for **quanta measured in work** (instructions):
  a quantum of ``q`` nanoseconds grants ``q * capacity / 1s`` instructions.
  Interrupts pause the running thread without consuming its quantum, which
  is exactly the paper's model of quantum lengths "measured in units of
  instructions" on a fluctuating-bandwidth CPU.
* A dispatched thread runs in **bursts**: a burst ends at segment
  completion, quantum exhaustion, an interrupt arrival (the rest of the
  burst computes from the drain instant), or a preemption.  At the end
  of the *dispatch* (not of each burst) the scheduler is charged once
  with the total executed work — SFQ's "quantum length known only at
  completion" property.
* Interrupt service occupies the CPU at top priority; service times queue
  FIFO.  Stolen time is tracked so analysis code can fit FC/EBF parameters.
* Scheduling decisions and context switches consume CPU according to a
  pluggable :class:`~repro.cpu.costs.SchedulingCostModel` (Figure 7),
  booked as spent: an interrupt or a preemption inside the overhead
  forgives the rest.

Event priorities at equal timestamps: interrupts fire first, then wakeups,
then burst completions, then deferred dispatch attempts and the finish of
a dispatch whose quantum a pause consumed.  This ordering is
deterministic and makes a thread waking exactly at a quantum boundary
eligible for that boundary's scheduling decision.

:class:`MachineBase` holds what happens to a thread off the CPU: spawn,
workload segments (including synchronization), sleep and wakeup, and exit.
This machine and :class:`~repro.smp.machine.SmpMachine` both inherit it;
each keeps its own dispatch path.

A machine runs in its simulator's run context.  ``spawn`` stamps each
thread with the simulator's next tid, and every event goes to the run's
bus, ``engine.bus``, which the machine installs on its scheduler.  A
``tracer`` gives the run a private bus with the tracer subscribed, so
it sees the whole stream: machine, hierarchy and leaf events alike.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.engine import OPS as _ENGINE_OPS
from repro.cpu.costs import SchedulingCostModel
from repro.cpu.interface import TopScheduler
from repro.cpu.interrupts import InterruptSource
from repro.devtools.schedsan import maybe_wrap as _schedsan_wrap
from repro.errors import SchedulingError, SimulationError, WorkloadError
from repro.obs import events as obs
from repro.sim.engine import Simulator
from repro.sync.mutex import Acquire, Release
from repro.sync.semaphore import Down, Notify, Up, WaitOn
from repro.threads.segments import Compute, Exit, SleepFor, SleepUntil
from repro.threads.states import ThreadState
from repro.threads.thread import SimThread
from repro.units import MS, SECOND, work_from_time

#: the compiled burst-completion tick (``None`` on the pure engine).  The
#: C function mirrors _on_burst_complete -> _account_burst ->
#: _finish_dispatch -> _maybe_dispatch for the common case (hierarchical
#: scheduler, SFQ leaf, zero-cost model, inactive ``_bus``, no interrupt
#: in service) and bails to the Python methods for everything else.
_TURBO_TICK = getattr(_ENGINE_OPS, "machine_tick", None)

_OUTCOME_RUN = "run"
_OUTCOME_SLEEP = "sleep"
_OUTCOME_WAIT = "wait"  # blocked on a mutex; woken by the holder's release
_OUTCOME_EXIT = "exit"

#: safety bound on consecutive zero-length segments from one workload
_MAX_SEGMENT_PULLS = 1000


def _leaf_path(thread: SimThread) -> str:
    """Pathname of the thread's leaf node, "/" for flat schedulers."""
    leaf = thread.leaf
    return leaf.path if leaf is not None else "/"


class MachineStats:
    """Aggregate machine counters."""

    __slots__ = ("busy_time", "interrupt_time", "overhead_time", "dispatches",
                 "context_switches", "interrupts", "pauses", "preemptions")

    def __init__(self) -> None:
        self.busy_time = 0
        self.interrupt_time = 0
        self.overhead_time = 0
        self.dispatches = 0
        self.context_switches = 0
        self.interrupts = 0
        self.pauses = 0
        self.preemptions = 0

    def idle_time(self, now: int) -> int:
        """Time the CPU spent doing nothing up to ``now``."""
        return now - self.busy_time - self.interrupt_time - self.overhead_time


class MachineBase:
    """The off-CPU thread lifecycle shared by both machines."""

    PRIORITY_WAKEUP = 0
    PRIORITY_COMPLETION = 10

    def __init__(self, engine: Simulator, scheduler: TopScheduler,
                 capacity_ips: int, default_quantum: int, tracer) -> None:
        if capacity_ips <= 0:
            raise SimulationError("capacity must be positive")
        if default_quantum <= 0:
            raise SimulationError("default quantum must be positive")
        self.engine = engine
        # Opt-in sanitizer (REPRO_SCHEDSAN=1): audits every scheduler
        # interaction below; a no-op pass-through when disabled.
        scheduler = _schedsan_wrap(scheduler)
        self.scheduler = scheduler
        self.capacity_ips = capacity_ips
        self.default_quantum = default_quantum
        #: default quantum pre-converted to instructions (per-dispatch path)
        self._default_quantum_work = work_from_time(default_quantum, capacity_ips)
        #: subscriber to this run's whole event stream (a Recorder), or None
        self.tracer = tracer
        if tracer is not None:
            if engine.bus is obs.BUS:
                engine.bus = obs.EventBus()
            engine.bus.subscribe(tracer)
        #: the run's bus; every emit site below gates on ``self._bus.active``
        self._bus = engine.bus
        self.threads: List[SimThread] = []

        # Hierarchical schedulers want a clock for hsfq_move bookkeeping.
        if hasattr(scheduler, "clock"):
            scheduler.clock = lambda: self.engine.now
        scheduler.attach_bus(self._bus)

    def _make_runnable(self, thread: SimThread) -> None:
        """Queue ``thread`` with the scheduler and dispatch if a CPU is free."""
        raise NotImplementedError

    # --- spawning / workload advancement ----------------------------------

    def _do_spawn(self, thread: SimThread) -> None:
        now = self.engine.now
        thread.stats.created_at = now
        self.scheduler.admit(thread)
        if self._bus.active:
            self._bus.emit(obs.SPAWN_SHAPE, now, thread.tid, thread.name,
                           _leaf_path(thread), thread.weight)
        self._settle(thread)

    def _settle(self, thread: SimThread) -> None:
        """Pull the next segment of an off-CPU thread and act on it.

        Used at spawn and at wakeup; the thread is NEW or SLEEPING.
        """
        now = self.engine.now
        outcome, wake_time = self._advance_workload(thread)
        if outcome == _OUTCOME_RUN:
            self._make_runnable(thread)
        elif outcome == _OUTCOME_EXIT:
            thread.transition(ThreadState.EXITED)
            thread.stats.exited_at = now
            self._retire(thread, now)
        else:
            if thread.state is not ThreadState.SLEEPING:
                thread.transition(ThreadState.SLEEPING)
            if outcome == _OUTCOME_SLEEP:
                self._schedule_wakeup(thread, wake_time)
            else:
                self._report_sync_wait(thread, now)

    def _advance_workload(self, thread: SimThread):
        """Pull segments until the thread has work, sleeps, or exits."""
        now = self.engine.now
        for __ in range(_MAX_SEGMENT_PULLS):
            segment = thread.workload.next_segment(now, thread)
            if segment is None or isinstance(segment, Exit):
                return _OUTCOME_EXIT, None
            if isinstance(segment, Compute):
                thread.remaining_work = segment.work
                return _OUTCOME_RUN, None
            if isinstance(segment, SleepFor):
                if segment.duration == 0:
                    continue
                return _OUTCOME_SLEEP, now + segment.duration
            if isinstance(segment, SleepUntil):
                if segment.wakeup <= now:
                    continue
                return _OUTCOME_SLEEP, segment.wakeup
            if isinstance(segment, Acquire):
                if segment.mutex.try_acquire(thread):
                    thread.held_mutexes.append(segment.mutex)
                    continue
                segment.mutex.enqueue_waiter(thread)
                return _OUTCOME_WAIT, None
            if isinstance(segment, Release):
                self._release_mutex(thread, segment.mutex)
                continue
            if isinstance(segment, Down):
                if segment.semaphore.try_down(thread):
                    continue
                segment.semaphore.enqueue_waiter(thread)
                return _OUTCOME_WAIT, None
            if isinstance(segment, Up):
                granted = segment.semaphore.up()
                if granted is not None:
                    self._defer_wake(granted)
                continue
            if isinstance(segment, WaitOn):
                segment.queue.enqueue_waiter(thread)
                return _OUTCOME_WAIT, None
            if isinstance(segment, Notify):
                for woken in segment.queue.notify(segment.count):
                    self._defer_wake(woken)
                continue
            raise WorkloadError(
                "workload %r produced unknown segment %r"
                % (thread.workload, segment))
        raise WorkloadError(
            "workload for %r produced %d zero-length segments in a row"
            % (thread, _MAX_SEGMENT_PULLS))

    def _report_sync_wait(self, thread: SimThread, now: int) -> None:
        """Trace a block on a mutex, semaphore or wait queue (no wake time:
        a release or notify wakes it)."""
        if self._bus.active:
            self._bus.emit(obs.BLOCK_SHAPE, now, thread.tid,
                           _leaf_path(thread), -1)

    def _retire(self, thread: SimThread, now: int) -> None:
        """Release what an EXITED thread still holds and retire it."""
        self._release_held_mutexes(thread)
        if self._bus.active:
            self._bus.emit(obs.EXIT_SHAPE, now, thread.tid,
                           _leaf_path(thread))
        self.scheduler.retire(thread, now)

    # --- sleep / wakeup ----------------------------------------------------

    def _schedule_wakeup(self, thread: SimThread, wake_time: int) -> None:
        if self._bus.active:
            self._bus.emit(obs.BLOCK_SHAPE, self.engine.now, thread.tid,
                           _leaf_path(thread), wake_time)
        thread.wakeup_handle = self.engine.at(
            wake_time, self._on_wakeup, thread, priority=self.PRIORITY_WAKEUP)

    def _on_wakeup(self, thread: SimThread) -> None:
        thread.wakeup_handle = None
        thread.stats.wakeups += 1
        if self._bus.active:
            self._bus.emit(obs.WAKE_SHAPE, self.engine.now, thread.tid,
                           _leaf_path(thread))
        if thread.remaining_work > 0:
            # Woke with unfinished compute (blocked mid-segment cannot
            # happen today, but a moved/suspended thread resumes here).
            self._make_runnable(thread)
        else:
            self._settle(thread)

    # --- mutexes -----------------------------------------------------------

    def _defer_wake(self, thread: SimThread) -> None:
        """Wake a synchronization waiter via an immediate engine event.

        Deferring ensures the waking thread's own dispatch is fully
        settled (charged, requeued) before the waiter competes for the
        CPU.
        """
        self.engine.at(self.engine.now, self._on_wakeup, thread,
                       priority=self.PRIORITY_WAKEUP)

    def _release_mutex(self, thread: SimThread, mutex) -> None:
        """Release ``mutex``; the granted waiter (if any) wakes deferred."""
        thread.held_mutexes.remove(mutex)
        granted = mutex.release(thread)
        if granted is not None:
            granted.held_mutexes.append(mutex)
            self._defer_wake(granted)

    def _release_held_mutexes(self, thread: SimThread) -> None:
        """An exiting thread implicitly releases everything it still holds."""
        while thread.held_mutexes:
            self._release_mutex(thread, thread.held_mutexes[-1])


class Machine(MachineBase):
    """A single simulated CPU driven by a :class:`TopScheduler`."""

    PRIORITY_INTERRUPT = -10
    PRIORITY_DISPATCH = 20

    def __init__(self, engine: Simulator, scheduler: TopScheduler,
                 capacity_ips: int = 100_000_000, default_quantum: int = 20 * MS,
                 cost_model: Optional[SchedulingCostModel] = None,
                 tracer=None) -> None:
        super().__init__(engine, scheduler, capacity_ips, default_quantum,
                         tracer)
        self.cost_model = cost_model if cost_model is not None else SchedulingCostModel()
        self.stats = MachineStats()

        # --- dispatch state ------------------------------------------------
        self.current: Optional[SimThread] = None
        self._last_ran: Optional[SimThread] = None
        self._quantum_work_left = 0
        self._quantum_work_done = 0
        self._burst_planned = 0
        self._burst_compute_start = 0
        self._burst_handle = None
        #: paused while ``now <= _paused_until`` (a drain instant), else -1
        self._paused_until = -1
        #: dispatch overhead past the last horizon, held back from stats
        self._overhead_held = 0
        self._pending_dispatch = None
        # Compiled completion fast path.  Installed only for a plain
        # Machine (SmpMachine and subclasses keep the Python cycle); the
        # C tick re-checks every dynamic condition -- tracing, interrupt
        # service, cost model, wrapped scheduler -- at fire time and
        # delegates back to the Python methods, so installation is
        # unconditional beyond the exact-type check.
        self._turbo = _TURBO_TICK if type(self) is Machine else None

        # --- interrupt state ------------------------------------------------
        self._intr_busy_until = 0
        #: interrupt service past the last horizon, held back from stats
        self._intr_held = 0
        self._sources: List[InterruptSource] = []

    # --- public API ------------------------------------------------------

    @property
    def now(self) -> int:
        """Current simulation time (ns)."""
        return self.engine.now

    def add_interrupt_source(self, source: InterruptSource) -> None:
        """Attach and start an interrupt source."""
        self._sources.append(source)
        source.start(self)

    def spawn(self, thread: SimThread, at: Optional[int] = None) -> SimThread:
        """Create ``thread`` now (or at absolute time ``at``) and return it.

        For a hierarchical scheduler, attach the thread to its leaf node
        *before* spawning.  The thread takes the run's next tid here.
        """
        thread.tid = self.engine.new_tid()
        self.threads.append(thread)
        if at is None or at <= self.engine.now:
            self._do_spawn(thread)
        else:
            self.engine.at(at, self._do_spawn, thread)
        return thread

    def run_until(self, time: int) -> None:
        """Advance the simulation to absolute ``time``.

        Accounting is settled at the horizon: a burst in flight at ``time``
        has its work-so-far booked (and then continues from the same
        compute start), and interrupt service and dispatch overhead past
        ``time`` are booked by the next call, so statistics and traces are
        exact as of ``time`` and a horizon never moves the timeline.
        """
        self.engine.run_until(time)
        self._flush_burst()
        held = max(0, self._intr_busy_until - time)
        self.stats.interrupt_time += self._intr_held - held
        self._intr_held = held
        # During a pause the gap before the compute start is interrupt
        # service, held back above.
        held = 0
        if self.current is not None and time > self._paused_until:
            held = max(0, self._burst_compute_start - time)
        self.stats.overhead_time += self._overhead_held - held
        self._overhead_held = held

    def run_for(self, duration: int) -> None:
        """Advance the simulation by ``duration`` nanoseconds."""
        self.run_until(self.engine.now + duration)

    def utilization(self) -> float:
        """Fraction of elapsed time the CPU spent executing threads."""
        if self.engine.now == 0:
            return 0.0
        return self.stats.busy_time / self.engine.now

    # --- wakeups -----------------------------------------------------------

    def _make_runnable(self, thread: SimThread) -> None:
        now = self.engine.now
        thread.transition(ThreadState.RUNNABLE)
        thread.last_runnable_at = now
        if self._bus.active:
            self._bus.emit(obs.RUNNABLE_SHAPE, now, thread.tid,
                           _leaf_path(thread))
        self.scheduler.thread_runnable(thread, now)
        if (self.current is not None
                and now > self._paused_until
                and self.scheduler.should_preempt(self.current, thread, now)):
            self._preempt_current()
        self._maybe_dispatch()

    # --- dispatching ---------------------------------------------------------

    def _maybe_dispatch(self) -> None:
        if self.current is not None:
            return
        now = self.engine.now
        if now < self._intr_busy_until:
            self._defer_dispatch(self._intr_busy_until)
            return
        # One scheduler call instead of has_runnable() + pick_next():
        # pick_next returns None when nothing is runnable (interface
        # contract), so has_runnable() is only consulted to keep the
        # contract-violation diagnostic.
        thread = self.scheduler.pick_next(now)
        if thread is None:
            if self.scheduler.has_runnable():
                raise SchedulingError(
                    "scheduler claimed runnable work but picked None")
            return
        if thread.state is not ThreadState.RUNNABLE:
            raise SchedulingError(
                "scheduler picked non-runnable thread %r" % (thread,))
        switched = thread is not self._last_ran
        overhead = self.cost_model.dispatch_cost(
            self.scheduler.decision_depth, switched)
        # RUNNABLE was verified above and RUNNABLE -> RUNNING is the only
        # edge out of it, so the transition() validation is redundant here.
        thread.state = ThreadState.RUNNING
        self.current = thread
        self._last_ran = thread
        self.stats.dispatches += 1
        thread.stats.dispatches += 1
        if switched:
            self.stats.context_switches += 1
        self.stats.overhead_time += overhead
        quantum_ns = self.scheduler.quantum_for(thread)
        if quantum_ns is None:
            quantum_ns = self.default_quantum
            self._quantum_work_left = self._default_quantum_work
        else:
            self._quantum_work_left = work_from_time(quantum_ns, self.capacity_ips)
        if self._quantum_work_left <= 0:
            raise SimulationError(
                "quantum of %d ns yields zero instructions at %d ips"
                % (quantum_ns, self.capacity_ips))
        self._quantum_work_done = 0
        if self._bus.active:
            self._bus.emit(obs.DISPATCH_SHAPE, now, thread.tid, thread.name,
                           _leaf_path(thread), 0,
                           self.scheduler.decision_depth, switched, overhead,
                           self._quantum_work_left)
        self._begin_burst(overhead)

    def _defer_dispatch(self, at_time: int) -> None:
        if self._pending_dispatch is not None and not self._pending_dispatch.cancelled:
            return
        self._pending_dispatch = self.engine.at(
            at_time, self._deferred_dispatch, priority=self.PRIORITY_DISPATCH)

    def _deferred_dispatch(self) -> None:
        self._pending_dispatch = None
        self._maybe_dispatch()

    # --- burst execution -------------------------------------------------------

    def _begin_burst(self, overhead_ns: int = 0) -> None:
        assert self.current is not None
        thread = self.current
        planned = min(thread.remaining_work, self._quantum_work_left)
        if planned <= 0:
            raise SimulationError("attempted to start an empty burst for %r" % (thread,))
        self._burst_planned = planned
        self._burst_compute_start = self.engine.now + overhead_ns
        # time_from_work(planned, capacity) inlined: planned > 0 was just
        # checked and capacity was validated at construction.
        duration = -((-planned * SECOND) // self.capacity_ips)
        if self._turbo is not None:
            self._burst_handle = self.engine.at(
                self._burst_compute_start + duration, self._turbo, self,
                priority=self.PRIORITY_COMPLETION)
        else:
            self._burst_handle = self.engine.at(
                self._burst_compute_start + duration, self._on_burst_complete,
                priority=self.PRIORITY_COMPLETION)

    def _account_burst(self, executed: int) -> None:
        """Book ``executed`` instructions of the current burst."""
        assert self.current is not None
        thread = self.current
        now = self.engine.now
        if executed <= 0:
            return
        thread.remaining_work -= executed
        if thread.remaining_work < 0:
            raise SimulationError("burst executed more work than remained")
        self._quantum_work_left -= executed
        self._quantum_work_done += executed
        elapsed = max(0, now - self._burst_compute_start)
        thread.stats.work_done += executed
        thread.stats.cpu_time += elapsed
        self.stats.busy_time += elapsed
        if self._bus.active:
            self._bus.emit(obs.SLICE_SHAPE, now, thread.tid, thread.name,
                           _leaf_path(thread), 0, self._burst_compute_start,
                           executed)

    def _on_burst_complete(self) -> None:
        self._burst_handle = None
        self._account_burst(self._burst_planned)
        self._finish_dispatch()

    def _executed_so_far(self) -> int:
        """Work completed in the active burst, for pause/preempt accounting."""
        elapsed = self.engine.now - self._burst_compute_start
        if elapsed <= 0:
            return 0
        done = work_from_time(elapsed, self.capacity_ips)
        return min(done, self._burst_planned)

    def _stop_burst(self) -> None:
        """Cancel the completion event and account partial work."""
        self.engine.cancel(self._burst_handle)
        self._burst_handle = None
        self._account_burst(self._executed_so_far())

    def _flush_burst(self) -> None:
        """Settle the active burst's partial work without ending the dispatch."""
        if self.current is None or self.engine.now <= self._paused_until:
            return
        self._stop_burst()
        if self.current.remaining_work == 0 or self._quantum_work_left == 0:
            self._finish_dispatch()
        else:
            self._begin_burst(
                max(0, self._burst_compute_start - self.engine.now))

    def _preempt_current(self) -> None:
        assert self.current is not None
        self.stats.preemptions += 1
        self.current.stats.preemptions += 1
        if self._bus.active:
            self._bus.emit(obs.PREEMPT_SHAPE, self.engine.now,
                           self.current.tid, _leaf_path(self.current))
        self._stop_burst()
        unspent = self._burst_compute_start - self.engine.now
        if unspent > 0:
            # Preempted inside the dispatch overhead: the rest is never spent.
            self.stats.overhead_time -= unspent
        self._finish_dispatch()

    def _finish_dispatch(self) -> None:
        """End the current dispatch: settle the workload, charge, reschedule."""
        assert self.current is not None
        thread = self.current
        now = self.engine.now
        self.current = None
        self._paused_until = -1

        segment_done = thread.remaining_work == 0
        if segment_done:
            thread.stats.segments_completed += 1
            outcome, wake_time = self._advance_workload(thread)
        else:
            outcome, wake_time = _OUTCOME_RUN, None

        # State first, then charge: schedulers observe the post-transition
        # runnability (see LeafScheduler contract).  The current thread is
        # RUNNING (only the machine assigns states, and dispatch set it),
        # and every RUNNING -> X edge is legal, so assign directly instead
        # of paying transition() validation on the per-dispatch path.
        if outcome == _OUTCOME_RUN:
            thread.state = ThreadState.RUNNABLE
        elif outcome in (_OUTCOME_SLEEP, _OUTCOME_WAIT):
            thread.state = ThreadState.SLEEPING
            thread.stats.blocks += 1
        else:
            thread.state = ThreadState.EXITED
            thread.stats.exited_at = now

        if self._quantum_work_done > 0:
            self.scheduler.charge(thread, self._quantum_work_done, now)
            if self._bus.active:
                self._bus.emit(obs.CHARGE_SHAPE, now, thread.tid,
                               _leaf_path(thread), self._quantum_work_done,
                               segment_done)
        self._quantum_work_done = 0
        self._quantum_work_left = 0

        if outcome == _OUTCOME_SLEEP:
            self.scheduler.thread_blocked(thread, now)
            self._schedule_wakeup(thread, wake_time)
        elif outcome == _OUTCOME_WAIT:
            self.scheduler.thread_blocked(thread, now)
            self._report_sync_wait(thread, now)
        elif outcome == _OUTCOME_EXIT:
            self._retire(thread, now)

        self._maybe_dispatch()

    # --- interrupts ----------------------------------------------------------

    def interrupt(self, service: int) -> None:
        """An interrupt arrived demanding ``service`` ns of CPU at top priority.

        A running thread pauses: the rest of its burst begins now,
        computing from the drain instant, so no event marks the resume.
        A pause that consumed the quantum or segment instead finishes the
        dispatch at the drain instant, after that instant's wakeups.

        A first pause inside the dispatch overhead forgives the rest of
        the overhead (the burst computes from the drain instant), so only
        the part spent before the interrupt stays in ``overhead_time``.
        """
        if service <= 0:
            return
        now = self.engine.now
        self.stats.interrupts += 1
        self.stats.interrupt_time += service
        busy_until = max(now, self._intr_busy_until) + service
        self._intr_busy_until = busy_until
        if self._bus.active:
            self._bus.emit(obs.INTERRUPT_SHAPE, now, 0, service)
        current = self.current
        if current is None:
            return
        if now > self._paused_until:
            self.stats.pauses += 1
            self._stop_burst()
            if now < self._burst_compute_start:
                self.stats.overhead_time -= self._burst_compute_start - now
        else:
            self.engine.cancel(self._burst_handle)
        self._paused_until = busy_until
        if current.remaining_work == 0 or self._quantum_work_left == 0:
            self._burst_handle = self.engine.at(
                busy_until, self._resume_current,
                priority=self.PRIORITY_DISPATCH)
        else:
            self._begin_burst(busy_until - now)

    def _resume_current(self) -> None:
        """Finish a dispatch whose quantum or segment a pause consumed."""
        self._burst_handle = None
        self._finish_dispatch()
