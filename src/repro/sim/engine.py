"""The simulation engine: a clock plus an event loop.

The engine is intentionally tiny.  Components (the CPU machine, interrupt
sources, workload timers) schedule callbacks; :meth:`Simulator.run_until`
drains the queue in timestamp order and advances the clock.  Nothing in the
engine knows about scheduling — that separation keeps the substrate reusable
and easy to test in isolation.

A simulator is also its run's context: the event bus every component of
the run emits on (:attr:`Simulator.bus`) and the thread-id sequence the
machines stamp spawned threads from (:meth:`Simulator.new_tid`).  Nothing
a run emits or numbers depends on what else ran in the process.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.obs import events as obs
from repro.sim.events import EventHandle, EventQueue


class Simulator:
    """A discrete-event simulator with an integer-nanosecond clock."""

    __slots__ = ("_queue", "now", "_running", "_fired", "bus", "_tids")

    def __init__(self) -> None:
        self._queue: EventQueue = EventQueue()
        #: current simulation time in nanoseconds.  A plain attribute, not a
        #: property: the machines read it on every spawn/dispatch/charge, so
        #: the read must be a single attribute load.  Only the engine
        #: assigns it.
        self.now: int = 0
        self._running: bool = False
        self._fired: int = 0
        #: the bus this run's events go to: the process bus, unless a
        #: machine's ``tracer=`` gave the run a private one
        self.bus: obs.EventBus = obs.BUS
        self._tids = 0

    def new_tid(self) -> int:
        """The next thread id of this run: 1, 2, ... in spawn order."""
        self._tids += 1
        return self._tids

    @property
    def events_fired(self) -> int:
        """Total events fired over the simulator's lifetime (benchmarking)."""
        return self._fired

    @property
    def pending_events(self) -> int:
        """Number of live events still scheduled."""
        return len(self._queue)

    def at(self, time: int, callback: Callable[..., None], arg: Any = None,
           priority: int = 0) -> EventHandle:
        """Schedule ``callback(arg)`` at absolute ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(
                "cannot schedule event in the past: t=%d < now=%d" % (time, self.now))
        return self._queue.push(time, callback, arg, priority)

    def after(self, delay: int, callback: Callable[..., None], arg: Any = None,
              priority: int = 0) -> EventHandle:
        """Schedule ``callback(arg)`` after ``delay`` nanoseconds."""
        if delay < 0:
            raise SimulationError("delay must be non-negative, got %d" % delay)
        return self._queue.push(self.now + delay, callback, arg, priority)

    def cancel(self, handle: Optional[EventHandle]) -> None:
        """Cancel a previously scheduled event; ``None`` is a no-op."""
        self._queue.discard(handle)

    def step(self) -> bool:
        """Fire the next event, advancing the clock.

        Returns False when the queue is empty.
        """
        handle = self._queue.pop()
        if handle is None:
            return False
        if handle.time < self.now:
            raise SimulationError(
                "event queue returned stale event at t=%d (now=%d)"
                % (handle.time, self.now))
        self.now = handle.time
        self._fired += 1
        callback = handle.callback
        arg = handle.arg
        # The handle has fired; release its references.
        handle.cancel()
        if callback is not None:
            if arg is None:
                callback()
            else:
                callback(arg)
        return True

    def run_until(self, time: int) -> None:
        """Run all events with timestamp <= ``time``; clock ends at ``time``.

        Events scheduled *exactly* at ``time`` do fire, so back-to-back
        ``run_until`` calls partition a run without losing events.
        """
        if time < self.now:
            raise SimulationError(
                "cannot run backwards: until=%d < now=%d" % (time, self.now))
        if self._running:
            raise SimulationError("run_until re-entered from a callback")
        self._running = True
        # Tight drain loop: pop_due does one heap-maintenance pass per event
        # (peek_time + pop would do two), and the loop fires callbacks
        # inline rather than re-entering step().  Ordering is exactly
        # step()'s — one event at a time, so a callback scheduling a
        # same-instant event still sees it fire in (time, priority, seq)
        # order.
        queue = self._queue
        try:
            while True:
                handle = queue.pop_due(time)
                if handle is None:
                    break
                self.now = handle.time
                self._fired += 1
                callback = handle.callback
                arg = handle.arg
                handle.cancel()
                if callback is not None:
                    if arg is None:
                        callback()
                    else:
                        callback(arg)
        finally:
            self._running = False
        self.now = time

    def run_all(self, limit: int = 10_000_000) -> int:
        """Run until the queue drains; returns the number of events fired.

        ``limit`` guards against runaway self-rescheduling loops (infinite
        workloads must be driven with :meth:`run_until` instead).
        """
        fired = 0
        while self.step():
            fired += 1
            if fired > limit:
                raise SimulationError("run_all exceeded %d events" % limit)
        return fired
