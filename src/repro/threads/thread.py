"""The simulated thread.

A :class:`SimThread` is a passive record: the CPU machine pulls segments
from its workload and moves it through the lifecycle states; schedulers read
its identity, weight, and scheduler-specific parameters.  The thread itself
never calls into the machine or a scheduler, which keeps ownership of every
transition in exactly one place (the machine).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.errors import SchedulingError
from repro.threads.segments import Workload
from repro.threads.states import ThreadState


class ThreadStats:
    """Per-thread counters maintained by the machine.

    ``work_done`` counts instructions actually executed; ``cpu_time`` counts
    wall-clock nanoseconds spent running (these differ only through rounding
    at slice boundaries).  ``markers`` is a free-form counter dictionary
    workloads use to report domain progress (Dhrystone loops, MPEG frames).
    """

    __slots__ = ("work_done", "cpu_time", "dispatches", "preemptions",
                 "blocks", "wakeups", "segments_completed", "created_at",
                 "exited_at", "markers")

    def __init__(self, created_at: int = 0) -> None:
        self.work_done = 0
        self.cpu_time = 0
        self.dispatches = 0
        self.preemptions = 0
        self.blocks = 0
        self.wakeups = 0
        self.segments_completed = 0
        self.created_at = created_at
        self.exited_at: Optional[int] = None
        self.markers: Dict[str, int] = {}

    def bump_marker(self, name: str, amount: int = 1) -> None:
        """Increment a named progress counter (e.g. ``"loops"``)."""
        self.markers[name] = self.markers.get(name, 0) + amount


class SimThread:
    """A schedulable thread executing a workload.

    Parameters
    ----------
    name:
        Human-readable label used in traces and experiment output.
    workload:
        The :class:`~repro.threads.segments.Workload` describing behaviour.
    weight:
        Share weight used by proportional-share leaf schedulers (SFQ,
        lottery, stride).  A positive ``int``.
    params:
        Scheduler-specific parameters (e.g. ``{"period": ..., "wcet": ...}``
        for RMA/EDF leaves, ``{"priority": ...}`` for the SVR4 leaf).
    """

    __slots__ = ("tid", "name", "workload", "weight", "params", "state",
                 "stats", "remaining_work", "leaf", "wakeup_handle",
                 "held_mutexes", "last_runnable_at")

    def __init__(self, name: str, workload: Workload, weight: int = 1,
                 params: Optional[Dict[str, Any]] = None) -> None:
        if type(weight) is not int or weight <= 0:
            raise ValueError(
                "thread weight must be a positive int, got %r" % (weight,))
        #: the run's thread id, stamped at spawn (0 until then)
        self.tid = 0
        self.name = name
        self.workload = workload
        self.weight = weight
        self.params: Dict[str, Any] = dict(params or {})
        self.state = ThreadState.NEW
        self.stats = ThreadStats()

        # --- fields owned by the CPU machine -----------------------------
        #: instructions left in the current Compute segment
        self.remaining_work = 0
        #: leaf node this thread is attached to (set by the machine/structure)
        self.leaf = None
        #: pending wakeup event handle while SLEEPING
        self.wakeup_handle = None
        #: mutexes currently held (acquisition order; machine-owned)
        self.held_mutexes = []
        #: time of the most recent RUNNABLE transition (for latency metrics)
        self.last_runnable_at = 0

    # --- state machine ----------------------------------------------------

    def transition(self, new_state: ThreadState) -> None:
        """Move to ``new_state``, validating against the lifecycle graph."""
        if new_state not in self.state.successors:
            raise SchedulingError(
                "illegal transition for %s: %s -> %s"
                % (self, self.state.value, new_state.value))
        self.state = new_state

    @property
    def is_runnable(self) -> bool:
        """True when the thread is waiting for (or holding) the CPU."""
        return self.state in (ThreadState.RUNNABLE, ThreadState.RUNNING)

    @property
    def alive(self) -> bool:
        """True until the thread exits."""
        return self.state is not ThreadState.EXITED

    def set_weight(self, weight: int) -> None:
        """Change the thread's share weight (takes effect at next stamping)."""
        if type(weight) is not int or weight <= 0:
            raise ValueError(
                "thread weight must be a positive int, got %r" % (weight,))
        self.weight = weight

    def __repr__(self) -> str:
        return "SimThread(tid=%d, name=%r, state=%s)" % (
            self.tid, self.name, self.state.value)
