"""The leaf scheduler contract.

A leaf scheduler manages the threads of one scheduling class.  The
hierarchy (or the flat-machine adapter) tells it about thread lifecycle
events and asks it to pick and charge; the scheduler never talks to the
machine directly.  This is the Python rendering of the paper's leaf
interface: "a pointer to a function that is invoked, when it is scheduled
by its parent node, to select one of its threads for execution", with
``setrun``/``sleep``/``update`` mediated by the hierarchy.

Lifecycle rules every implementation must honour:

* ``pick_next`` must NOT dequeue: the thread stays logically queued until
  the matching ``charge`` (and is removed only by ``on_block``);
* ``charge`` is called exactly once per dispatch with the *actual* executed
  work, after the machine has decided whether the thread stays runnable —
  so at charge time ``thread.is_runnable`` already reflects the outcome;
* ``on_block`` is called for blocking, exiting, and forced removal alike.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.obs import events as obs

if TYPE_CHECKING:  # pragma: no cover
    from repro.threads.thread import SimThread


class LeafScheduler:
    """Base class for leaf schedulers; subclass and override."""

    #: human-readable algorithm name used in experiment output
    algorithm: str = "abstract"
    #: the run's event bus; emit sites gate on ``self._bus.active``
    _bus: obs.EventBus = obs.BUS

    def attach_bus(self, bus: obs.EventBus) -> None:
        """Emit on ``bus``, the run's bus.  A :class:`FlatScheduler
        <repro.cpu.flat.FlatScheduler>` or the hierarchy above the leaf
        installs it; only the fair-queuing baselines emit from a leaf."""
        self._bus = bus

    def add_thread(self, thread: "SimThread") -> None:
        """Register a thread with this scheduler (initially not runnable)."""
        raise NotImplementedError

    def remove_thread(self, thread: "SimThread") -> None:
        """Deregister a thread; callers must block it first if runnable."""
        raise NotImplementedError

    def on_runnable(self, thread: "SimThread", now: int) -> None:
        """``thread`` became eligible (spawned or woke up)."""
        raise NotImplementedError

    def on_block(self, thread: "SimThread", now: int) -> None:
        """``thread`` became ineligible (blocked, exited, or is being moved)."""
        raise NotImplementedError

    def pick_next(self, now: int) -> Optional["SimThread"]:
        """Return the thread to run next, without dequeuing it."""
        raise NotImplementedError

    def charge(self, thread: "SimThread", work: int, now: int) -> None:
        """Account ``work`` instructions executed by ``thread``."""
        raise NotImplementedError

    def has_runnable(self) -> bool:
        """True when some registered thread is eligible."""
        raise NotImplementedError

    def quantum_for(self, thread: "SimThread") -> Optional[int]:
        """Per-thread quantum in ns, or ``None`` to use the machine default."""
        return None

    def should_preempt(self, current: "SimThread", candidate: "SimThread",
                       now: int) -> bool:
        """Intra-leaf preemption decision (only consulted in PREEMPT_LEAF mode)."""
        return False
