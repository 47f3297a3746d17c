"""The contract between the CPU machine and a top-level scheduler.

The machine drives whatever scheduler it is given through this interface;
two implementations exist:

* :class:`repro.core.hierarchy.HierarchicalScheduler` — the paper's
  hierarchical SFQ framework;
* :class:`repro.cpu.flat.FlatScheduler` — a single leaf scheduler standing
  in for an unmodified kernel (used as the baseline in Figures 5 and 7).

All times are integer nanoseconds; all work is integer instructions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.obs import events as obs

if TYPE_CHECKING:  # pragma: no cover
    from repro.threads.thread import SimThread


class TopScheduler:
    """Abstract top-level scheduler driven by :class:`repro.cpu.machine.Machine`."""

    #: the run's event bus; emit sites gate on ``self._bus.active``
    _bus: obs.EventBus = obs.BUS

    def attach_bus(self, bus: obs.EventBus) -> None:
        """Emit on ``bus``, the run's bus (the machine installs it)."""
        self._bus = bus

    def admit(self, thread: "SimThread") -> None:
        """Register a newly spawned thread (not yet runnable)."""
        raise NotImplementedError

    def retire(self, thread: "SimThread", now: int) -> None:
        """Deregister an exited thread."""
        raise NotImplementedError

    def thread_runnable(self, thread: "SimThread", now: int) -> None:
        """``thread`` became eligible to run (spawn or wakeup)."""
        raise NotImplementedError

    def thread_blocked(self, thread: "SimThread", now: int) -> None:
        """``thread`` blocked (sleep or I/O); it was previously runnable."""
        raise NotImplementedError

    def pick_next(self, now: int) -> Optional["SimThread"]:
        """Select the next thread to run, or ``None`` when nothing is runnable.

        The selected thread stays logically queued until the matching
        :meth:`charge` (SFQ's "in service" notion).
        """
        raise NotImplementedError

    def charge(self, thread: "SimThread", work: int, now: int) -> None:
        """Account ``work`` instructions executed by ``thread``.

        Called exactly once per dispatch, at quantum expiry, block, exit, or
        preemption — with the *actual* work executed, which is how SFQ
        avoids needing quantum lengths a priori.
        """
        raise NotImplementedError

    def quantum_for(self, thread: "SimThread") -> Optional[int]:
        """Quantum length (ns) for the next dispatch; ``None`` = machine default."""
        raise NotImplementedError

    def should_preempt(self, current: "SimThread", candidate: "SimThread",
                       now: int) -> bool:
        """Whether ``candidate`` waking up should preempt ``current`` mid-quantum.

        The paper's implementation is non-preemptive within a quantum; the
        default everywhere is False.
        """
        return False

    def has_runnable(self) -> bool:
        """True when some thread is eligible to run."""
        raise NotImplementedError

    @property
    def decision_depth(self) -> int:
        """Tree depth traversed by the most recent :meth:`pick_next`.

        Used by the scheduling-cost model for the Figure 7 overhead
        experiments; flat schedulers report 1.
        """
        return 1
