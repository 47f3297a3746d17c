"""A flat top-level scheduler: one leaf scheduler as the whole machine.

This is the "unmodified kernel" baseline of the paper's experiments: the
same machine, the same workloads, but a single scheduler (e.g. SVR4
time-sharing) with no hierarchy on top.  Figures 5 and 7 compare runs under
:class:`FlatScheduler` against runs under the hierarchical scheduler.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Set

from repro.cpu.interface import TopScheduler
from repro.errors import SchedulingError
from repro.obs import events as obs

if TYPE_CHECKING:  # pragma: no cover
    from repro.schedulers.base import LeafScheduler
    from repro.threads.thread import SimThread


class FlatScheduler(TopScheduler):
    """Adapter exposing a single :class:`LeafScheduler` as a machine scheduler."""

    def __init__(self, scheduler: "LeafScheduler") -> None:
        self.leaf_scheduler = scheduler
        self._threads: Set["SimThread"] = set()

    def attach_bus(self, bus: obs.EventBus) -> None:
        self._bus = bus
        self.leaf_scheduler.attach_bus(bus)

    def admit(self, thread: "SimThread") -> None:
        if thread in self._threads:
            raise SchedulingError("thread %r already admitted" % (thread,))
        self._threads.add(thread)
        self.leaf_scheduler.add_thread(thread)

    def retire(self, thread: "SimThread", now: int) -> None:
        self.leaf_scheduler.on_block(thread, now)
        self.leaf_scheduler.remove_thread(thread)
        self._threads.discard(thread)

    def thread_runnable(self, thread: "SimThread", now: int) -> None:
        self.leaf_scheduler.on_runnable(thread, now)

    def thread_blocked(self, thread: "SimThread", now: int) -> None:
        self.leaf_scheduler.on_block(thread, now)

    def pick_next(self, now: int) -> Optional["SimThread"]:
        return self.leaf_scheduler.pick_next(now)

    def charge(self, thread: "SimThread", work: int, now: int) -> None:
        self.leaf_scheduler.charge(thread, work, now)

    def quantum_for(self, thread: "SimThread") -> Optional[int]:
        return self.leaf_scheduler.quantum_for(thread)

    def should_preempt(self, current: "SimThread", candidate: "SimThread",
                       now: int) -> bool:
        return self.leaf_scheduler.should_preempt(current, candidate, now)

    def has_runnable(self) -> bool:
        return self.leaf_scheduler.has_runnable()
