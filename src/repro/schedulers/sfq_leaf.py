"""SFQ as a leaf scheduler (paper §5.4, Figure 10).

A thin adapter putting threads (instead of tree nodes) into an
:class:`~repro.core.sfq.SfqQueue`.  Thread weights are read at charge time,
so dynamic weight changes (Figure 11) behave exactly as at internal nodes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.sfq import (
    SfqQueue,
    queue_charge,
    queue_pick,
    queue_set_blocked,
    queue_set_runnable,
)
from repro.core.tags import TagMath
from repro.schedulers.base import LeafScheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.threads.thread import SimThread


class SfqScheduler(LeafScheduler):
    """Start-time Fair Queuing over the threads of one class.

    The per-thread queue operations go through the module-level
    ``queue_*`` functions of :mod:`repro.core.sfq`, imported here, so the
    benchmark's per-layer tracer can patch them in this module and count
    ``sfq.queue_ops``.
    """

    algorithm = "sfq"

    def __init__(self, tag_math: Optional[TagMath] = None,
                 quantum: Optional[int] = None) -> None:
        self.queue = SfqQueue(tag_math)
        self._quantum = quantum

    def add_thread(self, thread: "SimThread") -> None:
        self.queue.add(thread)

    def remove_thread(self, thread: "SimThread") -> None:
        if self.queue.is_runnable(thread):
            queue_set_blocked(self.queue, thread)
        self.queue.remove(thread)

    def on_runnable(self, thread: "SimThread", now: int) -> None:
        queue_set_runnable(self.queue, thread)

    def on_block(self, thread: "SimThread", now: int) -> None:
        queue_set_blocked(self.queue, thread)

    def pick_next(self, now: int) -> Optional["SimThread"]:
        return queue_pick(self.queue)

    def charge(self, thread: "SimThread", work: int, now: int) -> None:
        queue_charge(self.queue, thread, work)

    def has_runnable(self) -> bool:
        return self.queue.has_runnable()

    def quantum_for(self, thread: "SimThread") -> Optional[int]:
        return self._quantum
