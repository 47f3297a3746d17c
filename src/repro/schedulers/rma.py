"""Rate Monotonic scheduling — static-priority hard real-time leaf.

Priorities are fixed at admission: the shorter the period, the higher the
priority (Liu & Layland).  The paper's Figure 9 experiment runs two
periodic threads (10 ms/60 ms and 150 ms/960 ms) under RMA inside the
hierarchy; the admission bound lives in :mod:`repro.qos.admission`.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.schedulers.base import LeafScheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.threads.thread import SimThread


class _RmaRecord:
    __slots__ = ("thread", "base_period", "inherited_period", "runnable",
                 "version")

    def __init__(self, thread: "SimThread", period: int) -> None:
        self.thread = thread
        self.base_period = period
        #: temporarily shortened period via priority inheritance (§4)
        self.inherited_period: Optional[int] = None
        self.runnable = False
        self.version = 0

    @property
    def period(self) -> int:
        """Effective period: the base, shortened by any inheritance."""
        if self.inherited_period is not None:
            return min(self.base_period, self.inherited_period)
        return self.base_period


class RmaScheduler(LeafScheduler):
    """Static rate-monotonic priorities (shorter period runs first)."""

    algorithm = "rma"

    def __init__(self, quantum: Optional[int] = None) -> None:
        self._records: Dict[int, _RmaRecord] = {}
        self._heap: List[Tuple[int, int, int, _RmaRecord]] = []
        #: push order, breaking ties between equal heap keys
        self._seq = itertools.count()
        self._runnable = 0
        self._quantum = quantum

    def add_thread(self, thread: "SimThread") -> None:
        if id(thread) in self._records:
            raise SchedulingError("thread %r already registered" % (thread,))
        period = thread.params.get("period")
        if period is None:
            raise SchedulingError("RMA thread %r needs params['period']" % (thread,))
        self._records[id(thread)] = _RmaRecord(thread, int(period))

    def remove_thread(self, thread: "SimThread") -> None:
        record = self._records.pop(id(thread), None)
        if record is not None and record.runnable:
            record.runnable = False
            record.version += 1
            self._runnable -= 1

    def on_runnable(self, thread: "SimThread", now: int) -> None:
        record = self._record(thread)
        if record.runnable:
            return
        record.runnable = True
        record.version += 1
        self._runnable += 1
        heapq.heappush(self._heap,
                       (record.period, next(self._seq), record.version, record))

    def on_block(self, thread: "SimThread", now: int) -> None:
        record = self._record(thread)
        if record.runnable:
            record.runnable = False
            record.version += 1
            self._runnable -= 1

    def pick_next(self, now: int) -> Optional["SimThread"]:
        record = self._peek()
        return record.thread if record is not None else None

    def charge(self, thread: "SimThread", work: int, now: int) -> None:
        return

    def has_runnable(self) -> bool:
        return self._runnable > 0

    def quantum_for(self, thread: "SimThread") -> Optional[int]:
        return thread.params.get("quantum", self._quantum)

    def should_preempt(self, current: "SimThread", candidate: "SimThread",
                       now: int) -> bool:
        return self._record(candidate).period < self._record(current).period

    # --- priority inheritance (paper §4) -----------------------------------

    def set_inherited_period(self, thread: "SimThread",
                             period: Optional[int]) -> None:
        """Temporarily run ``thread`` at ``period`` (None restores base).

        The paper: "if the leaf scheduler uses static priority Rate
        Monotonic algorithm, then standard priority inheritance techniques
        can be employed" — a mutex holder inherits the shortest period
        among its waiters (see
        :class:`repro.sync.inheritance.PriorityInheritanceMutex`).
        """
        record = self._record(thread)
        record.inherited_period = period
        if record.runnable:
            # re-key the heap entry at the new effective priority
            record.version += 1
            heapq.heappush(self._heap,
                           (record.period, next(self._seq), record.version,
                            record))

    def effective_period_of(self, thread: "SimThread") -> int:
        """Current effective (possibly inherited) period of ``thread``."""
        return self._record(thread).period

    def _record(self, thread: "SimThread") -> _RmaRecord:
        try:
            return self._records[id(thread)]
        except KeyError:
            raise SchedulingError("thread %r not registered" % (thread,)) from None

    def _peek(self) -> Optional[_RmaRecord]:
        heap = self._heap
        while heap:
            __, __, version, record = heap[0]
            if record.runnable and version == record.version:
                return record
            heapq.heappop(heap)
        return None
