"""Stride scheduling (Waldspurger & Weihl, 1995).

The deterministic successor of lottery scheduling: each thread has a
``stride`` inversely proportional to its tickets; the thread with the
minimum ``pass`` value runs, and its pass advances by ``stride`` per unit
of service.  We advance passes by *actual executed work* (instructions)
rather than whole quanta, so partially used quanta are accounted exactly.

The paper (§6) classifies stride scheduling as a variant of WFQ with WFQ's
drawbacks; the EXP-AB5 ablation compares its short-window fairness against
lottery and SFQ.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.schedulers.base import LeafScheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.threads.thread import SimThread

#: fixed-point scale for stride arithmetic (stride1 in the original paper)
STRIDE1 = 1 << 20


class _StrideRecord:
    __slots__ = ("thread", "pass_value", "runnable", "version")

    def __init__(self, thread: "SimThread") -> None:
        self.thread = thread
        self.pass_value = 0
        self.runnable = False
        self.version = 0


class StrideScheduler(LeafScheduler):
    """Deterministic proportional share via strides."""

    algorithm = "stride"

    def __init__(self, quantum: Optional[int] = None) -> None:
        self._records: Dict[int, _StrideRecord] = {}
        self._heap: List[Tuple[int, int, int, _StrideRecord]] = []
        #: push order, breaking ties between equal heap keys
        self._seq = itertools.count()
        self._runnable = 0
        self._quantum = quantum
        self._global_pass = 0

    def add_thread(self, thread: "SimThread") -> None:
        if id(thread) in self._records:
            raise SchedulingError("thread %r already registered" % (thread,))
        self._records[id(thread)] = _StrideRecord(thread)

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
        # A waking thread resumes at the global pass so it neither starves
        # the others (catch-up) nor is starved (left behind).
        if record.pass_value < self._global_pass:
            record.pass_value = self._global_pass
        record.runnable = True
        self._push(record)
        self._runnable += 1

    def on_block(self, thread: "SimThread", now: int) -> None:
        record = self._record(thread)
        if record.runnable:
            record.runnable = False
            record.version += 1
            self._runnable -= 1

    def pick_next(self, now: int) -> Optional["SimThread"]:
        record = self._peek()
        if record is None:
            return None
        self._global_pass = record.pass_value
        return record.thread

    def charge(self, thread: "SimThread", work: int, now: int) -> None:
        record = self._record(thread)
        record.pass_value += (work * STRIDE1) // thread.weight
        if record.runnable:
            record.version += 1
            self._push(record)

    def has_runnable(self) -> bool:
        return self._runnable > 0

    def quantum_for(self, thread: "SimThread") -> Optional[int]:
        return self._quantum

    def pass_of(self, thread: "SimThread") -> int:
        """Current pass value (for tests)."""
        return self._record(thread).pass_value

    def _record(self, thread: "SimThread") -> _StrideRecord:
        try:
            return self._records[id(thread)]
        except KeyError:
            raise SchedulingError("thread %r not registered" % (thread,)) from None

    def _push(self, record: _StrideRecord) -> None:
        record.version += 1
        heapq.heappush(self._heap,
                       (record.pass_value, next(self._seq), record.version, record))

    def _peek(self) -> Optional[_StrideRecord]:
        heap = self._heap
        while heap:
            __, __, version, record = heap[0]
            if record.runnable and version == record.version:
                return record
            heapq.heappop(heap)
        return None
