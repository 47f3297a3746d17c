"""Earliest Deadline First — a hard real-time leaf scheduler.

Each wakeup is a job release: the job's absolute deadline is
``release + relative_deadline`` where the relative deadline comes from
``thread.params["deadline"]`` (default: ``thread.params["period"]``).
The runnable job with the earliest absolute deadline runs first.

EDF is the paper's example of a scheduler appropriate for hard real-time
leaf classes (Figure 2 installs it under the hard real-time node); the
admission test lives in :mod:`repro.qos.admission`.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.schedulers.base import LeafScheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.threads.thread import SimThread


class _EdfRecord:
    __slots__ = ("thread", "deadline", "relative_deadline", "runnable", "version")

    def __init__(self, thread: "SimThread", relative_deadline: int) -> None:
        self.thread = thread
        self.deadline = 0
        self.relative_deadline = relative_deadline
        self.runnable = False
        self.version = 0


class EdfScheduler(LeafScheduler):
    """Dynamic-priority earliest-deadline-first scheduling."""

    algorithm = "edf"

    def __init__(self, quantum: Optional[int] = None) -> None:
        self._records: Dict[int, _EdfRecord] = {}
        self._heap: List[Tuple[int, int, int, _EdfRecord]] = []
        #: push order, breaking ties between equal heap keys
        self._seq = itertools.count()
        self._runnable = 0
        self._quantum = quantum

    def add_thread(self, thread: "SimThread") -> None:
        if id(thread) in self._records:
            raise SchedulingError("thread %r already registered" % (thread,))
        relative = thread.params.get("deadline", thread.params.get("period"))
        if relative is None:
            raise SchedulingError(
                "EDF thread %r needs params['deadline'] or params['period']"
                % (thread,))
        self._records[id(thread)] = _EdfRecord(thread, int(relative))

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
        record.deadline = now + record.relative_deadline
        record.runnable = True
        record.version += 1
        self._runnable += 1
        heapq.heappush(self._heap,
                       (record.deadline, next(self._seq), record.version, record))

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
        # Deadlines are set at release; execution does not change them.
        return

    def has_runnable(self) -> bool:
        return self._runnable > 0

    def quantum_for(self, thread: "SimThread") -> Optional[int]:
        return thread.params.get("quantum", self._quantum)

    def should_preempt(self, current: "SimThread", candidate: "SimThread",
                       now: int) -> bool:
        return self._record(candidate).deadline < self._record(current).deadline

    def deadline_of(self, thread: "SimThread") -> int:
        """Absolute deadline of the thread's current job (for tests/metrics)."""
        return self._record(thread).deadline

    def _record(self, thread: "SimThread") -> _EdfRecord:
        try:
            return self._records[id(thread)]
        except KeyError:
            raise SchedulingError("thread %r not registered" % (thread,)) from None

    def _peek(self) -> Optional[_EdfRecord]:
        heap = self._heap
        while heap:
            __, __, version, record = heap[0]
            if record.runnable and version == record.version:
                return record
            heapq.heappop(heap)
        return None
