"""The fair-queuing baselines the paper compares SFQ against (§6).

* :class:`WfqScheduler` — Weighted Fair Queuing (Demers, Keshav & Shenker):
  start/finish tags against a *hypothetical constant-rate server's* virtual
  time; dispatch in finish-tag order.
* :class:`FqsScheduler` — Fair Queuing based on Start-time (Greenberg &
  Madras): WFQ's tags, dispatched in start-tag order (making it usable when
  quantum lengths are unknown).
* :class:`ScfqScheduler` — Self-Clocked Fair Queuing (Golestani): virtual
  time approximated by the finish tag of the quantum in service.

All three need an **assumed quantum length** at stamping time (WFQ's
documented drawback: the length must be known a priori, so the maximum is
assumed and early-blocking threads lose service).  WFQ/FQS additionally
advance virtual time at the *nominal* CPU rate — which is precisely why
they lose fairness when the effective bandwidth fluctuates (interrupts),
the paper's key argument for SFQ.  The EXP-AB1 ablation demonstrates this.

The virtual-time emulation here is the standard rate-based one
(``v' = C / sum of runnable weights`` during a busy period, reset at each
new busy period), not an exact fluid-server simulation; the paper itself
notes the exact simulation is computationally expensive, and the emulation
preserves exactly the failure mode being demonstrated.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.obs import events as obs
from repro.schedulers.base import LeafScheduler
from repro.units import SECOND

if TYPE_CHECKING:  # pragma: no cover
    from repro.threads.thread import SimThread


class _FqRecord:
    __slots__ = ("thread", "start", "finish", "runnable", "version", "epoch",
                 "counted_weight")

    def __init__(self, thread: "SimThread") -> None:
        self.thread = thread
        self.start = 0.0
        self.finish = 0.0
        self.runnable = False
        self.version = 0
        self.epoch = -1
        #: the weight this record currently contributes to ``_weight_sum``
        #: (0 while blocked); refreshed wherever ``thread.weight`` is read
        self.counted_weight = 0


class _FairQueueBase(LeafScheduler):
    """Shared tag/heap machinery for WFQ, FQS, and SCFQ."""

    #: "start" or "finish" — which tag orders the dispatch heap
    order_by = "finish"
    #: short algorithm name; subclasses override (labels observability events)
    algorithm = "fq"

    def __init__(self, assumed_quantum_work: int,
                 quantum: Optional[int] = None) -> None:
        if assumed_quantum_work <= 0:
            raise SchedulingError("assumed quantum work must be positive")
        self.assumed_quantum_work = assumed_quantum_work
        self._records: Dict[int, _FqRecord] = {}
        self._heap: List[Tuple[float, int, int, _FqRecord]] = []
        #: push order, breaking ties between equal heap keys
        self._seq = itertools.count()
        self._runnable = 0
        self._quantum = quantum
        self._epoch = 0
        # Incremental sum of runnable threads' weights.  Weights are
        # integers, so the running sum is exact and independent of update
        # order — the rate clock reads it instead of scanning every record
        # per virtual-time advance (the old O(threads) hot-path cost).
        self._weight_sum = 0

    # --- virtual time: implemented by subclasses ---------------------------

    def _virtual_time(self, now: int) -> float:
        raise NotImplementedError

    def _note_busy_start(self, now: int) -> None:
        """Called when the queue transitions idle -> busy."""

    def _note_pick(self, record: _FqRecord) -> None:
        """Called when a record is selected for service."""

    def _note_charge(self, record: _FqRecord, work: int, now: int) -> None:
        """Called when a quantum completes."""

    # --- LeafScheduler ----------------------------------------------------

    def add_thread(self, thread: "SimThread") -> None:
        if id(thread) in self._records:
            raise SchedulingError("thread %r already registered" % (thread,))
        self._records[id(thread)] = _FqRecord(thread)

    def remove_thread(self, thread: "SimThread") -> None:
        record = self._records.pop(id(thread), None)
        if record is not None and record.runnable:
            record.runnable = False
            record.version += 1
            self._runnable -= 1
            self._weight_sum -= record.counted_weight
            record.counted_weight = 0

    def on_runnable(self, thread: "SimThread", now: int) -> None:
        record = self._record(thread)
        if record.runnable:
            return
        if self._runnable == 0:
            # New busy period: virtual time restarts (classic WFQ semantics);
            # stale finish tags from earlier busy periods do not carry over.
            self._epoch += 1
            self._note_busy_start(now)
        virtual = self._virtual_time(now)
        weight = thread.weight
        finish = record.finish if record.epoch == self._epoch else 0.0
        record.start = max(virtual, finish)
        record.finish = record.start + self.assumed_quantum_work / weight
        record.epoch = self._epoch
        record.runnable = True
        self._push(record)
        self._runnable += 1
        self._weight_sum += weight
        record.counted_weight = weight
        if self._bus.active:
            self._bus.emit(obs.FQ_TAG_UPDATE_SHAPE, now,
                           "fq:" + self.algorithm, thread.tid, record.start,
                           record.finish, 0)

    def on_block(self, thread: "SimThread", now: int) -> None:
        record = self._record(thread)
        if record.runnable:
            record.runnable = False
            record.version += 1
            self._runnable -= 1
            self._weight_sum -= record.counted_weight
            record.counted_weight = 0

    def pick_next(self, now: int) -> Optional["SimThread"]:
        record = self._peek()
        if record is None:
            return None
        self._note_pick(record)
        return record.thread

    def charge(self, thread: "SimThread", work: int, now: int) -> None:
        record = self._record(thread)
        self._note_charge(record, work, now)
        if record.runnable:
            # Next quantum: tags computed as at stamping time, with the
            # previous *assumed* finish as the baseline (WFQ does not revise
            # tags to the actual length — the paper's §6 criticism).
            # A dynamic weight change takes effect here, before the clock
            # advances — the same instant the old per-advance scan would
            # first have seen it.
            weight = thread.weight
            if weight != record.counted_weight:
                self._weight_sum += weight - record.counted_weight
                record.counted_weight = weight
            virtual = self._virtual_time(now)
            record.start = max(virtual, record.finish)
            record.finish = record.start + self.assumed_quantum_work / weight
            self._push(record)
            if self._bus.active:
                self._bus.emit(obs.FQ_TAG_UPDATE_SHAPE, now,
                               "fq:" + self.algorithm, thread.tid,
                               record.start, record.finish, work)

    def has_runnable(self) -> bool:
        return self._runnable > 0

    def quantum_for(self, thread: "SimThread") -> Optional[int]:
        return self._quantum

    # --- helpers ------------------------------------------------------------

    def _record(self, thread: "SimThread") -> _FqRecord:
        try:
            return self._records[id(thread)]
        except KeyError:
            raise SchedulingError("thread %r not registered" % (thread,)) from None

    def _key(self, record: _FqRecord) -> float:
        return record.start if self.order_by == "start" else record.finish

    def _push(self, record: _FqRecord) -> None:
        record.version += 1
        heappush(self._heap,
                 (self._key(record), next(self._seq), record.version, record))

    def _peek(self) -> Optional[_FqRecord]:
        heap = self._heap
        while heap:
            __, __, version, record = heap[0]
            if record.runnable and version == record.version:
                return record
            heappop(heap)
        return None


class _RateClockMixin:
    """Virtual time advancing at the CPU's *nominal* rate.

    ``v`` integrates ``C / sum(weights of runnable threads)`` over wall
    clock while busy.  Interrupt-stolen time still advances ``v`` — the
    divergence between assumed and actual service under fluctuation is the
    unfairness the paper demonstrates.
    """

    def _init_clock(self, capacity_ips: int) -> None:
        if capacity_ips <= 0:
            raise SchedulingError("capacity must be positive")
        self.capacity_ips = capacity_ips
        self._v = 0.0
        self._v_updated = 0

    def _virtual_time(self, now: int) -> float:
        self._advance_clock(now)
        return self._v

    def _note_busy_start(self, now: int) -> None:
        self._v = 0.0
        self._v_updated = now

    def _advance_clock(self, now: int) -> None:
        if now <= self._v_updated:
            return
        weight_sum = self._weight_sum
        if weight_sum > 0:
            elapsed = now - self._v_updated
            self._v += (elapsed * self.capacity_ips) / (SECOND * weight_sum)
            if self._bus.active:
                self._bus.emit(obs.VTIME_ADVANCE_SHAPE, now,
                               "fq:" + self.algorithm, self._v)
        self._v_updated = now


class WfqScheduler(_RateClockMixin, _FairQueueBase):
    """Weighted Fair Queuing: rate-based virtual clock, finish-tag order."""

    algorithm = "wfq"
    order_by = "finish"

    def __init__(self, assumed_quantum_work: int, capacity_ips: int,
                 quantum: Optional[int] = None) -> None:
        _FairQueueBase.__init__(self, assumed_quantum_work, quantum)
        self._init_clock(capacity_ips)

    def on_block(self, thread: "SimThread", now: int) -> None:
        self._advance_clock(now)
        super().on_block(thread, now)


class FqsScheduler(WfqScheduler):
    """Fair Queuing based on Start-time: WFQ tags, start-tag order."""

    algorithm = "fqs"
    order_by = "start"


class ScfqScheduler(_FairQueueBase):
    """Self-Clocked Fair Queuing: v = finish tag of the quantum in service."""

    algorithm = "scfq"
    order_by = "finish"

    def __init__(self, assumed_quantum_work: int,
                 quantum: Optional[int] = None) -> None:
        super().__init__(assumed_quantum_work, quantum)
        self._v = 0.0

    def _virtual_time(self, now: int) -> float:
        return self._v

    def _note_busy_start(self, now: int) -> None:
        self._v = 0.0

    def _note_pick(self, record: _FqRecord) -> None:
        self._v = record.finish
