"""The trace recorder: an event-bus subscriber that remembers everything
needed by the paper's metrics.

The recorder keeps, per thread:

* **slices** ``(t0, t1, work)`` — every contiguous run of execution (bursts
  end at pauses, preemptions, blocks, and quantum expiries), which gives an
  exact piecewise-linear service curve :meth:`service_at`;
* lifecycle instants — runnable transitions, dispatches, blocks, wakeups,
  segment completions, charges, exit;

and machine-wide interrupt records, all folded in from machine events,
live or replayed from a binlog.  All computation over the trace lives in
:mod:`repro.trace.metrics` and :mod:`repro.analysis`.
"""

from __future__ import annotations

import bisect
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.obs import events as ev

if TYPE_CHECKING:  # pragma: no cover
    from repro.threads.thread import SimThread

#: the machine shapes a recorder folds in
_FOLDED = frozenset((
    ev.SPAWN_SHAPE, ev.RUNNABLE_SHAPE, ev.DISPATCH_SHAPE, ev.SLICE_SHAPE,
    ev.CHARGE_SHAPE, ev.BLOCK_SHAPE, ev.WAKE_SHAPE, ev.EXIT_SHAPE,
    ev.INTERRUPT_SHAPE))
#: the same shapes by kind, for records of another shape read by name
_SHAPE_OF = MappingProxyType({shape.kind: shape for shape in _FOLDED})


class ThreadTrace:
    """Recorded history of one thread."""

    __slots__ = ("tid", "name", "slices", "slice_nodes", "dispatches",
                 "runnables", "blocks", "wakes", "segment_completions",
                 "charges", "spawned_at", "exited_at", "_slice_starts",
                 "_slice_cum")

    def __init__(self, tid: int, name: str) -> None:
        self.tid = tid
        self.name = name
        self.slices: List[Tuple[int, int, int]] = []
        #: leaf pathname each slice ran under, parallel to ``slices``
        self.slice_nodes: List[str] = []
        self.dispatches: List[int] = []
        self.runnables: List[int] = []
        self.blocks: List[int] = []
        self.wakes: List[int] = []
        self.segment_completions: List[int] = []
        self.charges: List[Tuple[int, int]] = []
        self.spawned_at: Optional[int] = None
        self.exited_at: Optional[int] = None
        self._slice_starts: List[int] = []
        self._slice_cum: List[int] = []  # cumulative work *before* each slice

    @property
    def total_work(self) -> int:
        """Total instructions executed over the whole trace."""
        if not self.slices:
            return 0
        return self._slice_cum[-1] + self.slices[-1][2]

    def add_slice(self, t0: int, t1: int, work: int, node: str) -> None:
        """Append an execution slice, maintaining the cumulative index."""
        cum = self.total_work
        self.slices.append((t0, t1, work))
        self.slice_nodes.append(node)
        self._slice_starts.append(t0)
        self._slice_cum.append(cum)

    def service_at(self, t: int) -> float:
        """Cumulative work W(t): exact at slice boundaries, linear inside."""
        idx = bisect.bisect_right(self._slice_starts, t) - 1
        if idx < 0:
            return 0.0
        t0, t1, work = self.slices[idx]
        base = self._slice_cum[idx]
        if t >= t1:
            return float(base + work)
        if t1 == t0:
            return float(base + work)
        return base + work * (t - t0) / (t1 - t0)

    def work_in(self, t1: int, t2: int) -> float:
        """Work executed in the interval [t1, t2]."""
        if t2 < t1:
            raise ValueError("interval end before start")
        return self.service_at(t2) - self.service_at(t1)

    def runnable_intervals(self, horizon: int) -> List[Tuple[int, int]]:
        """Maximal intervals during which the thread was runnable or running.

        ``horizon`` closes a trailing open interval (a thread still
        runnable when tracing stopped).
        """
        intervals: List[Tuple[int, int]] = []
        ends = sorted(self.blocks + ([self.exited_at] if self.exited_at is not None else []))
        ei = 0
        for start in self.runnables:
            while ei < len(ends) and ends[ei] < start:
                ei += 1
            if ei < len(ends):
                intervals.append((start, ends[ei]))
                ei += 1
            else:
                intervals.append((start, horizon))
        return intervals


class Recorder:
    """An event-bus subscriber: pass it as ``Machine(tracer=...)``,
    subscribe it to a run's bus, or ``replay(path, recorder)``.

    It is a capture consumer: the bus (or ``replay``) hands it each
    record as emitted through :meth:`capture`, its one record entry
    point, which folds the machine shapes by position and returns at once
    for every other kind (the hierarchy's tag and virtual-time records,
    say).
    """

    def __init__(self) -> None:
        self.threads: Dict[int, ThreadTrace] = {}
        self.interrupts: List[Tuple[int, int]] = []

    def trace_of(self, thread: "SimThread") -> ThreadTrace:
        """The (created-on-demand) trace of ``thread``."""
        if thread.tid not in self.threads:
            self.threads[thread.tid] = ThreadTrace(thread.tid, thread.name)
        return self.threads[thread.tid]

    def capture(self, shape: ev.Shape, t: int, values: Tuple[Any, ...]
                ) -> None:
        """Fold one record in, as emitted; kinds that are not machine
        facts return at once.

        A record of a machine kind in another shape (one read back from
        a binlog generic record, say) is first read by field name into
        that kind's machine shape; a field it lacks reads as None.
        """
        if shape not in _FOLDED:
            folded = _SHAPE_OF.get(shape.kind)
            if folded is None:
                return
            data = dict(zip(shape.fields, values))
            shape = folded
            values = tuple(map(data.get, folded.fields))
        if shape is ev.INTERRUPT_SHAPE:
            self.interrupts.append((t, values[1]))
            return
        tid = values[0]
        trace = self.threads.get(tid)
        if trace is None:
            name = values[1] if shape.fields[1] == "name" else None
            trace = self.threads[tid] = ThreadTrace(
                tid, "t%d" % tid if name is None else name)
        if shape is ev.SLICE_SHAPE:
            __, __, node, __, start, work = values
            trace.add_slice(start, t, work, node)
        elif shape is ev.CHARGE_SHAPE:
            __, __, work, segment_done = values
            trace.charges.append((t, work))
            if segment_done:
                trace.segment_completions.append(t)
        elif shape is ev.DISPATCH_SHAPE:
            trace.dispatches.append(t)
        elif shape is ev.RUNNABLE_SHAPE:
            trace.runnables.append(t)
        elif shape is ev.BLOCK_SHAPE:
            trace.blocks.append(t)
        elif shape is ev.WAKE_SHAPE:
            trace.wakes.append(t)
        elif shape is ev.SPAWN_SHAPE:
            trace.spawned_at = t
        else:
            trace.exited_at = t

    # --- convenience ----------------------------------------------------------

    def total_interrupt_time(self) -> int:
        """Total interrupt service time recorded."""
        return sum(service for __, service in self.interrupts)
