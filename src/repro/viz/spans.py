"""Shared span extraction for the Gantt renderers.

Both Gantt charts answer "who held the CPU when" — per thread
(:mod:`repro.viz.gantt`) or per scheduling node by hierarchy depth
(:mod:`repro.viz.depth_gantt`).  This module turns either trace source
into one normalized :class:`SpanSet` so the renderers never care where
the data came from:

* a :class:`~repro.trace.recorder.Recorder` — per-thread slice lists,
  each slice with the leaf it ran under;
* any iterable of ``(shape, time, values)`` bus records — a
  :class:`~repro.obs.binlog.BinaryTraceReader`, a replayed list, or a
  live collector's buffer.

Both label each span with the leaf pathname its ``slice`` record carried
("/" for flat schedulers), so a thread moved by ``hsfq_move`` shows under
each leaf in turn.  Record streams also carry preempt instants, which a
recorder does not keep.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Iterable, List, NamedTuple,
                    Optional, Tuple)

from repro.obs import events as ev
from repro.trace.recorder import Recorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.threads.thread import SimThread


class Span(NamedTuple):
    """One contiguous run of execution: [t0, t1] by ``tid`` on ``node``."""

    t0: int
    t1: int
    tid: int
    name: str
    node: str


class SpanSet:
    """Execution spans plus preempt/interrupt instants from one trace."""

    __slots__ = ("spans", "interrupts", "preempts")

    def __init__(self, spans: List[Span],
                 interrupts: List[Tuple[int, int]],
                 preempts: List[Tuple[int, int, str]]) -> None:
        #: time-ordered execution spans
        self.spans = spans
        #: interrupt service windows ``(t0, t1)``
        self.interrupts = interrupts
        #: preemption instants ``(t, tid, node)``
        self.preempts = preempts

    def end(self) -> int:
        """Latest timestamp across spans and interrupts (0 when empty)."""
        last = 0
        if self.spans:
            last = max(span.t1 for span in self.spans)
        if self.interrupts:
            last = max(last, max(t1 for __, t1 in self.interrupts))
        return last

    def nodes(self) -> List[str]:
        """Distinct node paths, ordered by (depth, path)."""
        seen = {span.node for span in self.spans}
        seen.update(node for __, __, node in self.preempts)
        return sorted(seen, key=lambda path: (node_depth(path), path))

    def threads(self) -> List[Tuple[int, str]]:
        """Distinct ``(tid, name)`` pairs in tid order."""
        seen = {}
        for span in self.spans:
            seen.setdefault(span.tid, span.name)
        return sorted(seen.items())


def node_depth(path: str) -> int:
    """Hierarchy depth of a node pathname: "/" is 0, "/a/b" is 2.

    Non-path labels (the fair-queuing baselines emit ``fq:sfq``) sit at
    depth 0 alongside the root.
    """
    if not path.startswith("/"):
        return 0
    return path.rstrip("/").count("/")


def extract_spans(source: Any,
                  threads: Optional[Iterable["SimThread"]] = None) -> SpanSet:
    """Normalize ``source`` into a :class:`SpanSet`.

    ``source`` is a :class:`Recorder` or any iterable of bus records;
    ``threads`` optionally restricts (and orders) recorder extraction,
    exactly like :func:`repro.trace.timeline.merge_timeline`.
    """
    if isinstance(source, Recorder):
        return _from_recorder(source, threads)
    return _from_events(source)


def _from_recorder(recorder: Recorder,
                   threads: Optional[Iterable["SimThread"]]) -> SpanSet:
    if threads is None:
        traces = [recorder.threads[tid] for tid in sorted(recorder.threads)]
    else:
        traces = [recorder.trace_of(thread) for thread in threads]
    spans: List[Span] = []
    for trace in traces:
        for (t0, t1, __), node in zip(trace.slices, trace.slice_nodes):
            spans.append(Span(t0, t1, trace.tid, trace.name, node))
    spans.sort(key=lambda span: (span.t0, span.t1, span.tid))
    interrupts = [(t, t + service) for t, service in recorder.interrupts]
    return SpanSet(spans, interrupts, [])


def _from_events(records: Iterable[ev.Record]) -> SpanSet:
    spans: List[Span] = []
    interrupts: List[Tuple[int, int]] = []
    preempts: List[Tuple[int, int, str]] = []
    for shape, time, values in records:
        kind = shape.kind
        data = dict(zip(shape.fields, values))
        if kind == ev.SLICE:
            spans.append(Span(data["start"], time, data["tid"],
                              data.get("name", "t%d" % data["tid"]),
                              data.get("node", "/")))
        elif kind == ev.INTERRUPT:
            interrupts.append((time, time + data["service"]))
        elif kind == ev.PREEMPT:
            preempts.append((time, data["tid"], data.get("node", "/")))
    spans.sort(key=lambda span: (span.t0, span.t1, span.tid))
    return SpanSet(spans, interrupts, preempts)
