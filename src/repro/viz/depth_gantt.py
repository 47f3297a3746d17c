"""Depth-axis hierarchy Gantt: time horizontal, scheduling depth vertical.

The natural rendering for this paper's scheduling structure (after
schedsi's depth-indexed Gantt charts): one lane per structure node,
lanes ordered root-outward by hierarchy depth, so the chart reads as
"which subtree held the CPU when".  An ``irq`` lane on top shows
interrupt service windows — time stolen from the whole hierarchy —
and ``!`` marks preemption instants on the owning node's lane.

Works from any span source :mod:`repro.viz.spans` understands; binlogs
are the richest (slices carry leaf pathnames, and preempt/interrupt
instants are preserved)::

    from repro.obs.binlog import BinaryTraceReader
    print(depth_gantt(BinaryTraceReader("run.binlog")))

Cluster runs capture one binlog per host; the ``hosts`` mapping renders
them as host-prefixed lane blocks on one shared time axis::

    print(depth_gantt(hosts={
        "h0": BinaryTraceReader("binlogs/host-h0.binlog"),
        "h1": BinaryTraceReader("binlogs/host-h1.binlog")}))
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.viz.gantt import occupancy_strip, time_axis
from repro.viz.spans import SpanSet, extract_spans, node_depth


def _overlay(strip: str, instants: List[int], start: int, end: int,
             width: int) -> str:
    """Mark instant timestamps on a strip with ``!``."""
    if not instants:
        return strip
    cells = list(strip)
    cell = (end - start) / width
    for t in instants:
        if start <= t < end:
            cells[min(width - 1, int((t - start) / cell))] = "!"
    return "".join(cells)


def _block_labels(spanset: SpanSet, prefix: str) -> List[Tuple[str, str]]:
    """``(label, node)`` lane rows for one span source; irq lane first."""
    rows = [("%sirq" % prefix, "")]
    for node in spanset.nodes():
        rows.append(("%s%d %s" % (prefix, node_depth(node), node), node))
    return rows


def _block_rows(spanset: SpanSet, labels: List[Tuple[str, str]],
                margin: int, start: int, end: int, width: int,
                rows: List[str]) -> None:
    """Append one block's rendered lanes (irq lane, then node lanes)."""
    for label, node in labels:
        if not node:
            strip = occupancy_strip(spanset.interrupts, start, end, width)
        else:
            strip = occupancy_strip(
                (span for span in spanset.spans if span.node == node),
                start, end, width)
            strip = _overlay(strip,
                             [t for t, __, where in spanset.preempts
                              if where == node],
                             start, end, width)
        rows.append("%s |%s|" % (label.rjust(margin), strip))


def depth_gantt(source: Any = None, start: int = 0, end: int = 0,
                width: int = 64, title: str = "",
                hosts: Optional[Dict[str, Any]] = None) -> str:
    """Render per-node occupancy lanes ordered by hierarchy depth.

    ``source`` is a recorder, a :class:`~repro.obs.binlog.BinaryTraceReader`,
    or any record iterable; ``[start, end]`` defaults to the whole trace.

    ``hosts`` renders a *cluster* view instead: a mapping of host key to
    span source (one per-host binlog each, typically), drawn as one lane
    block per host — name-sorted, every lane label prefixed with its
    host key — on a single shared time axis, so cross-host placement and
    migration line up visually.
    """
    if hosts:
        blocks = [(key + " ", extract_spans(hosts[key]))
                  for key in sorted(hosts)]
    elif source is None:
        raise ValueError("depth_gantt needs a source or a hosts mapping")
    else:
        blocks = [("", extract_spans(source))]
    if end <= start:
        end = max(max(spanset.end() for __, spanset in blocks), start + 1)

    labeled = [(spanset, _block_labels(spanset, prefix))
               for prefix, spanset in blocks]
    margin = max(len(label) for __, labels in labeled for label, __ in labels)

    rows: List[str] = []
    if title:
        rows.append(title)
    for spanset, labels in labeled:
        _block_rows(spanset, labels, margin, start, end, width, rows)
    rows.append(time_axis(start, end, width, margin))
    return "\n".join(rows)
