"""Hierarchical schedstats: per-node cumulative scheduling statistics.

The Linux ``/proc/schedstat`` interface is the standard way to evaluate a
deployed scheduler without attaching a tracer; this module gives the
reproduction the hierarchical equivalent.  :class:`SchedStat` subscribes to
the event bus and accumulates, **per scheduling-structure node** (keyed by
pathname, with every charge also attributed to the node's ancestors):

* dispatches, preemptions, blocks, wakes;
* charges and total service (instructions);
* scheduling/context-switch overhead attribution (ns);
* tag ranges (smallest start tag, largest finish tag seen) and the last
  observed virtual time;
* SCHEDSAN violations routed through the bus.

:func:`render_schedstat` merges those cumulative numbers with the *live*
state of a :class:`~repro.core.structure.SchedulingStructure` (weights,
runnable flags, current virtual times) into a ``/proc/schedstat``-style
text tree::

    stats = SchedStat()
    with BUS.subscription(stats):
        machine.run_until(horizon)
    print(render_schedstat(structure, stats))
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs import events as ev

#: the kinds a :class:`SchedStat` folds; it only counts the others
_FOLDED = frozenset((ev.DISPATCH, ev.CHARGE, ev.PREEMPT, ev.BLOCK, ev.WAKE,
                     ev.TAG_UPDATE, ev.VTIME_ADVANCE, ev.VIOLATION,
                     ev.INTERRUPT))


def ancestor_paths(path: str) -> List[str]:
    """Every prefix path of ``path``, root first: "/a/b" -> ["/", "/a", "/a/b"]."""
    if not path.startswith("/"):
        return [path]
    parts = [part for part in path.split("/") if part]
    out = ["/"]
    for index in range(len(parts)):
        out.append("/" + "/".join(parts[:index + 1]))
    return out


class NodeStats:
    """Cumulative counters for one scheduling-structure node."""

    __slots__ = ("dispatches", "preemptions", "blocks", "wakes", "charges",
                 "service_work", "overhead_ns", "violations", "tag_updates",
                 "min_start", "max_finish", "vtime")

    def __init__(self) -> None:
        self.dispatches = 0
        self.preemptions = 0
        self.blocks = 0
        self.wakes = 0
        self.charges = 0
        self.service_work = 0
        self.overhead_ns = 0
        self.violations = 0
        self.tag_updates = 0
        self.min_start: Optional[float] = None
        self.max_finish: Optional[float] = None
        self.vtime: Optional[float] = None

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict view (for JSON export and tests)."""
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "NodeStats":
        """Rebuild a record from :meth:`as_dict` output."""
        stats = cls()
        for slot in cls.__slots__:
            if slot in data:
                setattr(stats, slot, data[slot])
        return stats

    def merge(self, other: "NodeStats") -> None:
        """Fold ``other`` into this record (cluster roll-up semantics).

        Counters add; tag extrema widen.  ``vtime`` keeps the largest
        non-``None`` value — per-host virtual times are not mutually
        ordered, so for cross-host roll-up nodes this is a deterministic
        convention, not a physical clock.
        """
        self.dispatches += other.dispatches
        self.preemptions += other.preemptions
        self.blocks += other.blocks
        self.wakes += other.wakes
        self.charges += other.charges
        self.service_work += other.service_work
        self.overhead_ns += other.overhead_ns
        self.violations += other.violations
        self.tag_updates += other.tag_updates
        if other.min_start is not None and (self.min_start is None
                                            or other.min_start < self.min_start):
            self.min_start = other.min_start
        if other.max_finish is not None and (self.max_finish is None
                                             or other.max_finish > self.max_finish):
            self.max_finish = other.max_finish
        if other.vtime is not None and (self.vtime is None
                                        or other.vtime > self.vtime):
            self.vtime = other.vtime


class SchedStat:
    """Capture consumer accumulating per-node scheduling statistics.

    Thread-lifecycle events carry the leaf pathname of the thread involved;
    each is attributed to that leaf *and all its ancestors*, so an internal
    node's row reports its whole subtree — the hierarchical reading of
    ``/proc/schedstat``.  Tag and virtual-time events update only the named
    node.
    """

    def __init__(self) -> None:
        self.nodes: Dict[str, NodeStats] = {}
        self.interrupts = 0
        self.interrupt_ns = 0
        self.events_seen = 0

    def node(self, path: str) -> NodeStats:
        """The (created-on-demand) stats record for ``path``."""
        stats = self.nodes.get(path)
        if stats is None:
            stats = NodeStats()
            self.nodes[path] = stats
        return stats

    def _bump(self, path: str, field: str, amount: int = 1) -> None:
        for prefix in ancestor_paths(path):
            stats = self.node(prefix)
            setattr(stats, field, getattr(stats, field) + amount)

    def capture(self, shape: ev.Shape, time: int, values: Tuple[Any, ...]
                ) -> None:
        """Record entry point: fold one record into the node table."""
        self.events_seen += 1
        kind = shape.kind
        if kind not in _FOLDED:
            return
        data = dict(zip(shape.fields, values))
        if kind == ev.DISPATCH:
            self._bump(data["node"], "dispatches")
            overhead = data.get("overhead_ns", 0)
            if overhead:
                self._bump(data["node"], "overhead_ns", overhead)
        elif kind == ev.CHARGE:
            self._bump(data["node"], "charges")
            self._bump(data["node"], "service_work", data["work"])
        elif kind == ev.PREEMPT:
            self._bump(data["node"], "preemptions")
        elif kind == ev.BLOCK:
            self._bump(data["node"], "blocks")
        elif kind == ev.WAKE:
            node = data.get("node")
            if node is not None:
                self._bump(node, "wakes")
        elif kind == ev.TAG_UPDATE:
            stats = self.node(data["node"])
            stats.tag_updates += 1
            start = data.get("start")
            finish = data.get("finish")
            if start is not None and (stats.min_start is None
                                      or start < stats.min_start):
                stats.min_start = start
            if finish is not None and (stats.max_finish is None
                                       or finish > stats.max_finish):
                stats.max_finish = finish
        elif kind == ev.VTIME_ADVANCE:
            self.node(data["node"]).vtime = data["v"]
        elif kind == ev.VIOLATION:
            self.node(data.get("node", "/")).violations += 1
        else:  # ev.INTERRUPT
            self.interrupts += 1
            self.interrupt_ns += data.get("service", 0)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able snapshot of the whole collector (node table included)."""
        return {
            "nodes": {path: record.as_dict()
                      for path, record in sorted(self.nodes.items())},
            "interrupts": self.interrupts,
            "interrupt_ns": self.interrupt_ns,
            "events_seen": self.events_seen,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SchedStat":
        """Rebuild a collector from :meth:`to_dict` output.

        This is how cluster shard workers ship per-host statistics back
        to the runner: the collector crosses the process boundary as a
        plain dict, never as a pickled object graph.
        """
        stats = cls()
        for path, record in data.get("nodes", {}).items():
            stats.nodes[path] = NodeStats.from_dict(record)
        stats.interrupts = int(data.get("interrupts", 0))
        stats.interrupt_ns = int(data.get("interrupt_ns", 0))
        stats.events_seen = int(data.get("events_seen", 0))
        return stats


def merge_schedstats(per_host: Dict[str, SchedStat],
                     prefix: str = "/host") -> SchedStat:
    """Aggregate per-host collectors into one cluster-wide view.

    Every node path of host ``key`` reappears under ``<prefix>/<key>``
    (the host's root ``/`` becomes the ``<prefix>/<key>`` node itself),
    and each host's root counters also roll up into the cluster ``/``
    and ``<prefix>`` nodes — the same ancestor-attribution rule
    :class:`SchedStat` applies within one hierarchy, lifted one tier.
    ``repro.cluster report`` renders the result with
    :func:`render_schedstat_paths`.
    """
    merged = SchedStat()
    for key in sorted(per_host):
        stats = per_host[key]
        merged.interrupts += stats.interrupts
        merged.interrupt_ns += stats.interrupt_ns
        merged.events_seen += stats.events_seen
        base = "%s/%s" % (prefix, key)
        root = stats.nodes.get("/")
        if root is not None:
            merged.node("/").merge(root)
            merged.node(prefix).merge(root)
        for path, record in stats.nodes.items():
            mapped = base if path == "/" else base + path
            merged.node(mapped).merge(record)
    return merged


def _format_tag(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return "%.3f" % value


def _node_lines(node: Any, stats: Optional[SchedStat], depth: int,
                lines: List[str]) -> None:
    indent = "  " * depth
    label = node.path
    kind = "leaf" if node.is_leaf else "internal"
    detail = ""
    if node.is_leaf:
        algorithm = getattr(node.scheduler, "algorithm", "?")
        detail = " sched=%s threads=%d" % (algorithm, len(node.threads))
    else:
        detail = " v=%s children=%d" % (
            _format_tag(float(node.queue.virtual_time)), len(node.children))
    lines.append("%s%s weight=%d %s runnable=%d%s"
                 % (indent, label, node.weight, kind, int(node.runnable),
                    detail))
    record = stats.nodes.get(node.path) if stats is not None else None
    if record is not None:
        lines.append(
            "%s  dispatches=%d preempt=%d service=%d charges=%d "
            "overhead_ns=%d blocks=%d wakes=%d violations=%d"
            % (indent, record.dispatches, record.preemptions,
               record.service_work, record.charges, record.overhead_ns,
               record.blocks, record.wakes, record.violations))
        lines.append(
            "%s  tags: S_min=%s F_max=%s v_last=%s updates=%d"
            % (indent, _format_tag(record.min_start),
               _format_tag(record.max_finish), _format_tag(record.vtime),
               record.tag_updates))
    if not node.is_leaf:
        for child in node.children.values():
            _node_lines(child, stats, depth + 1, lines)


def render_schedstat_paths(stats: SchedStat) -> str:
    """Structure-free schedstat view: the counter tree alone.

    Offline conversion (``python -m repro.obs convert --schedstat``)
    has no live :class:`~repro.core.structure.SchedulingStructure` to
    merge with, so this renders every node path the collector saw —
    indented by depth, ancestors first — with the same counter lines
    :func:`render_schedstat` prints under each node.
    """
    lines: List[str] = ["schedstat-hsfq version 1 (offline)"]
    for path in sorted(stats.nodes, key=ancestor_paths):
        record = stats.nodes[path]
        depth = len(ancestor_paths(path)) - 1
        indent = "  " * depth
        lines.append("%s%s" % (indent, path))
        lines.append(
            "%s  dispatches=%d preempt=%d service=%d charges=%d "
            "overhead_ns=%d blocks=%d wakes=%d violations=%d"
            % (indent, record.dispatches, record.preemptions,
               record.service_work, record.charges, record.overhead_ns,
               record.blocks, record.wakes, record.violations))
        lines.append(
            "%s  tags: S_min=%s F_max=%s v_last=%s updates=%d"
            % (indent, _format_tag(record.min_start),
               _format_tag(record.max_finish), _format_tag(record.vtime),
               record.tag_updates))
    lines.append("interrupts=%d interrupt_ns=%d events=%d"
                 % (stats.interrupts, stats.interrupt_ns, stats.events_seen))
    return "\n".join(lines)


def render_schedstat(structure: Any,
                     stats: Optional[SchedStat] = None) -> str:
    """A ``/proc/schedstat``-style text tree of ``structure``.

    ``structure`` is a :class:`~repro.core.structure.SchedulingStructure`
    (duck-typed: anything with a ``root`` node tree works).  When a
    :class:`SchedStat` collector is supplied its cumulative counters are
    printed under each node; otherwise only the live state (weights,
    runnable flags, virtual times) is shown.
    """
    lines: List[str] = ["schedstat-hsfq version 1"]
    _node_lines(structure.root, stats, 0, lines)
    if stats is not None:
        lines.append("interrupts=%d interrupt_ns=%d events=%d"
                     % (stats.interrupts, stats.interrupt_ns,
                        stats.events_seen))
    return "\n".join(lines)
