"""Nodes of the scheduling structure.

The scheduling structure is a tree (paper §2 and §4).  Internal nodes
schedule their children with SFQ; each leaf node owns a class-specific leaf
scheduler and the set of threads attached to it.  Node objects carry the
per-node state the Solaris implementation kept in the kernel: a weight, a
runnable flag, and (for internal nodes) the SFQ queue of runnable children.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, Optional

from repro.core.sfq import SfqQueue
from repro.core.tags import TagMath
from repro.errors import NotALeafError, StructureError

if TYPE_CHECKING:  # pragma: no cover
    from repro.schedulers.base import LeafScheduler
    from repro.threads.thread import SimThread


class Node:
    """Common state for internal and leaf nodes."""

    __slots__ = ("name", "weight", "parent", "node_id", "runnable", "path",
                 "view")

    def __init__(self, name: str, weight: int,
                 parent: Optional["InternalNode"]) -> None:
        if type(weight) is not int or weight <= 0:
            raise StructureError(
                "node weight must be a positive int, got %r" % (weight,))
        if parent is not None and ("/" in name or not name):
            raise StructureError("invalid node name %r" % (name,))
        self.name = name
        self.weight = weight
        self.parent = parent
        self.node_id = -1  # assigned by SchedulingStructure
        self.runnable = False
        #: absolute pathname, e.g. ``/best-effort/user1``.  Computed once:
        #: nodes never rename or reparent (hsfq has no rename; hsfq_move
        #: moves threads, not nodes), and traces read the path per event.
        if parent is None:
            self.path = "/"
        elif parent.path == "/":
            self.path = "/" + name
        else:
            self.path = parent.path + "/" + name
        #: the column view of this node's SFQ queue, which the per-dispatch
        #: descent reads (:func:`repro.core.sfq.pick_leaf`); ``None`` on a
        #: leaf, where the descent stops
        self.view = None

    @property
    def is_leaf(self) -> bool:
        """True for leaf nodes (thread holders), False for internal ones."""
        raise NotImplementedError

    @property
    def depth(self) -> int:
        """Distance from the root (root has depth 0)."""
        depth = 0
        node = self
        while node.parent is not None:
            node = node.parent
            depth += 1
        return depth

    def set_weight(self, weight: int) -> None:
        """Change this node's share of its parent's bandwidth.

        Takes effect at the next tag stamping (see DESIGN.md §5).
        """
        if type(weight) is not int or weight <= 0:
            raise StructureError(
                "node weight must be a positive int, got %r" % (weight,))
        self.weight = weight

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "internal"
        return "%s(%r, weight=%d, %s)" % (
            type(self).__name__, self.path, self.weight, kind)


class InternalNode(Node):
    """A non-leaf node: schedules its children with SFQ."""

    __slots__ = ("children", "queue")

    def __init__(self, name: str, weight: int,
                 parent: Optional["InternalNode"],
                 tag_math: Optional[TagMath] = None) -> None:
        super().__init__(name, weight, parent)
        self.children: Dict[str, Node] = {}
        self.queue = SfqQueue(tag_math)
        self.view = self.queue._cview

    @property
    def is_leaf(self) -> bool:
        return False

    def add_child(self, child: Node) -> None:
        """Attach ``child`` and register it in this node's SFQ queue."""
        if child.name in self.children:
            raise StructureError(
                "node %r already has a child named %r" % (self.path, child.name))
        self.children[child.name] = child
        self.queue.add(child)

    def remove_child(self, child: Node) -> None:
        """Detach ``child`` (it must be idle in the SFQ queue)."""
        if self.children.get(child.name) is not child:
            raise StructureError("%r is not a child of %r" % (child, self))
        self.queue.remove(child)
        del self.children[child.name]

    def iter_subtree(self) -> Iterator[Node]:
        """Yield this node and every descendant, pre-order."""
        yield self
        for child in self.children.values():
            if isinstance(child, InternalNode):
                for node in child.iter_subtree():
                    yield node
            else:
                yield child


class LeafNode(Node):
    """A leaf node: owns a leaf scheduler and its threads."""

    __slots__ = ("scheduler", "threads", "chain")

    def __init__(self, name: str, weight: int, parent: Optional["InternalNode"],
                 scheduler: "LeafScheduler") -> None:
        super().__init__(name, weight, parent)
        self.scheduler = scheduler
        #: the cached ancestor chain of this leaf
        #: (:func:`repro.core.sfq.build_ancestor_chain`), or ``None``
        #: until the hierarchy next needs it
        self.chain: Optional[list] = None
        #: attached threads, as an ordered set: iteration follows attach
        #: order, never object addresses (float sums over it must repeat)
        self.threads: Dict["SimThread", None] = {}

    @property
    def is_leaf(self) -> bool:
        return True

    def attach_thread(self, thread: "SimThread") -> None:
        """Bind a thread to this leaf and register it with the scheduler."""
        if thread.leaf is not None:
            raise StructureError(
                "thread %r is already attached to %r" % (thread, thread.leaf))
        self.threads[thread] = None
        thread.leaf = self
        self.scheduler.add_thread(thread)

    def detach_thread(self, thread: "SimThread") -> None:
        """Unbind a thread (it must not be runnable in the scheduler)."""
        if thread not in self.threads:
            raise StructureError("thread %r is not attached to %r" % (thread, self))
        self.scheduler.remove_thread(thread)
        del self.threads[thread]
        thread.leaf = None

    def iter_subtree(self) -> Iterator[Node]:
        """Yield just this leaf (uniform traversal with internal nodes)."""
        yield self


def require_leaf(node: Node) -> LeafNode:
    """Downcast helper: raise :class:`NotALeafError` unless ``node`` is a leaf."""
    if not isinstance(node, LeafNode):
        raise NotALeafError("%r is not a leaf node" % (node,))
    return node
