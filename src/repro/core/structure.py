"""The scheduling structure: a pathname-addressed tree of scheduling nodes.

This mirrors the system-call interface of the paper's Solaris implementation
(§4).  Each operation corresponds to one call:

=================  =====================================================
paper syscall       method here
=================  =====================================================
``hsfq_mknod``      :meth:`SchedulingStructure.mknod`
``hsfq_parse``      :meth:`SchedulingStructure.parse`
``hsfq_rmnod``      :meth:`SchedulingStructure.rmnod`
``hsfq_move``       :meth:`SchedulingStructure.move` (via the hierarchy)
``hsfq_admin``      :meth:`SchedulingStructure.admin`
=================  =====================================================

Nodes have UNIX-like names ("/best-effort/user1"); ``parse`` resolves both
absolute and relative names, the latter against a ``hint`` node, exactly as
described in the paper.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Union

from repro.core.node import InternalNode, LeafNode, Node, require_leaf
from repro.core.tags import TagMath
from repro.errors import (
    NodeBusyError,
    NodeExistsError,
    NodeNotFoundError,
    StructureError,
)

NodeRef = Union[int, str, Node]

#: admin command: read a node's weight
ADMIN_GET_WEIGHT = "get_weight"
#: admin command: change a node's weight
ADMIN_SET_WEIGHT = "set_weight"
#: admin command: summary dict of a node
ADMIN_INFO = "info"


class SchedulingStructure:
    """The tree of scheduling classes, addressed by pathname or node id."""

    def __init__(self, tag_math: Optional[TagMath] = None) -> None:
        self.tag_math = tag_math
        self.root = InternalNode("", weight=1, parent=None, tag_math=tag_math)
        self._nodes: Dict[int, Node] = {}
        self._next_id = 0
        #: the leaves that hold a cached ancestor chain (the hierarchy
        #: appends each leaf whose chain it builds); see _drop_chains
        self.chained_leaves: List[LeafNode] = []
        self._register(self.root)
        #: back-reference set by HierarchicalScheduler; used by thread moves
        #: and to install the run's bus on leaves made later
        self.hierarchy = None

    # --- registration ----------------------------------------------------

    def _register(self, node: Node) -> Node:
        node.node_id = self._next_id
        self._next_id += 1
        self._nodes[node.node_id] = node
        self._drop_chains()
        return node

    def _drop_chains(self) -> None:
        """Forget every cached ancestor chain; ``mknod`` and ``rmnod`` call
        this, because a chain bakes in the tree's shape."""
        for leaf in self.chained_leaves:
            leaf.chain = None
        del self.chained_leaves[:]

    # --- hsfq_mknod --------------------------------------------------------

    def mknod(self, name: str, weight: int, parent: Optional[NodeRef] = None,
              scheduler=None) -> Node:
        """Create a node; a ``scheduler`` argument makes it a leaf.

        ``name`` may be an absolute path ("/a/b": parent resolved from the
        path, ``parent`` must then be omitted or "/a") or a simple name
        relative to ``parent`` (default: the root).
        """
        if name.startswith("/"):
            parts = [part for part in name.split("/") if part]
            if not parts:
                raise StructureError("cannot create the root node")
            parent_node = self.root
            for part in parts[:-1]:
                parent_node = self._child_of(parent_node, part)
            if parent is not None and self.resolve(parent) is not parent_node:
                raise StructureError(
                    "parent argument %r conflicts with path %r" % (parent, name))
            short_name = parts[-1]
        else:
            parent_node = self.resolve(parent) if parent is not None else self.root
            short_name = name
        if not isinstance(parent_node, InternalNode):
            raise StructureError(
                "parent %r is a leaf; cannot create children" % (parent_node.path,))
        if short_name in parent_node.children:
            raise NodeExistsError(
                "node %r already exists" % (parent_node.path.rstrip("/") + "/" + short_name,))
        if scheduler is not None:
            node: Node = LeafNode(short_name, weight, parent_node, scheduler)
            if self.hierarchy is not None:
                scheduler.attach_bus(self.hierarchy._bus)
        else:
            node = InternalNode(short_name, weight, parent_node,
                                tag_math=self.tag_math)
        parent_node.add_child(node)
        return self._register(node)

    # --- hsfq_parse ---------------------------------------------------------

    def parse(self, name: str, hint: Optional[NodeRef] = None) -> Node:
        """Resolve a pathname (absolute, or relative to ``hint``) to a node."""
        if name.startswith("/"):
            node: Node = self.root
        else:
            node = self.resolve(hint) if hint is not None else self.root
        for part in name.split("/"):
            if not part or part == ".":
                continue
            if part == "..":
                if node.parent is not None:
                    node = node.parent
                continue
            node = self._child_of(node, part)
        return node

    def resolve(self, ref: NodeRef) -> Node:
        """Accept a node id, a pathname, or a node object; return the node."""
        if isinstance(ref, Node):
            if self._nodes.get(ref.node_id) is not ref:
                raise NodeNotFoundError("node %r is not in this structure" % (ref,))
            return ref
        if isinstance(ref, int):
            try:
                return self._nodes[ref]
            except KeyError:
                raise NodeNotFoundError("no node with id %d" % ref) from None
        if isinstance(ref, str):
            return self.parse(ref)
        raise TypeError("node reference must be int, str, or Node; got %r" % (ref,))

    # --- hsfq_rmnod ---------------------------------------------------------

    def rmnod(self, ref: NodeRef) -> None:
        """Remove a node; it must be childless, thread-less, and idle."""
        node = self.resolve(ref)
        if node is self.root:
            raise StructureError("cannot remove the root node")
        if isinstance(node, InternalNode) and node.children:
            raise NodeBusyError("node %r has children" % (node.path,))
        if isinstance(node, LeafNode) and node.threads:
            raise NodeBusyError("node %r has attached threads" % (node.path,))
        if node.runnable:
            raise NodeBusyError("node %r is runnable" % (node.path,))
        assert node.parent is not None
        node.parent.remove_child(node)
        del self._nodes[node.node_id]
        self._drop_chains()

    # --- hsfq_move ----------------------------------------------------------

    def move(self, thread, to: NodeRef) -> None:
        """Move ``thread`` to leaf node ``to``.

        When a hierarchy is attached this keeps the runnable bookkeeping
        consistent (the thread may be runnable); otherwise the thread must
        be quiescent.
        """
        dest = require_leaf(self.resolve(to))
        if self.hierarchy is not None:
            self.hierarchy.move_thread(thread, dest)
        else:
            source = thread.leaf
            if source is not None:
                source.detach_thread(thread)
            dest.attach_thread(thread)

    # --- hsfq_admin ---------------------------------------------------------

    def admin(self, ref: NodeRef, cmd: str, args=None):
        """Administrative operations on a node (paper's ``hsfq_admin``)."""
        node = self.resolve(ref)
        if cmd == ADMIN_GET_WEIGHT:
            return node.weight
        if cmd == ADMIN_SET_WEIGHT:
            node.set_weight(args)
            return node.weight
        if cmd == ADMIN_INFO:
            info = {
                "id": node.node_id,
                "path": node.path,
                "weight": node.weight,
                "leaf": node.is_leaf,
                "runnable": node.runnable,
            }
            if isinstance(node, InternalNode):
                info["children"] = sorted(node.children)
                info["virtual_time"] = node.queue.virtual_time
            else:
                info["threads"] = sorted(t.name for t in node.threads)  # type: ignore[union-attr]
            return info
        raise StructureError("unknown admin command %r" % (cmd,))

    # --- traversal -----------------------------------------------------------

    def iter_nodes(self) -> Iterator[Node]:
        """Yield every node in the tree, pre-order from the root."""
        return self.root.iter_subtree()

    def iter_leaves(self) -> Iterator[LeafNode]:
        """Yield every leaf node in the tree."""
        for node in self.iter_nodes():
            if isinstance(node, LeafNode):
                yield node

    def _child_of(self, node: Node, part: str) -> Node:
        if not isinstance(node, InternalNode):
            raise NodeNotFoundError(
                "%r is a leaf; cannot resolve %r under it" % (node.path, part))
        try:
            return node.children[part]
        except KeyError:
            raise NodeNotFoundError(
                "no node named %r under %r" % (part, node.path)) from None
