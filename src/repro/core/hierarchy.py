"""The hierarchical scheduler (paper §2 and §4).

Scheduling happens recursively: the root picks the runnable child with the
smallest SFQ start tag, that child picks among *its* children, and so on
until a leaf node's class-specific scheduler picks a thread
(``hsfq_schedule``).  When a quantum completes, the executed length is
charged to the leaf's scheduler and to every ancestor's SFQ queue
(``hsfq_update``).  Eligibility propagates up the tree lazily: marking a
leaf runnable walks up only until an already-runnable ancestor is found
(``hsfq_setrun``), and marking it idle walks up only while ancestors lose
their last runnable child (``hsfq_sleep``) — exactly the optimization the
paper describes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.core.node import InternalNode, LeafNode, Node, require_leaf
# The hot walks are called through these module-level names, where the
# benchmark's per-layer tracer patches them to count sfq.chain_calls.
from repro.core.sfq import (
    _CH_ENTITY,
    _CH_FIN,
    _CH_PARENT,
    _CH_SLOT,
    _CH_START,
    _CH_STATE,
    _VT,
    build_ancestor_chain,
    charge_chain,
    pick_leaf,
    sleep_chain,
    wake_chain,
)
from repro.core.structure import SchedulingStructure
from repro.cpu.interface import TopScheduler
from repro.errors import SchedulingError
from repro.obs import events as obs
from repro.threads.states import ThreadState

if TYPE_CHECKING:  # pragma: no cover
    from repro.threads.thread import SimThread

#: never preempt within a quantum (the paper's behaviour)
PREEMPT_NONE = "none"
#: allow a leaf scheduler to preempt the running thread of the *same* leaf
PREEMPT_LEAF = "leaf"


class HierarchicalScheduler(TopScheduler):
    """Drives a :class:`~repro.core.structure.SchedulingStructure`.

    Parameters
    ----------
    structure:
        The scheduling-structure tree.  This scheduler registers itself as
        ``structure.hierarchy`` so ``hsfq_move`` stays consistent.
    preempt_policy:
        ``PREEMPT_NONE`` (default, as in the paper) or ``PREEMPT_LEAF``
        (extension: intra-leaf preemption for EDF/RMA leaves).
    """

    def __init__(self, structure: SchedulingStructure,
                 preempt_policy: str = PREEMPT_NONE) -> None:
        if preempt_policy not in (PREEMPT_NONE, PREEMPT_LEAF):
            raise ValueError("unknown preempt policy %r" % (preempt_policy,))
        self.structure = structure
        self.preempt_policy = preempt_policy
        structure.hierarchy = self
        self._decision_depth = 1
        #: clock callable; the machine installs its engine's clock here
        self.clock: Callable[[], int] = lambda: 0
        # Per-leaf charge chains (see repro.core.sfq.build_ancestor_chain),
        # keyed by leaf id.  The tree shape only changes through
        # mknod/rmnod, which bump structure.tree_version; charge() rebuilds
        # lazily when the versions diverge.
        self._charge_chains: Dict[int, list] = {}
        self._charge_chains_version = structure.tree_version

    # --- TopScheduler protocol --------------------------------------------

    def attach_bus(self, bus: obs.EventBus) -> None:
        """Emit on ``bus``, and install it on every leaf scheduler
        (``mknod`` installs it on leaves made later)."""
        self._bus = bus
        for leaf in self.structure.iter_leaves():
            leaf.scheduler.attach_bus(bus)

    def admit(self, thread: "SimThread") -> None:
        if thread.leaf is None:
            raise SchedulingError(
                "thread %r must be attached to a leaf before admission; "
                "use LeafNode.attach_thread or SchedulingStructure.move" % (thread,))

    def retire(self, thread: "SimThread", now: int) -> None:
        leaf = require_leaf(thread.leaf)
        leaf.scheduler.on_block(thread, now)
        self._sleep_if_idle(leaf)
        leaf.detach_thread(thread)

    def thread_runnable(self, thread: "SimThread", now: int) -> None:
        leaf = require_leaf(thread.leaf)
        leaf.scheduler.on_runnable(thread, now)
        self.setrun(leaf)

    def thread_blocked(self, thread: "SimThread", now: int) -> None:
        leaf = require_leaf(thread.leaf)
        leaf.scheduler.on_block(thread, now)
        self._sleep_if_idle(leaf)

    def pick_next(self, now: int) -> Optional["SimThread"]:
        root = self.structure.root
        if not root.runnable:
            return None
        leaf, depth = pick_leaf(root, LeafNode)
        if leaf is None:
            raise self._descent_error(root)
        if self._bus.active:
            # the virtual time the descent just set at each level, root first
            for entry in reversed(self._chain_for(leaf)):
                self._bus.emit(obs.VTIME_ADVANCE_SHAPE, now,
                               entry[_CH_PARENT].path,
                               float(entry[_CH_STATE][_VT]))
        thread = leaf.scheduler.pick_next(now)
        if thread is None:
            raise SchedulingError(
                "leaf %r is marked runnable but its scheduler has no thread"
                % (leaf.path,))
        self._decision_depth = depth
        return thread

    @staticmethod
    def _descent_error(root: Node) -> SchedulingError:
        """Name the node whose queue stopped a failed descent.

        Re-walks with the method API; pick is peek-like, so the re-walk
        recomputes the virtual-time updates the failed descent made.
        """
        node = root
        while isinstance(node, InternalNode):
            child = node.queue.pick()
            if child is None:
                break
            node = child
        return SchedulingError(
            "node %r is marked runnable but has no runnable children"
            % (node.path,))

    def charge(self, thread: "SimThread", work: int, now: int) -> None:
        leaf = require_leaf(thread.leaf)
        leaf.scheduler.charge(thread, work, now)
        chain = self._chain_for(leaf)
        charge_chain(chain, work)
        if self._bus.active:
            for entry in chain:
                slot = entry[_CH_SLOT]
                self._bus.emit(obs.TAG_UPDATE_SHAPE, now,
                               entry[_CH_ENTITY].path,
                               float(entry[_CH_START][slot]),
                               float(entry[_CH_FIN][slot]), work)
                self._bus.emit(obs.VTIME_ADVANCE_SHAPE, now,
                               entry[_CH_PARENT].path,
                               float(entry[_CH_STATE][_VT]))

    def _chain_for(self, leaf: LeafNode) -> list:
        """The cached ancestor chain of ``leaf``, rebuilt on tree changes."""
        if self._charge_chains_version != self.structure.tree_version:
            self._charge_chains.clear()
            self._charge_chains_version = self.structure.tree_version
        chain = self._charge_chains.get(id(leaf))
        if chain is None:
            chain = build_ancestor_chain(leaf)
            self._charge_chains[id(leaf)] = chain
        return chain

    def quantum_for(self, thread: "SimThread") -> Optional[int]:
        leaf = thread.leaf
        if type(leaf) is not LeafNode:  # unusual: subclass or detached thread
            leaf = require_leaf(leaf)
        return leaf.scheduler.quantum_for(thread)

    def should_preempt(self, current: "SimThread", candidate: "SimThread",
                       now: int) -> bool:
        if self.preempt_policy == PREEMPT_LEAF and current.leaf is candidate.leaf:
            return require_leaf(current.leaf).scheduler.should_preempt(
                current, candidate, now)
        return False

    def has_runnable(self) -> bool:
        return self.structure.root.runnable

    @property
    def decision_depth(self) -> int:
        return self._decision_depth

    # --- hsfq_setrun / hsfq_sleep ------------------------------------------

    def setrun(self, leaf: LeafNode) -> None:
        """Mark ``leaf`` eligible and propagate up to the first runnable ancestor."""
        if leaf.runnable:
            return
        leaf.runnable = True
        chain = self._chain_for(leaf)
        if not self._bus.active:
            wake_chain(chain)
            return
        # wake_chain stamps every level up to and including the first
        # ancestor that is already runnable: count them before it runs
        walked = 0
        for entry in chain:
            walked += 1
            if entry[_CH_PARENT].runnable:
                break
        wake_chain(chain)
        now = self.clock()
        for entry in chain[:walked]:
            slot = entry[_CH_SLOT]
            self._bus.emit(obs.TAG_UPDATE_SHAPE, now, entry[_CH_ENTITY].path,
                           float(entry[_CH_START][slot]),
                           float(entry[_CH_FIN][slot]), 0)

    def sleep(self, leaf: LeafNode) -> None:
        """Mark ``leaf`` idle and propagate up while ancestors become idle."""
        if not leaf.runnable:
            return
        leaf.runnable = False
        sleep_chain(self._chain_for(leaf))

    def _sleep_if_idle(self, leaf: LeafNode) -> None:
        if leaf.runnable and not leaf.scheduler.has_runnable():
            self.sleep(leaf)

    # --- hsfq_move ----------------------------------------------------------

    def move_thread(self, thread: "SimThread", dest: LeafNode,
                    now: Optional[int] = None) -> None:
        """Move ``thread`` to ``dest``, keeping eligibility consistent.

        The running thread cannot be moved (the machine owns it until its
        quantum is charged); move it after it blocks or is preempted.
        """
        if thread.state is ThreadState.RUNNING:
            raise SchedulingError("cannot move the running thread %r" % (thread,))
        if now is None:
            now = self.clock()
        source = thread.leaf
        was_runnable = thread.state is ThreadState.RUNNABLE
        if source is not None:
            source_leaf = require_leaf(source)
            if was_runnable:
                source_leaf.scheduler.on_block(thread, now)
                self._sleep_if_idle(source_leaf)
            source_leaf.detach_thread(thread)
        dest.attach_thread(thread)
        if was_runnable:
            dest.scheduler.on_runnable(thread, now)
            self.setrun(dest)
