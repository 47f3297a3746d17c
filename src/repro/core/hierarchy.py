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

from typing import TYPE_CHECKING, Callable, Optional

from repro.core.node import InternalNode, LeafNode, Node, require_leaf
# The hot walks are called through these module-level names, where the
# benchmark's per-layer tracer patches them to count sfq.chain_calls.
from repro.core.sfq import (
    _CH_ENTITY,
    _CH_FIN,
    _CH_FOLD,
    _CH_PARENT,
    _CH_SLOT,
    _CH_START,
    _CH_STATE,
    _VT,
    build_ancestor_chain,
    charge_chain,
    expand_chain,
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

    # thread_runnable, thread_blocked and charge run once or more per
    # dispatch, so each does the untraced work of setrun, sleep and
    # _chain_for itself, with the chain read off the leaf.

    def thread_runnable(self, thread: "SimThread", now: int) -> None:
        leaf = thread.leaf
        if type(leaf) is not LeafNode:  # unusual: subclass or detached thread
            leaf = require_leaf(leaf)
        leaf.scheduler.on_runnable(thread, now)
        if leaf._runnable:
            return
        if self._bus.active:
            self.setrun(leaf)
            return
        leaf._runnable = True
        chain = leaf.chain
        if chain is None:
            chain = self._chain_for(leaf)
        wake_chain(chain)

    def thread_blocked(self, thread: "SimThread", now: int) -> None:
        leaf = thread.leaf
        if type(leaf) is not LeafNode:
            leaf = require_leaf(leaf)
        scheduler = leaf.scheduler
        scheduler.on_block(thread, now)
        if leaf._runnable and not scheduler.has_runnable():
            leaf._runnable = False
            chain = leaf.chain
            if chain is None:
                chain = self._chain_for(leaf)
            sleep_chain(chain)

    def pick_next(self, now: int) -> Optional["SimThread"]:
        root = self.structure.root
        # the root's own flag: if its queue is solo, the root tops a run
        # and holds the run's flag
        if not root._runnable:
            return None
        leaf, depth = pick_leaf(root)
        if leaf is None:
            raise self._descent_error(root)
        if self._bus.active:
            chain = self._chain_for(leaf)
            levels = leaf.levels
            if levels is None:
                levels = expand_chain(chain)
            # the virtual time the descent just set at each level, root first
            for entry in reversed(levels):
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
        leaf = thread.leaf
        if type(leaf) is not LeafNode:
            leaf = require_leaf(leaf)
        leaf.scheduler.charge(thread, work, now)
        chain = leaf.chain
        if chain is None:
            chain = self._chain_for(leaf)
        charge_chain(chain, work)
        if self._bus.active:
            levels = leaf.levels
            if levels is None:
                levels = expand_chain(chain)
            for entry in levels:
                slot = entry[_CH_SLOT]
                self._bus.emit(obs.TAG_UPDATE_SHAPE, now,
                               entry[_CH_ENTITY].path,
                               float(entry[_CH_START][slot]),
                               float(entry[_CH_FIN][slot]), work)
                self._bus.emit(obs.VTIME_ADVANCE_SHAPE, now,
                               entry[_CH_PARENT].path,
                               float(entry[_CH_STATE][_VT]))

    def _chain_for(self, leaf: LeafNode) -> list:
        """The ancestor chain cached on ``leaf``, built on first use.

        The structure's ``mknod`` and ``rmnod`` drop every cached chain,
        because a chain bakes in the tree's shape.  ``leaf.levels`` notes
        whether the chain holds a folded run: the traced walks emit from
        it as it is, or else expand it.
        """
        chain = leaf.chain
        if chain is None:
            chain = leaf.chain = build_ancestor_chain(leaf)
            leaf.levels = chain if expand_chain(chain) is chain else None
            self.structure.chained_leaves.append(leaf)
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
        if leaf._runnable:
            return
        leaf._runnable = True
        chain = self._chain_for(leaf)
        if not self._bus.active:
            wake_chain(chain)
            return
        # wake_chain stamps every level up to and including the first
        # ancestor that is already runnable: count them before it runs (a
        # level of a folded run reads the flag its run's nodes share)
        levels = leaf.levels
        if levels is None:
            levels = expand_chain(chain)
        walked = 0
        for entry in levels:
            walked += 1
            fold = entry[_CH_FOLD]
            if (entry[_CH_PARENT] if fold is None else fold.top)._runnable:
                break
        wake_chain(chain)
        if leaf.levels is None:
            expand_chain(chain)  # settle the stamps the wake deferred
        now = self.clock()
        for entry in levels[:walked]:
            slot = entry[_CH_SLOT]
            self._bus.emit(obs.TAG_UPDATE_SHAPE, now, entry[_CH_ENTITY].path,
                           float(entry[_CH_START][slot]),
                           float(entry[_CH_FIN][slot]), 0)

    def sleep(self, leaf: LeafNode) -> None:
        """Mark ``leaf`` idle and propagate up while ancestors become idle."""
        if not leaf._runnable:
            return
        leaf._runnable = False
        sleep_chain(self._chain_for(leaf))

    def _sleep_if_idle(self, leaf: LeafNode) -> None:
        if leaf._runnable and not leaf.scheduler.has_runnable():
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
