"""The hierarchy walked one level at a time over the queue methods.

:class:`ReferenceWalk` is the per-level reading of the paper's
``hsfq_schedule``, ``hsfq_update``, ``hsfq_setrun`` and ``hsfq_sleep``:
every level is a plain :class:`~repro.core.sfq.SfqQueue` method call, with
no cached chain and no folded run.  The chain-cache and folded-run tests
drive it side by side with :class:`~repro.core.hierarchy.HierarchicalScheduler`
and require the same picks, tags and records.
"""

from repro.core.hierarchy import HierarchicalScheduler
from repro.core.node import InternalNode, require_leaf
from repro.errors import SchedulingError
from repro.obs import events as obs


class ReferenceWalk(HierarchicalScheduler):
    """hsfq_schedule/update/setrun/sleep as per-level SfqQueue method
    calls, emitting each level's events on the run's bus as it goes."""

    def thread_runnable(self, thread, now):
        leaf = require_leaf(thread.leaf)
        leaf.scheduler.on_runnable(thread, now)
        self.setrun(leaf)

    def thread_blocked(self, thread, now):
        leaf = require_leaf(thread.leaf)
        leaf.scheduler.on_block(thread, now)
        self._sleep_if_idle(leaf)

    def pick_next(self, now):
        node = self.structure.root
        if not node.runnable:
            return None
        depth = 1
        while isinstance(node, InternalNode):
            child = node.queue.pick()
            if child is None:
                raise SchedulingError("%r has no runnable child" % node.path)
            if self._bus.active:
                self._bus.emit(obs.VTIME_ADVANCE_SHAPE, now, node.path,
                               float(node.queue.virtual_time))
            node = child
            depth += 1
        self._decision_depth = depth
        return require_leaf(node).scheduler.pick_next(now)

    def charge(self, thread, work, now):
        leaf = require_leaf(thread.leaf)
        leaf.scheduler.charge(thread, work, now)
        node = leaf
        while node.parent is not None:
            queue = node.parent.queue
            queue.charge(node, work)
            if self._bus.active:
                self._bus.emit(obs.TAG_UPDATE_SHAPE, now, node.path,
                               float(queue.start_tag(node)),
                               float(queue.finish_tag(node)), work)
                self._bus.emit(obs.VTIME_ADVANCE_SHAPE, now,
                               node.parent.path, float(queue.virtual_time))
            node = node.parent

    def setrun(self, leaf):
        if leaf.runnable:
            return
        leaf.runnable = True
        node = leaf
        while node.parent is not None:
            parent = node.parent
            parent.queue.set_runnable(node)
            if self._bus.active:
                self._bus.emit(obs.TAG_UPDATE_SHAPE, self.clock(), node.path,
                               float(parent.queue.start_tag(node)),
                               float(parent.queue.finish_tag(node)), 0)
            if parent.runnable:
                return
            parent.runnable = True
            node = parent

    def sleep(self, leaf):
        if not leaf.runnable:
            return
        leaf.runnable = False
        node = leaf
        while node.parent is not None:
            parent = node.parent
            parent.queue.set_blocked(node)
            if parent.queue.has_runnable():
                return
            parent.runnable = False
            node = parent
