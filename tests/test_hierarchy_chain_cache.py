"""The hierarchy's cached ancestor chains: invalidation and equivalence.

The hierarchy picks, charges, wakes and sleeps through per-leaf cached
ancestor chains (``repro.core.sfq``), held on each leaf and dropped by
``mknod``/``rmnod`` whenever they reshape the tree.  Three guarantees are
pinned here:

1. the chain path is behaviourally identical to a per-level walk over the
   :class:`~repro.core.sfq.SfqQueue` methods (:class:`ReferenceWalk`),
   traced or not, including the events it emits;
2. a traced wake reports exactly the levels it stamped;
3. tree mutations mid-run (grow a subtree, remove a leaf, move threads)
   never leave a stale chain behind.
"""

import pytest

from repro.core.hierarchy import HierarchicalScheduler
from repro.core.node import InternalNode, require_leaf
from repro.core.structure import SchedulingStructure
from repro.errors import SchedulingError, StructureError
from repro.obs import events as obs
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.threads.segments import SegmentListWorkload
from repro.threads.states import ThreadState
from repro.threads.thread import SimThread


def make_thread(name="t", weight=1):
    return SimThread(name, SegmentListWorkload([]), weight=weight)


class ReferenceWalk(HierarchicalScheduler):
    """hsfq_schedule/update/setrun/sleep as per-level SfqQueue method
    calls, emitting each level's events as it goes; no chains."""

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
            if obs.BUS.active:
                obs.BUS.emit(obs.VTIME_ADVANCE_SHAPE, now, node.path,
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
            if obs.BUS.active:
                obs.BUS.emit(obs.TAG_UPDATE_SHAPE, now, node.path,
                             float(queue.start_tag(node)),
                             float(queue.finish_tag(node)), work)
                obs.BUS.emit(obs.VTIME_ADVANCE_SHAPE, now, node.parent.path,
                             float(queue.virtual_time))
            node = node.parent

    def setrun(self, leaf):
        if leaf.runnable:
            return
        leaf.runnable = True
        node = leaf
        while node.parent is not None:
            parent = node.parent
            parent.queue.set_runnable(node)
            if obs.BUS.active:
                obs.BUS.emit(obs.TAG_UPDATE_SHAPE, self.clock(), node.path,
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


class Driver:
    """A structure plus helpers to drive the same op script twice."""

    def __init__(self, scheduler_class=HierarchicalScheduler):
        self.structure = SchedulingStructure()
        self.scheduler = scheduler_class(self.structure)
        self.class_a = self.structure.mknod("/classA", 2)
        self.leaf1 = self.structure.mknod("/classA/leaf1", 1,
                                          scheduler=SfqScheduler())
        self.leaf2 = self.structure.mknod("/leaf2", 3,
                                          scheduler=SfqScheduler())
        self.threads = {}

    def spawn(self, name, leaf, weight=1):
        thread = make_thread(name, weight)
        leaf.attach_thread(thread)
        thread.transition(ThreadState.RUNNABLE)
        self.scheduler.thread_runnable(thread, 0)
        self.threads[name] = thread
        return thread

    def serve(self, work, now=0):
        thread = self.scheduler.pick_next(now)
        assert thread is not None
        self.scheduler.charge(thread, work, now)
        return thread.name

    def tag_snapshot(self):
        """All (node path -> start/finish tags at its parent) plus flags."""
        snapshot = {}
        for node in self.structure.iter_nodes():
            parent = node.parent
            entry = {"runnable": node.runnable}
            if parent is not None:
                entry["start"] = parent.queue.start_tag(node)
                entry["finish"] = parent.queue.finish_tag(node)
                entry["v"] = parent.queue.virtual_time
            snapshot[node.path] = entry
        return snapshot


def run_script(driver):
    """A scripted run that reshapes the tree while chains are cached."""
    picks = []
    driver.spawn("a", driver.leaf1)
    driver.spawn("b", driver.leaf2, weight=2)
    picks.append(driver.serve(30))
    picks.append(driver.serve(30))
    # Grow the tree mid-run: the cached chains must be rebuilt.
    leaf3 = driver.structure.mknod("/classA/leaf3", 1,
                                   scheduler=SfqScheduler())
    driver.spawn("c", leaf3)
    for work in (10, 20, 30, 40):
        picks.append(driver.serve(work))
    # Block a thread, remove its (now idle) leaf, keep scheduling.
    thread_a = driver.threads["a"]
    driver.scheduler.thread_blocked(thread_a, 0)
    driver.leaf1.detach_thread(thread_a)
    driver.structure.rmnod("/classA/leaf1")
    for work in (15, 25):
        picks.append(driver.serve(work))
    # Move a thread between leaves (re-keys it under another queue).
    thread_b = driver.threads["b"]
    driver.structure.move(thread_b, "/classA/leaf3")
    picks.append(driver.serve(20))
    return picks


def _traced_script(driver):
    events = []
    with obs.BUS.subscription(
            lambda shape, time, values: events.append(
                (shape.kind, time, dict(zip(shape.fields, values))))):
        picks = run_script(driver)
    return picks, events


def test_chain_path_matches_reference_walk():
    """Chain scheduling == per-level method walk, op for op and event for
    event, with the bus idle and with it attached."""
    if not obs.BUS.active:
        chains, reference = Driver(), Driver(ReferenceWalk)
        assert run_script(chains) == run_script(reference)
        assert chains.tag_snapshot() == reference.tag_snapshot()

    chains, reference = Driver(), Driver(ReferenceWalk)
    chain_picks, chain_events = _traced_script(chains)
    reference_picks, reference_events = _traced_script(reference)
    assert chain_picks == reference_picks
    assert chains.tag_snapshot() == reference.tag_snapshot()
    assert chain_events == reference_events
    assert any(kind == obs.TAG_UPDATE for kind, __, ___ in chain_events)


def test_traced_setrun_reports_the_levels_it_stamped():
    """One tag-update per level walked, stopping at the first ancestor
    that was already runnable."""
    structure = SchedulingStructure()
    scheduler = HierarchicalScheduler(structure)
    structure.mknod("/a", 1)
    structure.mknod("/a/b", 1)
    first = structure.mknod("/a/b/first", 1, scheduler=SfqScheduler())
    second = structure.mknod("/a/second", 1, scheduler=SfqScheduler())

    def woken(leaf):
        records = []
        with obs.BUS.subscription(lambda *record: records.append(record)):
            scheduler.setrun(leaf)
        assert all(shape is obs.TAG_UPDATE_SHAPE
                   for shape, __, ___ in records)
        return [values[0] for __, ___, values in records]

    # nothing runnable yet: every level up to the root is stamped
    assert woken(first) == ["/a/b/first", "/a/b", "/a"]
    # /a is already runnable: stamp /a/second, then stop
    assert woken(second) == ["/a/second"]
    # already runnable leaf: no walk at all
    assert woken(first) == []
    assert structure.root.runnable


def test_mknod_and_rmnod_drop_cached_chains():
    driver = Driver()
    driver.spawn("a", driver.leaf1)
    driver.spawn("b", driver.leaf2)
    driver.serve(10)
    assert driver.leaf1.chain is not None
    assert driver.leaf2.chain is not None
    leaf = driver.structure.mknod("/classA/leaf3", 1,
                                  scheduler=SfqScheduler())
    assert driver.leaf1.chain is None and driver.leaf2.chain is None
    assert driver.structure.chained_leaves == []
    driver.serve(10)
    assert driver.leaf1.chain is not None or driver.leaf2.chain is not None
    driver.structure.rmnod(leaf)
    assert driver.leaf1.chain is None and driver.leaf2.chain is None


def test_chains_rebuilt_after_mknod():
    driver = Driver()
    driver.spawn("a", driver.leaf1)
    driver.serve(10)
    stale = driver.leaf1.chain
    assert stale is not None, "serving should have cached leaf1's chain"
    driver.structure.mknod("/classB", 1)
    assert driver.leaf1.chain is None, "mknod must drop stale chains"
    # The next scheduling op rebuilds the chain against the new shape.
    driver.serve(10)
    assert driver.leaf1.chain is not None
    assert driver.leaf1.chain is not stale
    assert driver.structure.chained_leaves == [driver.leaf1]


def test_removed_leaf_chain_not_reused():
    driver = Driver()
    thread = driver.spawn("a", driver.leaf1)
    driver.serve(10)
    driver.scheduler.thread_blocked(thread, 0)
    driver.leaf1.detach_thread(thread)
    driver.structure.rmnod("/classA/leaf1")
    # A new leaf may reuse the freed id(); the rebuilt chain must be fresh.
    leaf_new = driver.structure.mknod("/classA/leafN", 5,
                                      scheduler=SfqScheduler())
    driver.spawn("n", leaf_new)
    assert driver.serve(40) == "n"
    parent = leaf_new.parent
    assert parent.queue.finish_tag(leaf_new) > 0


def test_rmnod_rejects_busy_nodes():
    driver = Driver()
    driver.spawn("a", driver.leaf1)
    with pytest.raises(Exception):
        driver.structure.rmnod("/classA/leaf1")
    with pytest.raises(StructureError):
        driver.structure.rmnod("/")
