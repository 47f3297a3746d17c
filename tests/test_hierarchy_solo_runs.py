"""Differential test: the hierarchy against a per-level reference walk on
trees with runs of solo queues.

A *solo* queue holds a single child, so it orders nothing: Figure 7(b)'s
pass-through nodes are solo, and so are ``deep_float``'s six lower levels.
The generated trees put runs of 0–6 solo queues anywhere, including above
a branching node whose leaves all share the run, and the scripts reshape
them mid-run (``mknod`` gives a solo queue a sibling; ``rmnod`` makes a
queue solo and joins two runs).  :class:`HierarchicalScheduler` and
:class:`~tests.reference_walk.ReferenceWalk` run the same script on twin
trees, in both tag modes, untraced and with a subscriber attached
part-way through; after every operation the pick, the decision depth and
every node's runnable flag must agree, and so must every start tag,
finish tag and parent virtual time (after every operation, or only at
the end so that nothing reads the tags in between).  Traced runs must
also emit the same records.
"""

from typing import Any, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hierarchy import HierarchicalScheduler
from repro.core.node import InternalNode, LeafNode
from repro.core.structure import SchedulingStructure
from repro.core.tags import EXACT, FLOAT
from repro.obs import events as obs
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.threads.segments import SegmentListWorkload
from repro.threads.states import ThreadState
from repro.threads.thread import SimThread

from tests.reference_walk import ReferenceWalk

#: a subtree: the weights of a run of solo pass-through nodes, the weight of
#: the node below the run, and that node's children (``None``: a leaf)
Spec = Tuple[List[int], int, Optional[list]]


@st.composite
def subtrees(draw: Any, depth: int = 0) -> Spec:
    run = draw(st.lists(st.integers(1, 7), max_size=6))
    weight = draw(st.integers(1, 7))
    if depth >= 2 or draw(st.booleans()):
        return (run, weight, None)
    children = draw(st.lists(subtrees(depth + 1), min_size=2,  # type: ignore[call-arg]
                             max_size=3))
    return (run, weight, children)


#: the root's children; a single child makes the root solo too
trees = st.lists(subtrees(), min_size=1, max_size=3)

#: threads: (leaf pick, weight)
thread_specs = st.lists(st.tuples(st.integers(0, 63), st.integers(1, 5)),
                        min_size=2, max_size=5)

OPS = ("wake", "wake", "block", "block", "serve", "serve", "serve", "pick",
       "smp", "smp_sleep", "mknod", "rmnod", "move", "weight", "weight")
#: (what, pick, amount)
scripts = st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 63),
                             st.integers(0, 90)),
                   min_size=1, max_size=60)


class Twin:
    """One scheduler over one freshly built tree."""

    def __init__(self, scheduler_class: type, exact: bool,
                 tree: List[Spec], threads: List[Tuple[int, int]]) -> None:
        self.tag_math = EXACT if exact else FLOAT
        self.structure = SchedulingStructure(self.tag_math)
        self.scheduler = scheduler_class(self.structure)
        self.internals: List[InternalNode] = [self.structure.root]
        self.leaves: List[LeafNode] = []
        self.made = 0
        for spec in tree:
            self._build(self.structure.root, spec)
        if len(self.leaves) < 2:
            self._leaf(self.structure.root, 1)
        self.threads: List[SimThread] = []
        used = set()
        for index, (pick, weight) in enumerate(threads):
            leaf = self.leaves[pick % len(self.leaves)]
            if index == len(threads) - 1 and len(used) < 2:
                # threads sit at two or more leaves
                leaf = next(other for other in self.leaves
                            if other.path not in used)
            used.add(leaf.path)
            thread = SimThread("t%d" % index, SegmentListWorkload([]),
                               weight=weight)
            leaf.attach_thread(thread)
            self.threads.append(thread)

    def _name(self) -> str:
        self.made += 1
        return "n%d" % self.made

    def _leaf(self, parent: InternalNode, weight: int) -> LeafNode:
        leaf = self.structure.mknod(self._name(), weight, parent=parent,
                                    scheduler=SfqScheduler(self.tag_math))
        self.leaves.append(leaf)  # type: ignore[arg-type]
        return leaf  # type: ignore[return-value]

    def _build(self, parent: InternalNode, spec: Spec) -> None:
        run, weight, children = spec
        for run_weight in run:
            parent = self.structure.mknod(  # type: ignore[assignment]
                self._name(), run_weight, parent=parent)
            self.internals.append(parent)
        if children is None:
            self._leaf(parent, weight)
            return
        node = self.structure.mknod(self._name(), weight, parent=parent)
        self.internals.append(node)  # type: ignore[arg-type]
        for child in children:
            self._build(node, child)  # type: ignore[arg-type]

    # --- the operations -------------------------------------------------

    def apply(self, what: str, pick: int, amount: int) -> Any:
        """Run one script step; returns what the step observed."""
        scheduler = self.scheduler
        thread = self.threads[pick % len(self.threads)]
        if what == "wake":
            if thread.state is not ThreadState.RUNNABLE:
                thread.transition(ThreadState.RUNNABLE)
                scheduler.thread_runnable(thread, 0)
        elif what == "block":
            if thread.state is ThreadState.RUNNABLE:
                thread.transition(ThreadState.RUNNING)
                thread.transition(ThreadState.SLEEPING)
                scheduler.thread_blocked(thread, 0)
        elif what in ("serve", "pick", "smp", "smp_sleep"):
            picked = scheduler.pick_next(0)
            if picked is None:
                return None
            if what == "serve":
                scheduler.charge(picked, amount * 1_000, 0)
            elif what == "smp":
                # the SMP order: withdraw for the quantum, charge, re-submit
                scheduler.thread_blocked(picked, 0)
                scheduler.charge(picked, amount * 1_000, 0)
                scheduler.thread_runnable(picked, 0)
            elif what == "smp_sleep":
                # withdrawn, charged, and asleep at the end of the quantum
                scheduler.thread_blocked(picked, 0)
                scheduler.charge(picked, amount * 1_000, 0)
                picked.transition(ThreadState.RUNNING)
                picked.transition(ThreadState.SLEEPING)
            return picked.name, scheduler.decision_depth
        elif what == "mknod":
            # give an internal node one more child: a solo queue gains a
            # sibling and its run splits
            self._leaf(self.internals[pick % len(self.internals)],
                       1 + amount % 5)
        elif what == "rmnod":
            # remove a thread-less leaf: its parent may turn solo and join
            # the runs above and below it
            idle = [leaf for leaf in self.leaves if not leaf.threads]
            if idle:
                leaf = idle[pick % len(idle)]
                self.structure.rmnod(leaf)
                self.leaves.remove(leaf)
        elif what == "move":
            dest = self.leaves[amount % len(self.leaves)]
            if thread.leaf is not dest:
                self.structure.move(thread, dest)
        else:  # "weight"
            nodes = self.internals[1:] + self.leaves
            nodes[pick % len(nodes)].set_weight(1 + amount % 7)
        return None

    # --- what is compared -----------------------------------------------

    def flags(self) -> List[Tuple[str, bool]]:
        """Every node's runnable flag."""
        return [(node.path, node.runnable)
                for node in self.structure.iter_nodes()]

    def tags(self) -> List[Tuple[str, Any, Any, Any]]:
        """Every node's start and finish tag and its parent's virtual
        time, read through the queue accessors."""
        rows = []
        for node in self.structure.iter_nodes():
            parent = node.parent
            if parent is not None:
                queue = parent.queue
                rows.append((node.path, queue.start_tag(node),
                             queue.finish_tag(node), queue.virtual_time))
        return rows


def drive(scheduler_class: type, exact: bool, tree: List[Spec],
          threads: List[Tuple[int, int]], script: List[Tuple[str, int, int]],
          every: bool, traced_from: Optional[int]) -> List[Any]:
    """What one scheduler observes over ``script``, step by step.

    ``every`` reads every tag after every step; otherwise the tags are read
    only after the last step.  ``traced_from`` attaches a subscriber to the
    bus before that step (``None``: untraced).
    """
    twin = Twin(scheduler_class, exact, tree, threads)
    records: List[Any] = []

    def capture(shape: obs.Shape, time: int, values: tuple) -> None:
        records.append((shape.kind, time, values))

    seen = []
    try:
        for step, (what, pick, amount) in enumerate(script):
            if step == traced_from:
                obs.BUS.subscribe(capture)
            result = twin.apply(what, pick, amount)
            row = [what, result, twin.flags(), list(records)]
            del records[:]
            if every:
                row.append(twin.tags())
            seen.append(row)
    finally:
        if traced_from is not None and traced_from < len(script):
            obs.BUS.unsubscribe(capture)
    seen.append(twin.tags())
    return seen


def check(exact: bool, tree: List[Spec], threads: List[Tuple[int, int]],
          script: List[Tuple[str, int, int]], every: bool,
          traced_from: Optional[int]) -> None:
    expected = drive(ReferenceWalk, exact, tree, threads, script, every,
                     traced_from)
    got = drive(HierarchicalScheduler, exact, tree, threads, script, every,
                traced_from)
    for step, (want, have) in enumerate(zip(expected, got)):
        assert have == want, "diverged at step %d of %r" % (step, script)
    assert len(got) == len(expected)


@given(trees, thread_specs, scripts, st.booleans(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_untraced_matches_reference(tree, threads, script, exact, every):
    check(exact, tree, threads, script, every, None)


@given(trees, thread_specs, scripts, st.booleans(), st.booleans(),
       st.integers(0, 40))
@settings(max_examples=40, deadline=None)
def test_traced_part_way_matches_reference(tree, threads, script, exact,
                                           every, traced_from):
    check(exact, tree, threads, script, every, traced_from)


def _long_script(rounds: int) -> List[Tuple[str, int, int]]:
    script = [("wake", 0, 0), ("wake", 1, 0), ("wake", 2, 0)]
    for index in range(rounds):
        script.append(("serve", 0, 7 + index % 13))
        if index % 5 == 0:
            script.append(("block", index % 3, 0))
        if index % 5 == 2:
            script.append(("wake", index % 3, 0))
        if index % 7 == 3:
            script.append(("smp", 0, 3 + index % 4))
        if index % 11 == 6:
            script.append(("pick", 0, 0))
        if index % 13 == 9:
            script.append(("smp_sleep", 0, 5))
    return script


def test_long_untraced_stretch_matches_reference():
    """Hundreds of operations with no tag read in between, on a tree with
    a seven-level run above a branching node, in both tag modes."""
    tree: List[Spec] = [([3, 1, 2, 5, 1, 4, 2], 2,
                         [([1, 2, 3], 1, None), ([], 3, None),
                          ([2, 2, 2, 2, 2, 2], 5, None)]),
                        ([1], 1, None)]
    threads = [(0, 1), (1, 2), (2, 3)]
    for exact in (False, True):
        check(exact, tree, threads, _long_script(400), False, None)


def test_charges_before_a_weight_change_keep_their_weight():
    """Charges a run holds when a node of it changes weight advance the
    tags at the weight they were made at."""
    tree: List[Spec] = [([3, 2], 1, None), ([], 1, None)]
    for pick in (1, 2):
        script = [("wake", 0, 0), ("wake", 1, 0), ("serve", 0, 5),
                  ("serve", 0, 7), ("serve", 0, 9), ("weight", pick, 3),
                  ("serve", 0, 11), ("serve", 0, 5)]
        for exact in (False, True):
            check(exact, tree, [(0, 1), (1, 1)], script, False, None)


def test_late_wake_stamps_max_of_v_and_f_in_a_new_run():
    """A queue turned solo by ``rmnod`` keeps the virtual time its removed
    child earned, so its remaining child's next wake stamps ``S = v``."""
    tree: List[Spec] = [([], 2, [([], 1, None), ([], 1, None)]),
                        ([], 1, None)]
    script = ([("wake", 0, 0), ("wake", 2, 0)] + [("serve", 0, 30)] * 6
              + [("block", 0, 0), ("move", 0, 2), ("rmnod", 0, 0),
                 ("wake", 1, 0), ("serve", 0, 10)])
    for exact in (False, True):
        check(exact, tree, [(0, 1), (1, 1), (2, 1)], script, False, None)


def test_a_run_shares_one_runnable_flag():
    """The nodes of a folded run read and write one flag: written from
    outside on one node, it reads as every node of the per-level tree
    written alike; a wake that then finds the run runnable marks the
    bottom level and stops there, and ``mknod`` hands each node the flag
    back when it unfolds the run."""
    tree: List[Spec] = [([2, 3, 1], 1, None), ([], 1, None)]
    for exact in (False, True):
        want = Twin(ReferenceWalk, exact, tree, [(0, 1), (1, 1)])
        got = Twin(HierarchicalScheduler, exact, tree, [(0, 1), (1, 1)])
        for twin in (want, got):
            twin.apply("wake", 0, 0)
            twin.apply("block", 0, 0)
        assert [node.runnable for node in got.internals] == [False] * 4
        for node in want.internals[1:]:
            node.runnable = True
        got.internals[2].runnable = True
        assert got.flags() == want.flags()
        for twin in (want, got):
            twin.apply("wake", 0, 0)
        assert got.flags() == want.flags()
        assert got.tags() == want.tags()
        for twin in (want, got):
            twin.apply("mknod", 2, 0)
        assert got.flags() == want.flags()
        assert got.tags() == want.tags()


def test_traced_wake_counts_levels_by_the_run_flag():
    """A run rebuilt after a shape change starts from nodes whose own flags
    were handed back runnable; once the run idles, a traced wake must read
    the run's shared flag, not those stale per-node flags, to count the
    levels it stamps."""
    tree: List[Spec] = [([2, 3, 1], 1, None), ([], 1, None)]
    script = [("wake", 0, 0), ("mknod", 0, 0), ("serve", 0, 5),
              ("block", 0, 0), ("wake", 0, 0)]
    for exact in (False, True):
        check(exact, tree, [(0, 1), (1, 1)], script, False, 4)
