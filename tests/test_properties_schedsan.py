"""SCHEDSAN's dormant-weight sweep against the per-child sweep it replaced.

The sanitizer examines one by one only the children whose weight changed
since their parent's last sweep, and takes the rest of each snapshot as
C-level copies.  :class:`ReferenceSweep` keeps the earlier sweep, which
re-snapshotted every child through four ``SfqQueue`` lookups on every
audited call.  On random trees with weight changes (sanctioned and direct
stores, on dormant and runnable children) and tag warps injected on any
node, on or off the audited thread's path, both must report the same
violations — rule, path, time and message — in the same order.
"""

from typing import Any, Dict, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hierarchy import HierarchicalScheduler
from repro.core.structure import SchedulingStructure
from repro.core.tags import EXACT, FLOAT
from repro.cpu.machine import Machine
from repro.devtools.schedsan import SchedsanError, SchedsanScheduler
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.sim.engine import Simulator
from repro.threads.segments import Compute, SegmentListWorkload, SleepFor
from repro.threads.thread import SimThread
from repro.units import MS


class ReferenceSweep(SchedsanScheduler):
    """SCHEDSAN with the per-child dormant-weight sweep it used to run."""

    def __init__(self, inner: Any, mode: Any = None) -> None:
        super().__init__(inner, mode)
        #: node_id -> (weight, runnable, S, F) at the last sweep
        self._node_snapshots: Dict[int, Tuple[int, bool, object, object]] = {}

    def _check_dormant_weights(self, parent: Any, now: Any) -> None:
        queue = parent.queue
        for child in parent.children.values():
            if child not in queue:
                self._node_snapshots.pop(child.node_id, None)
                continue
            weight = child.weight
            runnable = queue.is_runnable(child)
            start = queue.start_tag(child)
            finish = queue.finish_tag(child)
            previous = self._node_snapshots.get(child.node_id)
            if previous is not None:
                old_weight, was_runnable, old_start, old_finish = previous
                if (not runnable and not was_runnable
                        and weight != old_weight
                        and (start != old_start or finish != old_finish)):
                    self._violate(
                        "dormant-weight-warp", child.path, now,
                        "weight changed %d -> %d while dormant and the "
                        "tags warped (S: %r -> %r, F: %r -> %r); dormant "
                        "weight changes take effect at the next stamping, "
                        "never retroactively"
                        % (old_weight, weight, old_start, start,
                           old_finish, finish))
            self._node_snapshots[child.node_id] = (
                weight, runnable, start, finish)


#: (parent pick, weight, is a leaf) per node; the parent is picked among
#: the root and the internal nodes made so far
nodes = st.lists(
    st.tuples(st.integers(0, 7), st.integers(1, 6), st.booleans()),
    min_size=2, max_size=14)

#: per thread: leaf pick, spawn ms, first burst, sleep ms, second burst
threads = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 30),
              st.integers(20_000, 400_000), st.integers(1, 20),
              st.integers(20_000, 400_000)),
    min_size=1, max_size=10)

#: at ms, what, node pick, new weight, warp length
ACTIONS = ("set_weight", "store_weight", "warp", "warp_tags")
ops = st.lists(
    st.tuples(st.integers(1, 60), st.sampled_from(ACTIONS),
              st.integers(0, 15), st.integers(1, 9),
              st.integers(1, 500_000)),
    max_size=16)


def build_tree(exact: bool, node_spec: List[Any]) -> Tuple[Any, List[Any],
                                                           List[Any]]:
    """The drawn tree: its structure, every node but the root, and the
    leaves (the last node is made a leaf when no other is)."""
    tag_math = EXACT if exact else FLOAT
    structure = SchedulingStructure(tag_math)
    internals = [structure.root]
    made = []
    leaves = []
    for index, (pick, weight, is_leaf) in enumerate(node_spec):
        parent = internals[pick % len(internals)]
        if is_leaf or index == len(node_spec) - 1 and not leaves:
            node = structure.mknod("n%d" % index, weight, parent=parent,
                                   scheduler=SfqScheduler(tag_math))
            leaves.append(node)
        else:
            node = structure.mknod("n%d" % index, weight, parent=parent)
            internals.append(node)
        made.append(node)
    return structure, made, leaves


def change(node: Any, action: str, weight: int, length: int) -> None:
    """Apply one drawn weight change or tag warp to ``node``."""
    queue = node.parent.queue
    if action == "set_weight":
        node.set_weight(weight)
        return
    if action == "store_weight":
        node.weight = weight  # schedflow: disable=SF204
        return
    slot = queue.slot_of(node)
    arena = queue.arena
    if action == "warp":
        # a buggy eager recompute from a directly stored weight
        node.weight = weight  # schedflow: disable=SF204
        arena.fin[slot] = queue.tags.advance(arena.start[slot], length,
                                             weight)
        if not arena.run[slot]:
            arena.start[slot] = arena.fin[slot]
    else:  # "warp_tags": the tags move, the weight does not
        arena.fin[slot] = queue.tags.advance(arena.fin[slot], length,
                                             node.weight)


def violations(scheduler: Any) -> List[Tuple[str, str, int, str]]:
    return [(v.rule, v.path, v.time, v.message)
            for v in scheduler.violations]


def run(sanitizer: type, exact: bool, node_spec: List[Any],
        thread_spec: List[Any], op_spec: List[Any],
        mode: str = "collect") -> List[Tuple[str, str, int, str]]:
    """Build the drawn world around ``sanitizer``, drive a machine through
    the drawn ops and return its violations."""
    structure, made, leaves = build_tree(exact, node_spec)
    scheduler = sanitizer(HierarchicalScheduler(structure), mode=mode)
    machine = Machine(Simulator(), scheduler, capacity_ips=100_000_000,
                      default_quantum=1 * MS)
    for index, (pick, at, first, sleep, second) in enumerate(thread_spec):
        thread = SimThread("t%d" % index, SegmentListWorkload(
            [Compute(first), SleepFor(sleep * MS), Compute(second)]),
            weight=1 + index % 3)
        leaves[pick % len(leaves)].attach_thread(thread)
        machine.spawn(thread, at=at * MS)
    try:
        for at, action, pick, weight, length in sorted(
                op_spec, key=lambda op: op[0]):
            machine.run_until(at * MS)
            change(made[pick % len(made)], action, weight, length)
        machine.run_until(120 * MS)
    except SchedsanError:
        assert mode == "raise"
    return violations(scheduler)


#: queue-level steps: what, node pick, new weight, length
QUEUE_STEPS = ("wake", "block", "pick", "charge", "leave", "rejoin",
               "audit", "audit_all") + ACTIONS
steps = st.lists(
    st.tuples(st.sampled_from(QUEUE_STEPS), st.integers(0, 15),
              st.integers(1, 9), st.integers(1, 500_000)),
    min_size=10, max_size=80)


def run_queues(sanitizer: type, exact: bool, node_spec: List[Any],
               step_spec: List[Any]) -> List[Tuple[str, str, int, str]]:
    """Drive the drawn tree's queues directly, with no machine, and sweep
    the ancestors of a drawn node at each audit step.

    Queue steps reach states a machine does not: a child blocked, charged
    or taken out of its queue and put back between two sweeps.
    """
    structure, made, __ = build_tree(exact, node_spec)
    scheduler = sanitizer(HierarchicalScheduler(structure), mode="collect")
    internals = [structure.root] + [
        node for node in made if not node.is_leaf]
    for now, (step, pick, weight, length) in enumerate(step_spec):
        node = made[pick % len(made)]
        queue = node.parent.queue
        if step == "audit":  # the drawn node's path, as a machine audits
            while node.parent is not None:
                scheduler._check_virtual_time(node.parent, now)
                node = node.parent
        elif step == "audit_all":
            for parent in internals:
                scheduler._check_virtual_time(parent, now)
        elif step == "rejoin":
            if node not in queue:
                queue.add(node)
        elif node not in queue:
            continue
        elif step == "wake":
            queue.set_runnable(node)
        elif step == "block":
            queue.set_blocked(node)
        elif step == "pick":
            queue.pick()
        elif step == "charge":
            if queue.is_runnable(node):
                queue.charge(node, length)
        elif step == "leave":
            if not queue.is_runnable(node):
                queue.remove(node)
        else:
            change(node, step, weight, length)
    return violations(scheduler)


class TestDormantWeightSweep:
    @given(st.booleans(), nodes, threads, ops)
    @settings(max_examples=120, deadline=None)
    def test_sweep_reports_what_the_per_child_sweep_reports(
            self, exact, node_spec, thread_spec, op_spec):
        expected = run(ReferenceSweep, exact, node_spec, thread_spec,
                       op_spec)
        assert run(SchedsanScheduler, exact, node_spec, thread_spec,
                   op_spec) == expected

    @given(st.booleans(), nodes, threads, ops)
    @settings(max_examples=40, deadline=None)
    def test_raise_mode_stops_at_the_same_violation(
            self, exact, node_spec, thread_spec, op_spec):
        expected = run(ReferenceSweep, exact, node_spec, thread_spec,
                       op_spec, mode="raise")
        assert run(SchedsanScheduler, exact, node_spec, thread_spec,
                   op_spec, mode="raise") == expected

    @given(st.booleans(), nodes, steps)
    @settings(max_examples=200, deadline=None)
    def test_queue_level_sweeps_match(self, exact, node_spec, step_spec):
        expected = run_queues(ReferenceSweep, exact, node_spec, step_spec)
        assert run_queues(SchedsanScheduler, exact, node_spec,
                          step_spec) == expected

    def test_off_path_warp_is_reported_like_the_reference(self):
        # /n0 (weight 2) holds /n0/n1 and /n0/n2; /n3 holds the sleeper.
        # The warp on dormant /n3 is found by a sweep of the root made
        # for a thread under /n0, off the warped node's path.
        node_spec = [(0, 2, False), (1, 1, True), (1, 3, True),
                     (0, 1, True)]
        thread_spec = [(0, 0, 300_000, 1, 300_000),
                       (1, 0, 300_000, 1, 300_000),
                       (2, 0, 20_000, 50, 20_000)]
        op_spec = [(5, "warp", 3, 4, 80_000), (6, "set_weight", 1, 5, 1)]
        expected = run(ReferenceSweep, False, node_spec, thread_spec,
                       op_spec)
        assert [(rule, path) for rule, path, __, ___ in expected] == [
            ("dormant-weight-warp", "/n3")]
        assert "1 -> 4" in expected[0][3]
        assert run(SchedsanScheduler, False, node_spec, thread_spec,
                   op_spec) == expected
