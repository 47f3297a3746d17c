"""Coverage for small corners: tags, errors, node traversal, costs,
interface defaults."""

from fractions import Fraction

import pytest

from repro.core.node import InternalNode, LeafNode, require_leaf
from repro.core.structure import SchedulingStructure
from repro.core.tags import EXACT, FLOAT, TagMath
from repro.cpu.costs import LinearCostModel, SchedulingCostModel
from repro.cpu.interface import TopScheduler
from repro.errors import (
    AdmissionError,
    NodeBusyError,
    NodeExistsError,
    NodeNotFoundError,
    NotALeafError,
    ReproError,
    SchedulingError,
    SimulationError,
    StructureError,
    WorkloadError,
)
from repro.schedulers.base import LeafScheduler
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.units import US


class TestTagMath:
    def test_exact_mode(self):
        math = TagMath(exact=True)
        assert math.zero() == Fraction(0)
        assert math.ratio(10, 3) == Fraction(10, 3)
        assert math.advance(Fraction(1), 10, 3) == Fraction(13, 3)

    def test_exact_tags_are_canonical(self):
        zero = EXACT.zero()
        assert type(zero) is int and zero == 0
        # the value decides the type, never the history
        one = EXACT.advance(Fraction(1, 3), 2, 3)
        assert type(one) is int and one == 1
        assert EXACT.advance(0, 10, 3) == Fraction(10, 3)
        assert type(EXACT.advance(4, 10, 5)) is int
        assert type(EXACT.ratio(10, 5)) is int
        with pytest.raises(ValueError):
            EXACT.advance(0, 10, 0)

    def test_float_mode(self):
        math = TagMath(exact=False)
        assert math.zero() == 0.0
        assert isinstance(math.ratio(10, 3), float)

    def test_invalid_weight(self):
        with pytest.raises(ValueError):
            EXACT.ratio(10, 0)
        with pytest.raises(ValueError):
            FLOAT.ratio(10, -1)

    def test_shared_instances(self):
        assert EXACT.exact is True
        assert FLOAT.exact is False
        assert "exact=True" in repr(EXACT)


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc", [
        SimulationError, SchedulingError, StructureError, AdmissionError,
        WorkloadError, NodeExistsError, NodeNotFoundError, NodeBusyError,
        NotALeafError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_structure_errors_nest(self):
        assert issubclass(NodeExistsError, StructureError)
        assert issubclass(NodeBusyError, StructureError)
        assert issubclass(NotALeafError, StructureError)


class TestNodeHelpers:
    def test_require_leaf(self):
        structure = SchedulingStructure()
        internal = structure.mknod("/a", 1)
        leaf = structure.mknod("/b", 1, scheduler=SfqScheduler())
        assert require_leaf(leaf) is leaf
        with pytest.raises(NotALeafError):
            require_leaf(internal)

    def test_iter_subtree_mixed(self):
        structure = SchedulingStructure()
        a = structure.mknod("/a", 1)
        structure.mknod("/a/x", 1, scheduler=SfqScheduler())
        structure.mknod("/a/y", 1)
        paths = [n.path for n in a.iter_subtree()]
        assert paths == ["/a", "/a/x", "/a/y"]

    def test_node_repr(self):
        structure = SchedulingStructure()
        leaf = structure.mknod("/l", 2, scheduler=SfqScheduler())
        assert "leaf" in repr(leaf)
        assert "/l" in repr(leaf)

    def test_root_path(self):
        assert SchedulingStructure().root.path == "/"

    def test_remove_child_validates(self):
        structure = SchedulingStructure()
        a = structure.mknod("/a", 1)
        foreign = InternalNode("x", 1, None)
        with pytest.raises(StructureError):
            structure.root.remove_child(foreign)
        del a


class TestCostModels:
    def test_base_model_is_free(self):
        assert SchedulingCostModel().dispatch_cost(10, True) == 0

    def test_linear_model_formula(self):
        model = LinearCostModel(base_ns=2 * US, per_level_ns=1 * US,
                                context_switch_ns=10 * US)
        assert model.dispatch_cost(3, False) == 5 * US
        assert model.dispatch_cost(3, True) == 15 * US


class TestTopSchedulerDefaults:
    def test_abstract_methods_raise(self):
        scheduler = TopScheduler()
        with pytest.raises(NotImplementedError):
            scheduler.pick_next(0)
        with pytest.raises(NotImplementedError):
            scheduler.has_runnable()
        assert scheduler.decision_depth == 1
        assert scheduler.should_preempt(None, None, 0) is False

    def test_leaf_scheduler_defaults(self):
        scheduler = LeafScheduler()
        assert scheduler.quantum_for(None) is None
        assert scheduler.should_preempt(None, None, 0) is False
        with pytest.raises(NotImplementedError):
            scheduler.pick_next(0)


class TestLeafNodeState:
    def test_leaf_holds_thread_set(self):
        structure = SchedulingStructure()
        leaf = structure.mknod("/l", 1, scheduler=SfqScheduler())
        from repro.threads.segments import SegmentListWorkload
        from repro.threads.thread import SimThread
        thread = SimThread("t", SegmentListWorkload([]))
        leaf.attach_thread(thread)
        assert thread in leaf.threads
        leaf.detach_thread(thread)
        assert thread.leaf is None
        assert not leaf.threads

    def test_leaf_threads_iterate_in_attach_order(self):
        """Not in address order: qos.monitor sums float work over them."""
        structure = SchedulingStructure()
        leaf = structure.mknod("/l", 1, scheduler=SfqScheduler())
        from repro.threads.segments import SegmentListWorkload
        from repro.threads.thread import SimThread
        threads = [SimThread("t%d" % i, SegmentListWorkload([]))
                   for i in range(6)]
        order = [threads[i] for i in (3, 0, 5, 1, 4, 2)]
        for thread in order:
            leaf.attach_thread(thread)
        leaf.detach_thread(order[0])
        leaf.attach_thread(order[0])
        assert list(leaf.threads) == order[1:] + order[:1]

    def test_weight_validation_on_node(self):
        structure = SchedulingStructure()
        node = structure.mknod("/n", 1)
        for weight in (0, float("nan"), 2.5, Fraction(5, 2), True):
            with pytest.raises(StructureError):
                node.set_weight(weight)
        assert node.weight == 1
