"""The scheduling structure: mknod / parse / rmnod / move / admin."""

from fractions import Fraction

import pytest

from repro.core.node import InternalNode, LeafNode
from repro.core.structure import (
    ADMIN_GET_WEIGHT,
    ADMIN_INFO,
    ADMIN_SET_WEIGHT,
    SchedulingStructure,
)
from repro.errors import (
    NodeBusyError,
    NodeExistsError,
    NodeNotFoundError,
    NotALeafError,
    StructureError,
)
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.threads.segments import SegmentListWorkload
from repro.threads.thread import SimThread


@pytest.fixture
def structure() -> SchedulingStructure:
    return SchedulingStructure()


def make_thread(name: str = "t") -> SimThread:
    return SimThread(name, SegmentListWorkload([]))


class TestMknod:
    def test_absolute_path(self, structure):
        node = structure.mknod("/best-effort", 6)
        assert node.path == "/best-effort"
        assert isinstance(node, InternalNode)

    def test_nested_absolute_path(self, structure):
        structure.mknod("/best-effort", 6)
        leaf = structure.mknod("/best-effort/user1", 1,
                               scheduler=SfqScheduler())
        assert leaf.path == "/best-effort/user1"
        assert isinstance(leaf, LeafNode)

    def test_relative_to_parent(self, structure):
        parent = structure.mknod("/apps", 1)
        child = structure.mknod("web", 2, parent=parent)
        assert child.path == "/apps/web"

    def test_parent_by_id(self, structure):
        parent = structure.mknod("/apps", 1)
        child = structure.mknod("db", 2, parent=parent.node_id)
        assert child.parent is parent

    def test_duplicate_name_rejected(self, structure):
        structure.mknod("/apps", 1)
        with pytest.raises(NodeExistsError):
            structure.mknod("/apps", 2)

    def test_child_of_leaf_rejected(self, structure):
        structure.mknod("/leaf", 1, scheduler=SfqScheduler())
        with pytest.raises(StructureError):
            structure.mknod("/leaf/sub", 1)

    def test_missing_intermediate_rejected(self, structure):
        with pytest.raises(NodeNotFoundError):
            structure.mknod("/a/b/c", 1)

    def test_zero_weight_rejected(self, structure):
        for weight in (0, float("nan"), 2.5, Fraction(5, 2), True):
            with pytest.raises(StructureError):
                structure.mknod("/apps", weight)

    def test_root_creation_rejected(self, structure):
        with pytest.raises(StructureError):
            structure.mknod("/", 1)

    def test_conflicting_parent_rejected(self, structure):
        a = structure.mknod("/a", 1)
        structure.mknod("/b", 1)
        with pytest.raises(StructureError):
            structure.mknod("/b/x", 1, parent=a)

    def test_ids_unique_and_resolvable(self, structure):
        a = structure.mknod("/a", 1)
        b = structure.mknod("/b", 1)
        assert a.node_id != b.node_id
        assert structure.resolve(a.node_id) is a
        assert structure.resolve(b.node_id) is b


class TestParse:
    def test_absolute(self, structure):
        node = structure.mknod("/x", 1)
        assert structure.parse("/x") is node

    def test_relative_with_hint(self, structure):
        parent = structure.mknod("/x", 1)
        child = structure.mknod("y", 1, parent=parent)
        assert structure.parse("y", hint=parent) is child

    def test_dotdot(self, structure):
        parent = structure.mknod("/x", 1)
        child = structure.mknod("y", 1, parent=parent)
        assert structure.parse("..", hint=child) is parent
        assert structure.parse("../y", hint=child) is child

    def test_dot_and_empty_segments(self, structure):
        node = structure.mknod("/x", 1)
        assert structure.parse("/./x/.") is node
        assert structure.parse("//x") is node

    def test_root(self, structure):
        assert structure.parse("/") is structure.root

    def test_dotdot_at_root_stays(self, structure):
        assert structure.parse("/..") is structure.root

    def test_missing_raises(self, structure):
        with pytest.raises(NodeNotFoundError):
            structure.parse("/ghost")

    def test_resolve_rejects_foreign_node(self, structure):
        other = SchedulingStructure()
        node = other.mknod("/x", 1)
        with pytest.raises(NodeNotFoundError):
            structure.resolve(node)

    def test_resolve_type_check(self, structure):
        with pytest.raises(TypeError):
            structure.resolve(3.14)


class TestRmnod:
    def test_removes_leafless_node(self, structure):
        structure.mknod("/x", 1)
        structure.rmnod("/x")
        with pytest.raises(NodeNotFoundError):
            structure.parse("/x")

    def test_node_with_children_rejected(self, structure):
        structure.mknod("/x", 1)
        structure.mknod("/x/y", 1)
        with pytest.raises(NodeBusyError):
            structure.rmnod("/x")

    def test_leaf_with_threads_rejected(self, structure):
        leaf = structure.mknod("/leaf", 1, scheduler=SfqScheduler())
        leaf.attach_thread(make_thread())
        with pytest.raises(NodeBusyError):
            structure.rmnod("/leaf")

    def test_root_removal_rejected(self, structure):
        with pytest.raises(StructureError):
            structure.rmnod(structure.root)

    def test_remove_then_recreate(self, structure):
        structure.mknod("/x", 1)
        structure.rmnod("/x")
        node = structure.mknod("/x", 2)
        assert node.weight == 2


class TestMove:
    def test_move_detached_thread(self, structure):
        structure.mknod("/a", 1, scheduler=SfqScheduler())
        b = structure.mknod("/b", 1, scheduler=SfqScheduler())
        thread = make_thread()
        structure.move(thread, "/a")
        assert thread.leaf.path == "/a"
        structure.move(thread, b)
        assert thread.leaf is b

    def test_move_to_internal_rejected(self, structure):
        structure.mknod("/a", 1)
        with pytest.raises(NotALeafError):
            structure.move(make_thread(), "/a")


class TestAdmin:
    def test_get_set_weight(self, structure):
        structure.mknod("/x", 3)
        assert structure.admin("/x", ADMIN_GET_WEIGHT) == 3
        assert structure.admin("/x", ADMIN_SET_WEIGHT, 7) == 7
        assert structure.parse("/x").weight == 7

    def test_set_invalid_weight(self, structure):
        structure.mknod("/x", 3)
        # rejected, never truncated or converted
        for weight in (0, 2.5, float("nan"), "3", True):
            with pytest.raises(StructureError):
                structure.admin("/x", ADMIN_SET_WEIGHT, weight)
        assert structure.parse("/x").weight == 3

    def test_info_internal(self, structure):
        structure.mknod("/x", 3)
        structure.mknod("/x/y", 1)
        info = structure.admin("/x", ADMIN_INFO)
        assert info["path"] == "/x"
        assert info["children"] == ["y"]
        assert info["leaf"] is False

    def test_info_leaf(self, structure):
        leaf = structure.mknod("/l", 1, scheduler=SfqScheduler())
        leaf.attach_thread(make_thread("worker"))
        info = structure.admin("/l", ADMIN_INFO)
        assert info["leaf"] is True
        assert info["threads"] == ["worker"]

    def test_unknown_command(self, structure):
        with pytest.raises(StructureError):
            structure.admin("/", "frobnicate")


class TestTraversal:
    def test_iter_nodes_preorder(self, structure):
        structure.mknod("/a", 1)
        structure.mknod("/a/b", 1)
        structure.mknod("/c", 1, scheduler=SfqScheduler())
        paths = [n.path for n in structure.iter_nodes()]
        assert paths == ["/", "/a", "/a/b", "/c"]

    def test_iter_leaves(self, structure):
        structure.mknod("/a", 1)
        structure.mknod("/a/l1", 1, scheduler=SfqScheduler())
        structure.mknod("/l2", 1, scheduler=SfqScheduler())
        assert sorted(l.path for l in structure.iter_leaves()) == ["/a/l1", "/l2"]

    def test_depth(self, structure):
        structure.mknod("/a", 1)
        node = structure.mknod("/a/b", 1)
        assert structure.root.depth == 0
        assert node.depth == 2


class TestNodeBehaviour:
    def test_thread_double_attach_rejected(self, structure):
        leaf_a = structure.mknod("/a", 1, scheduler=SfqScheduler())
        structure.mknod("/b", 1, scheduler=SfqScheduler())
        thread = make_thread()
        leaf_a.attach_thread(thread)
        with pytest.raises(StructureError):
            leaf_a.attach_thread(thread)

    def test_detach_unattached_rejected(self, structure):
        leaf = structure.mknod("/a", 1, scheduler=SfqScheduler())
        with pytest.raises(StructureError):
            leaf.detach_thread(make_thread())

    def test_node_name_validation(self, structure):
        with pytest.raises(StructureError):
            InternalNode("bad/name", 1, structure.root)
