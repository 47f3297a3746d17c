"""The SF4xx parallel-safety pass: MHP-relation laws and pass internals.

The may-happen-in-parallel core is pure graph code, so its algebraic
laws (symmetry, monotonicity in both the edge set and the entrypoint
set) are checked with hypothesis over random call graphs; the
source-level behaviors (pool-site detection, ``functools.partial``
unwrapping, cross-file global writes) are checked on small synthetic
projects.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.devtools.schedflow import analyze_project
from repro.devtools.schedflow.parallel import (
    MhpRelation,
    module_mutable_globals,
    reachable,
)
from repro.devtools.schedflow.project import ProjectIndex

NAMES = ["f%d" % i for i in range(6)]

names = st.sampled_from(NAMES)
root_sets = st.frozensets(names, max_size=3)
edge_maps = st.dictionaries(names, st.frozensets(names, max_size=4),
                            max_size=6)


def _merge(edges_a, edges_b):
    """Union of two adjacency maps."""
    merged = {}
    for edges in (edges_a, edges_b):
        for node, succs in edges.items():
            merged[node] = merged.get(node, frozenset()) | succs
    return merged


class TestReachableLaws:
    @given(roots=root_sets, edges=edge_maps)
    def test_contains_roots(self, roots, edges):
        assert roots <= reachable(roots, edges)

    @given(roots=root_sets, edges=edge_maps)
    def test_idempotent(self, roots, edges):
        once = reachable(roots, edges)
        assert reachable(once, edges) == once

    @given(roots_a=root_sets, roots_b=root_sets, edges=edge_maps)
    def test_monotone_in_roots(self, roots_a, roots_b, edges):
        assert reachable(roots_a, edges) <= reachable(roots_a | roots_b,
                                                      edges)

    @given(roots=root_sets, edges_a=edge_maps, edges_b=edge_maps)
    def test_monotone_in_edges(self, roots, edges_a, edges_b):
        """Adding call edges can only grow the reachable set."""
        assert reachable(roots, edges_a) <= \
            reachable(roots, _merge(edges_a, edges_b))

    @given(roots=root_sets, edges=edge_maps)
    def test_closed_under_edges(self, roots, edges):
        closure = reachable(roots, edges)
        for node in closure:
            assert edges.get(node, frozenset()) <= closure


class TestMhpRelationLaws:
    @given(entry=root_sets, edges=edge_maps, a=names, b=names)
    def test_symmetry(self, entry, edges, a, b):
        mhp = MhpRelation.from_graph(entry, edges)
        assert mhp.in_parallel(a, b) == mhp.in_parallel(b, a)

    @given(entry=root_sets, edges=edge_maps, a=names)
    def test_self_parallelism(self, entry, edges, a):
        """A pool runs the same entrypoint concurrently with itself."""
        mhp = MhpRelation.from_graph(entry, edges)
        assert mhp.in_parallel(a, a) == (a in mhp)

    @given(entry_a=root_sets, entry_b=root_sets, edges=edge_maps)
    def test_monotone_in_entrypoints(self, entry_a, entry_b, edges):
        """A new pool site can only add may-happen-in-parallel pairs."""
        small = MhpRelation.from_graph(entry_a, edges)
        large = MhpRelation.from_graph(entry_a | entry_b, edges)
        assert small.workers <= large.workers

    @given(entry=root_sets, edges_a=edge_maps, edges_b=edge_maps)
    def test_monotone_in_call_graph(self, entry, edges_a, edges_b):
        """A new call edge can only add may-happen-in-parallel pairs."""
        small = MhpRelation.from_graph(entry, edges_a)
        large = MhpRelation.from_graph(entry, _merge(edges_a, edges_b))
        assert small.workers <= large.workers


def _project(*sources):
    index = ProjectIndex()
    for position, source in enumerate(sources):
        index.add_source(source, "mod%d.py" % position)
    return index


class TestPassInternals:
    def test_module_mutable_globals_table(self):
        index = _project(
            "# schedlint-fixture-module: repro/faultlab/example.py\n"
            "CACHE = {}\n"
            "NAMES = ('a', 'b')\n"
            "SEEN = set()\n"
            "LIMIT = 3\n")
        table = module_mutable_globals(index.entries[0])
        assert set(table) == {"CACHE", "SEEN"}

    def test_cross_file_registry_write_is_flagged(self):
        """A worker writing another module's registry is still SF401."""
        registry = (
            "# schedlint-fixture-module: repro/faultlab/registry.py\n"
            "TOTALS = {}\n")
        worker = (
            "# schedlint-fixture-module: repro/faultlab/worker.py\n"
            "from repro.faultlab.registry import TOTALS\n"
            "\n"
            "def work(cell):\n"
            "    TOTALS[cell] = cell\n"
            "    return cell\n"
            "\n"
            "def launch(cells):\n"
            "    import multiprocessing\n"
            "    with multiprocessing.Pool(2) as pool:\n"
            "        return pool.map(work, cells)\n")
        index = _project(registry, worker)
        findings = analyze_project(index)
        assert [f.code for f in findings] == ["SF401"]
        assert "registry.py:TOTALS" in findings[0].message

    def test_partial_unwraps_to_the_entrypoint(self):
        """SF406 sees through functools.partial to the real entrypoint."""
        source = (
            "# schedlint-fixture-module: repro/faultlab/example.py\n"
            "import functools\n"
            "import os\n"
            "\n"
            "def work(limit, cell):\n"
            "    return cell if os.getenv('X') else limit\n"
            "\n"
            "def launch(cells):\n"
            "    import multiprocessing\n"
            "    with multiprocessing.Pool(2) as pool:\n"
            "        return pool.map(functools.partial(work, 3), cells)\n")
        findings = analyze_project(_project(source))
        assert [f.code for f in findings] == ["SF406"]

    def test_executor_submit_is_a_pool_site(self):
        source = (
            "# schedlint-fixture-module: repro/faultlab/example.py\n"
            "import concurrent.futures\n"
            "import random\n"
            "\n"
            "def work(cell):\n"
            "    return cell + random.random()\n"
            "\n"
            "def launch(cells):\n"
            "    with concurrent.futures.ProcessPoolExecutor() as executor:\n"
            "        return [executor.submit(work, c) for c in cells]\n")
        findings = analyze_project(_project(source))
        assert [f.code for f in findings] == ["SF403"]

    def test_local_shadow_is_not_a_global_write(self):
        source = (
            "# schedlint-fixture-module: repro/faultlab/example.py\n"
            "CACHE = {}\n"
            "\n"
            "def work(cell):\n"
            "    CACHE = {}\n"
            "    CACHE[cell] = cell\n"
            "    return CACHE\n"
            "\n"
            "def launch(cells):\n"
            "    import multiprocessing\n"
            "    with multiprocessing.Pool(2) as pool:\n"
            "        return pool.map(work, cells)\n")
        assert analyze_project(_project(source)) == []

    def test_global_declaration_rebind_is_flagged(self):
        source = (
            "# schedlint-fixture-module: repro/faultlab/example.py\n"
            "CACHE = {}\n"
            "\n"
            "def work(cell):\n"
            "    global CACHE\n"
            "    CACHE = {cell: cell}\n"
            "    return cell\n"
            "\n"
            "def launch(cells):\n"
            "    import multiprocessing\n"
            "    with multiprocessing.Pool(2) as pool:\n"
            "        return pool.map(work, cells)\n")
        findings = analyze_project(_project(source))
        assert [f.code for f in findings] == ["SF401"]

