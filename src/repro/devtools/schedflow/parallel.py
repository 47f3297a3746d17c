"""SF4xx: parallel-safety and race analysis for pool-based execution.

The sharded-simulation and cluster-mode roadmap items only compose
correctly when no mutable state escapes a worker-pool boundary except
through the deterministic merge paths faultlab pioneered (name-sorted
results, process-independent digests).  This pass holds that line
statically:

* **Pool boundaries.**  Every ``multiprocessing.Pool`` /
  ``concurrent.futures`` executor constructed in a function is tracked,
  and each ``map``/``submit``-family call on it is a *pool site*.  The
  callable handed to a pool site (unwrapped through
  ``functools.partial``) is a *worker entrypoint*.
* **Worker context.**  The set of functions reachable from any worker
  entrypoint over the project call graph.  Two functions in worker
  context may run concurrently in different worker processes, which is
  what :class:`MhpRelation` (may-happen-in-parallel) records.
* **Emit context.**  Callables registered on an observability event bus
  (``BUS.subscribe``/``BUS.subscription``) plus their callees: code that
  runs synchronously inside the simulator's emit sites.  A subscribed
  object is rooted at its ``capture`` method, which the bus calls when
  it has one, and at its ``__call__``; either is handed the record
  ``(shape, time, values)``, so every parameter is the record.

Rules:

========  ==============================================================
code       meaning
========  ==============================================================
SF401      module-level mutable container written from worker context
SF402      completion-order-dependent merge of pool results
SF403      fork-unsafe RNG use in worker context (global ``random.*``,
           constant-seeded ``random.Random``) bypassing ``derive_seed``
SF404      unpicklable callable (lambda / nested function) crossing a
           pool boundary
SF405      event-bus subscriber mutating foreign state from emit context
SF406      ``os.environ`` read inside a worker entrypoint — workers must
           get configuration through their spec, not the inherited host
           environment
========  ==============================================================

The runtime twin lives in ``repro.devtools.schedsan`` (the
``REPRO_SCHEDSAN=1`` isolation guard): what this pass proves cannot be
written, the guard asserts was not written.
"""

from __future__ import annotations

import ast
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.devtools.schedlint import Finding
from repro.devtools.schedlint.rules import _qualified_name
from repro.devtools.schedflow.project import (
    FileEntry,
    FunctionInfo,
    ProjectIndex,
)

__all__ = ["ParallelPass", "MhpRelation", "reachable",
           "module_mutable_globals"]

#: constructors whose result is a worker pool / executor
_POOL_FACTORIES = frozenset([
    "multiprocessing.Pool",
    "multiprocessing.pool.Pool",
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.ThreadPoolExecutor",
    "concurrent.futures.process.ProcessPoolExecutor",
    "concurrent.futures.thread.ThreadPoolExecutor",
])

#: bare constructor names accepted when imported via ``from ... import``
_POOL_FACTORY_TAILS = frozenset(
    ["Pool", "ProcessPoolExecutor", "ThreadPoolExecutor"])

#: pool methods that ship a callable to worker processes
_SUBMIT_METHODS = frozenset([
    "map", "imap", "imap_unordered", "starmap", "map_async",
    "starmap_async", "apply", "apply_async", "submit",
])

#: pool methods whose result order is worker *completion* order
_UNORDERED_METHODS = frozenset(["imap_unordered"])

#: free functions whose iteration order is worker completion order
_UNORDERED_CALLS = frozenset(["concurrent.futures.as_completed"])

#: consumers that erase iteration order (fold the whole iterable)
_ORDER_INSENSITIVE = frozenset(
    ["sorted", "sum", "min", "max", "len", "any", "all", "set", "frozenset"])

#: call targets constructing a mutable container
_MUTABLE_CALLS = frozenset(
    ["dict", "list", "set", "defaultdict", "deque", "OrderedDict",
     "Counter"])

#: container methods that mutate the receiver in place
_MUTATORS = frozenset([
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "clear", "remove", "discard", "appendleft", "extendleft",
    "sort", "reverse",
])

#: the methods the bus calls on a subscribed object (SF405 roots)
_SUBSCRIBER_METHODS = ("__call__", "capture")

#: host environment reads (SF406); the taint pass shares this notion
_ENV_ATTRS = frozenset(["os.environ", "os.environb"])
_ENV_CALLS = frozenset(["os.getenv"])


# --- the may-happen-in-parallel core ----------------------------------------
#
# Kept as pure functions over (roots, adjacency) so the relation's laws
# (symmetry, monotonicity in both edges and roots) are directly
# property-testable without parsing any source.


def reachable(roots: Iterable[str],
              edges: Mapping[str, Iterable[str]]) -> FrozenSet[str]:
    """The set of nodes reachable from ``roots`` (roots included).

    Deterministic: the result is a frozenset, and the traversal order is
    name-sorted so any side effects of callers iterating it are stable.
    """
    seen: Set[str] = set()
    frontier: List[str] = sorted(set(roots))
    while frontier:
        node = frontier.pop()
        if node in seen:
            continue
        seen.add(node)
        for succ in sorted(set(edges.get(node, ()))):
            if succ not in seen:
                frontier.append(succ)
    return frozenset(seen)


class MhpRelation:
    """May-happen-in-parallel over a call graph with pool entrypoints.

    Any two functions in worker context (reachable from some pool
    entrypoint) may execute concurrently in distinct worker processes —
    including a function with itself, since a pool runs the same
    entrypoint many times at once.  The relation is symmetric by
    construction and monotone in both the entrypoint set and the edge
    set: adding a call edge or a pool site can only grow it.
    """

    __slots__ = ("workers",)

    def __init__(self, workers: Iterable[str]) -> None:
        self.workers: FrozenSet[str] = frozenset(workers)

    @classmethod
    def from_graph(cls, entrypoints: Iterable[str],
                   edges: Mapping[str, Iterable[str]]) -> "MhpRelation":
        """Build the relation from entrypoints and call-graph adjacency."""
        return cls(reachable(entrypoints, edges))

    def in_parallel(self, a: str, b: str) -> bool:
        """True when ``a`` and ``b`` may run in parallel."""
        return a in self.workers and b in self.workers

    def __contains__(self, qname: str) -> bool:
        return qname in self.workers


# --- module-scope tables -----------------------------------------------------


def _is_mutable_container(value: Optional[ast.AST],
                          imports: Dict[str, str]) -> bool:
    """True when ``value`` constructs a mutable container."""
    if value is None:
        return False
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                          ast.SetComp, ast.DictComp)):
        return True
    if isinstance(value, ast.Call):
        dotted = _qualified_name(value.func, imports)
        if dotted is not None and dotted.split(".")[-1] in _MUTABLE_CALLS:
            return True
    return False


def module_mutable_globals(entry: FileEntry) -> Dict[str, int]:
    """Top-level names bound to mutable containers, with their lines."""
    out: Dict[str, int] = {}
    for stmt in entry.tree.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            targets, value = [stmt.target], stmt.value
        else:
            continue
        if not _is_mutable_container(value, entry.imports):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                out[target.id] = stmt.lineno
    return out


def _store_root(target: ast.AST) -> Optional[ast.Name]:
    """The root name of an attribute/subscript store target, if any."""
    node = target
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node if isinstance(node, ast.Name) else None


def _local_bindings(fn: ast.AST) -> Set[str]:
    """Names bound locally in ``fn`` (params, assignments, loops, withs,
    comprehensions) — stores through these are not global writes."""
    names: Set[str] = set()
    args = fn.args  # type: ignore[attr-defined]
    for arg in (args.args + args.kwonlyargs + args.posonlyargs):
        names.add(arg.arg)
    for extra in (args.vararg, args.kwarg):
        if extra is not None:
            names.add(extra.arg)

    def bind(target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                bind(element)

    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                bind(target)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            bind(node.target)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            bind(node.target)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    bind(item.optional_vars)
        elif isinstance(node, ast.comprehension):
            bind(node.target)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is not fn:
                names.add(node.name)
    return names


def _global_decls(fn: ast.AST) -> Set[str]:
    """Names the function explicitly declares ``global``."""
    out: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            out.update(node.names)
    return out


class _PoolSite:
    """One ``pool.map``-style call shipping work to worker processes."""

    __slots__ = ("call", "method", "info", "target")

    def __init__(self, call: ast.Call, method: str, info: FunctionInfo,
                 target: Optional[FunctionInfo]) -> None:
        self.call = call
        self.method = method
        self.info = info
        self.target = target


class ParallelPass:
    """Run with :meth:`run`; yields SF401—SF406 findings."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self._mutable_cache: Dict[str, Dict[str, int]] = {}
        #: local name -> (origin module label) of an imported mutable global
        self._import_cache: Dict[str, Dict[str, str]] = {}

    # --- shared lookups ---------------------------------------------------

    def _mutable_globals(self, entry: FileEntry) -> Dict[str, int]:
        table = self._mutable_cache.get(entry.path)
        if table is None:
            table = module_mutable_globals(entry)
            self._mutable_cache[entry.path] = table
        return table

    def _imported_mutable_globals(self, entry: FileEntry) -> Dict[str, str]:
        """Local names importing another module's mutable global, mapped
        to a human-readable origin (``repro/faultlab/faults.py:FAULTS``)."""
        table = self._import_cache.get(entry.path)
        if table is not None:
            return table
        table = {}
        for local, dotted in sorted(entry.imports.items()):
            parts = dotted.split(".")
            if len(parts) < 2:
                continue
            module = "/".join(parts[:-1]) + ".py"
            origin = self.index.by_module.get(module)
            if origin is None or origin.path == entry.path:
                continue
            if parts[-1] in self._mutable_globals(origin):
                table[local] = "%s:%s" % (module, parts[-1])
        self._import_cache[entry.path] = table
        return table

    def _resolve_callable(self, expr: ast.AST,
                          info: FunctionInfo) -> Optional[FunctionInfo]:
        """Resolve a callable *reference* (not a call) to a project
        function; unwraps ``functools.partial(f, ...)``."""
        if isinstance(expr, ast.Call):
            dotted = _qualified_name(expr.func, info.entry.imports)
            if (dotted is not None and dotted.split(".")[-1] == "partial"
                    and expr.args):
                return self._resolve_callable(expr.args[0], info)
            return None
        return self.index.resolve_ref(expr, info.entry, info.class_name)

    # --- scanning ---------------------------------------------------------

    def _pool_bindings(self, info: FunctionInfo) -> Set[str]:
        """Local names bound to a pool/executor constructor."""
        names: Set[str] = set()

        def record(value: Optional[ast.AST], target: Optional[ast.AST]) -> None:
            if (not isinstance(value, ast.Call)
                    or not isinstance(target, ast.Name)):
                return
            dotted = _qualified_name(value.func, info.entry.imports)
            if dotted is None:
                return
            if (dotted in _POOL_FACTORIES
                    or dotted.split(".")[-1] in _POOL_FACTORY_TAILS):
                names.add(target.id)

        for node in ast.walk(info.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    record(node.value, target)
            elif isinstance(node, ast.withitem):
                record(node.context_expr, node.optional_vars)
        return names

    def _pool_sites(self, info: FunctionInfo) -> List[_PoolSite]:
        pools = self._pool_bindings(info)
        sites: List[_PoolSite] = []
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (not isinstance(func, ast.Attribute)
                    or func.attr not in _SUBMIT_METHODS):
                continue
            receiver = func.value
            if not (isinstance(receiver, ast.Name)
                    and (receiver.id in pools
                         or receiver.id in ("pool", "executor"))):
                continue
            target = (self._resolve_callable(node.args[0], info)
                      if node.args else None)
            sites.append(_PoolSite(node, func.attr, info, target))
        return sites

    def _call_edges(self) -> Dict[str, List[str]]:
        edges: Dict[str, List[str]] = {}
        for qname in sorted(self.index.functions):
            info = self.index.functions[qname]
            out: Set[str] = set()
            for node in ast.walk(info.node):
                if isinstance(node, ast.Call):
                    callee = self.index.resolve_call(
                        node, info.entry, info.class_name)
                    if callee is not None:
                        out.add(callee.qname)
            edges[qname] = sorted(out)
        return edges

    def _subscriber_roots(self) -> Dict[str, Tuple[FunctionInfo, int]]:
        """Resolved subscriber callables: qname -> (info, subscribe line)."""
        roots: Dict[str, Tuple[FunctionInfo, int]] = {}
        for qname in sorted(self.index.functions):
            info = self.index.functions[qname]
            instance_classes = self._local_instances(info)
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call) or not node.args:
                    continue
                func = node.func
                if (not isinstance(func, ast.Attribute)
                        or func.attr not in ("subscribe", "subscription")):
                    continue
                dotted = _qualified_name(func.value, info.entry.imports)
                is_bus = (dotted is not None
                          and dotted.split(".")[-1].lower() == "bus")
                if not is_bus:
                    continue
                targets: List[Optional[FunctionInfo]] = [
                    self._resolve_callable(node.args[0], info)]
                if targets[0] is None and isinstance(node.args[0], ast.Name):
                    dotted_cls = instance_classes.get(node.args[0].id)
                    if dotted_cls is not None:
                        targets = [self._method_of(dotted_cls, method, info)
                                   for method in _SUBSCRIBER_METHODS]
                for target in targets:
                    if target is not None and target.qname not in roots:
                        roots[target.qname] = (target, node.lineno)
        return roots

    def _method_of(self, dotted_cls: str, method: str,
                   info: FunctionInfo) -> Optional[FunctionInfo]:
        """``dotted_cls.method``, the class named as ``info`` names it."""
        if "." in dotted_cls:
            return self.index.resolve_ref_dotted(dotted_cls + "." + method)
        if info.entry.module is None:
            return None
        return self.index.methods.get((info.entry.module, dotted_cls, method))

    def _local_instances(self, info: FunctionInfo) -> Dict[str, str]:
        """Local name -> dotted class path for ``name = Ctor(...)``."""
        out: Dict[str, str] = {}
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            dotted = _qualified_name(node.value.func, info.entry.imports)
            if dotted is None:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = dotted
        return out

    # --- the pass ---------------------------------------------------------

    def run(self) -> Iterator[Finding]:
        """Check the whole project; yields SF401—SF406 findings."""
        findings: List[Finding] = []

        sites: List[_PoolSite] = []
        for qname in sorted(self.index.functions):
            sites.extend(self._pool_sites(self.index.functions[qname]))

        entrypoints = sorted({site.target.qname for site in sites
                              if site.target is not None})
        edges = self._call_edges()
        mhp = MhpRelation.from_graph(entrypoints, edges)
        provenance = self._provenance(entrypoints, edges)

        subscriber_roots = self._subscriber_roots()
        emit_context = reachable(subscriber_roots, edges)

        for site in sites:
            self._check_boundary(site, findings)
        for qname in sorted(mhp.workers):
            info = self.index.functions.get(qname)
            if info is not None:
                root = provenance.get(qname, qname)
                self._check_worker_writes(info, root, findings)
                self._check_worker_rng(info, root, findings)
        for qname in sorted({s.target.qname for s in sites
                             if s.target is not None}):
            self._check_entry_env(self.index.functions[qname], findings)
        for qname in sorted(emit_context):
            info = self.index.functions.get(qname)
            if info is not None:
                self._check_subscriber(
                    info, direct=qname in subscriber_roots,
                    findings=findings)
        self._check_unordered_free_calls(findings)
        return iter(findings)

    def _provenance(self, entrypoints: List[str],
                    edges: Dict[str, List[str]]) -> Dict[str, str]:
        """Map each worker-context function to the (name-least) pool
        entrypoint it is reachable from, for finding messages."""
        out: Dict[str, str] = {}
        for root in sorted(entrypoints):
            for qname in sorted(reachable([root], edges)):
                out.setdefault(qname, root)
        return out

    def _report(self, findings: List[Finding], info: FunctionInfo,
                node: ast.AST, code: str, message: str) -> None:
        line = getattr(node, "lineno", 1)
        findings.append(Finding(
            info.entry.path, line, getattr(node, "col_offset", 0), code,
            message, end_line=getattr(node, "end_lineno", None) or line))

    # --- SF402 / SF404 (pool sites) ---------------------------------------

    def _order_insensitive_args(self, info: FunctionInfo) -> Set[int]:
        exempt: Set[int] = set()
        for node in ast.walk(info.node):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in _ORDER_INSENSITIVE):
                for arg in node.args:
                    exempt.add(id(arg))
        return exempt

    def _check_boundary(self, site: _PoolSite,
                        findings: List[Finding]) -> None:
        info = site.info
        call = site.call
        if site.method in _UNORDERED_METHODS:
            if id(call) not in self._order_insensitive_args(info):
                self._report(
                    findings, info, call, "SF402",
                    "%s() yields results in worker *completion* order; "
                    "sort the results (or fold them with an "
                    "order-insensitive reducer) before merging"
                    % site.method)
        local_defs = {
            node.name for node in ast.walk(info.node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node is not info.node}
        for position, arg in enumerate(call.args):
            unwrapped = arg
            if (isinstance(arg, ast.Call)
                    and (_qualified_name(arg.func, info.entry.imports) or "")
                    .split(".")[-1] == "partial" and arg.args):
                unwrapped = arg.args[0]
            bad = None
            if isinstance(unwrapped, ast.Lambda):
                bad = "a lambda"
            elif (isinstance(unwrapped, ast.Name)
                  and unwrapped.id in local_defs):
                bad = "the nested function %r" % unwrapped.id
            if bad is not None:
                what = ("as the worker callable" if position == 0
                        else "as a worker argument")
                self._report(
                    findings, info, unwrapped, "SF404",
                    "%s crosses the pool boundary %s; worker payloads "
                    "must be picklable top-level functions and plain data"
                    % (bad, what))

    def _check_unordered_free_calls(self, findings: List[Finding]) -> None:
        for qname in sorted(self.index.functions):
            info = self.index.functions[qname]
            exempt = None
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                dotted = _qualified_name(node.func, info.entry.imports)
                if dotted not in _UNORDERED_CALLS:
                    continue
                if exempt is None:
                    exempt = self._order_insensitive_args(info)
                if id(node) not in exempt:
                    self._report(
                        findings, info, node, "SF402",
                        "as_completed() yields futures in completion "
                        "order; sort the gathered results before merging")

    # --- SF401 (worker global writes) -------------------------------------

    def _check_worker_writes(self, info: FunctionInfo, root: str,
                             findings: List[Finding]) -> None:
        entry = info.entry
        own = self._mutable_globals(entry)
        imported = self._imported_mutable_globals(entry)
        local = _local_bindings(info.node)
        declared_global = _global_decls(info.node)

        def origin_of(name: str) -> Optional[str]:
            if name in local and name not in declared_global:
                return None
            if name in own:
                return "%s:%s" % (entry.module or entry.path, name)
            return imported.get(name)

        def flag(node: ast.AST, name: str, origin: str) -> None:
            self._report(
                findings, info, node, "SF401",
                "module-level mutable %r (%s) is written from worker "
                "context (reached from pool entrypoint %s); worker "
                "results must flow back through the pool's return "
                "values and a deterministic merge" % (name, origin, root))

        for node in ast.walk(info.node):
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = [t for t in node.targets
                           if isinstance(t, (ast.Subscript, ast.Attribute))]
            elif isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in _MUTATORS
                        and isinstance(func.value, ast.Name)):
                    origin = origin_of(func.value.id)
                    if origin is not None:
                        flag(node, func.value.id, origin)
                continue
            for target in targets:
                if (isinstance(target, ast.Name)
                        and target.id in declared_global
                        and target.id in own):
                    flag(node, target.id,
                         "%s:%s" % (entry.module or entry.path, target.id))
                    continue
                root_name = (_store_root(target)
                             if isinstance(target, (ast.Subscript,
                                                    ast.Attribute))
                             else None)
                if root_name is None:
                    continue
                origin = origin_of(root_name.id)
                if origin is not None:
                    flag(node, root_name.id, origin)

    # --- SF403 (fork-unsafe RNG) -----------------------------------------

    def _check_worker_rng(self, info: FunctionInfo, root: str,
                          findings: List[Finding]) -> None:
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            dotted = _qualified_name(node.func, info.entry.imports)
            if dotted is None or not dotted.startswith("random."):
                continue
            tail = dotted[len("random."):]
            if "." in tail:
                continue
            if tail == "Random":
                seeded_ok = (bool(node.args)
                             and not isinstance(node.args[0], ast.Constant))
                if not seeded_ok:
                    self._report(
                        findings, info, node, "SF403",
                        "random.Random(%s) in worker context duplicates "
                        "draw sequences across workers; derive the seed "
                        "with repro.sim.rng.derive_seed / Stream.substream "
                        "from the worker's spec"
                        % ("constant seed" if node.args else "no seed"))
            elif tail == "SystemRandom":
                self._report(
                    findings, info, node, "SF403",
                    "random.SystemRandom in worker context is "
                    "irreproducible; use repro.sim.rng streams derived "
                    "from the worker's spec")
            else:
                self._report(
                    findings, info, node, "SF403",
                    "random.%s() uses the process-global generator in "
                    "worker context; its state diverges per worker and "
                    "is invisible to the campaign seed tree — mint a "
                    "stream via repro.sim.rng instead" % tail)

    # --- SF405 (emit-context mutation) ------------------------------------

    def _check_subscriber(self, info: FunctionInfo, direct: bool,
                          findings: List[Finding]) -> None:
        entry = info.entry
        own = self._mutable_globals(entry)
        imported = self._imported_mutable_globals(entry)
        # a subscriber observes its whole record: shape, time, values
        record_params: List[str] = []
        if direct:
            record_params = (info.params[1:] if info.is_method
                             else info.params)

        def flag_store(node: ast.AST, target: ast.AST) -> bool:
            root_name = _store_root(target) if isinstance(
                target, (ast.Subscript, ast.Attribute)) else None
            if root_name is None:
                return False
            if root_name.id in record_params:
                self._report(
                    findings, info, node, "SF405",
                    "subscriber %r mutates the record it observes; "
                    "subscribers must treat emitted records as read-only"
                    % info.name)
                return True
            if (root_name.id in own or root_name.id in imported):
                self._report(
                    findings, info, node, "SF405",
                    "subscriber code writes module-level state %r from "
                    "emit context; observers must fold into their own "
                    "accumulators, never shared globals" % root_name.id)
                return True
            return False

        for node in ast.walk(info.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    flag_store(node, target)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                flag_store(node, node.target)
            elif isinstance(node, ast.Call):
                name = None
                if isinstance(node.func, ast.Name):
                    name = node.func.id
                elif isinstance(node.func, ast.Attribute):
                    name = node.func.attr
                if name is not None and name.startswith("hsfq_"):
                    self._report(
                        findings, info, node, "SF405",
                        "subscriber code calls %s() from emit context; "
                        "restructuring the scheduling tree inside an "
                        "emit re-enters the machinery that is emitting"
                        % name)

    # --- SF406 (entrypoint environment reads) -----------------------------

    def _check_entry_env(self, info: FunctionInfo,
                         findings: List[Finding]) -> None:
        for node in ast.walk(info.node):
            dotted = None
            if isinstance(node, ast.Attribute):
                dotted = _qualified_name(node, info.entry.imports)
                if dotted not in _ENV_ATTRS:
                    continue
            elif isinstance(node, ast.Call):
                dotted = _qualified_name(node.func, info.entry.imports)
                if dotted not in _ENV_CALLS:
                    continue
            else:
                continue
            self._report(
                findings, info, node, "SF406",
                "%s read inside the pool entrypoint %r; workers inherit "
                "a stale host environment — pass configuration through "
                "the worker's spec instead" % (dotted, info.name))
