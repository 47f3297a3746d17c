"""The determinism rules: SL001 — SL004, SL006 and SL007.

Each rule documents *which* property of the reproduction it protects; the
scopes mirror the doctrine stated in ``repro/units.py`` ("the only
floating-point values in the core simulator are derived metrics, never
state") and ``repro/sim/rng.py`` (all stochastic inputs are seeded).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.devtools.schedlint import FileContext, Finding, Rule, register

# --- shared helpers ----------------------------------------------------------


def _import_map(tree: ast.Module) -> Dict[str, str]:
    """Map local names to fully qualified module/attribute paths.

    ``import time`` -> {"time": "time"}; ``import numpy as np`` ->
    {"np": "numpy"}; ``from datetime import datetime as dt`` ->
    {"dt": "datetime.datetime"}.  Only top-level and function-level imports
    are considered; that is where they occur in this codebase.
    """
    mapping: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                mapping[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                mapping[alias.asname or alias.name] = (
                    node.module + "." + alias.name)
    return mapping


def _qualified_name(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Resolve a Name/Attribute chain to a dotted path using ``imports``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = imports.get(node.id, node.id)
    parts.append(root)
    return ".".join(reversed(parts))


# --- SL001: wall clock / entropy ---------------------------------------------

#: call targets that read the host's clock or entropy pool
_WALL_CLOCK = {
    "time.time": "reads the wall clock",
    "time.time_ns": "reads the wall clock",
    "time.monotonic": "reads the host clock",
    "time.monotonic_ns": "reads the host clock",
    "time.clock_gettime": "reads the host clock",
    "time.clock_gettime_ns": "reads the host clock",
    "datetime.datetime.now": "reads the wall clock",
    "datetime.datetime.utcnow": "reads the wall clock",
    "datetime.datetime.today": "reads the wall clock",
    "datetime.date.today": "reads the wall clock",
    "os.urandom": "reads the OS entropy pool",
    "os.getrandom": "reads the OS entropy pool",
    "uuid.uuid1": "depends on host clock and MAC address",
    "uuid.uuid4": "reads the OS entropy pool",
}


@register
class WallClockRule(Rule):
    """SL001: simulation code must never observe the host's clock or entropy.

    Simulated time is ``Simulator.now`` and nothing else; a single wall
    clock read makes runs irreproducible.  ``time.perf_counter`` is *not*
    flagged: it is the sanctioned way to measure how long an experiment
    took to compute, and may never feed simulation state.
    """

    code = "SL001"
    name = "wall-clock"
    summary = "wall-clock or entropy read inside the simulator"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = _import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = _qualified_name(node.func, imports)
            if qualified is None:
                continue
            reason = _WALL_CLOCK.get(qualified)
            if reason is not None:
                yield ctx.finding(
                    node, self.code,
                    "%s() %s; simulation time is Simulator.now" % (qualified, reason))
            elif qualified.startswith("secrets."):
                yield ctx.finding(
                    node, self.code,
                    "%s() reads the OS entropy pool; use repro.sim.rng" % qualified)


# --- SL002: unseeded randomness ----------------------------------------------

#: the one module allowed to touch ``random`` directly
_RNG_HOME = "repro/sim/rng.py"


@register
class UnseededRandomRule(Rule):
    """SL002: all randomness flows through explicitly seeded generators.

    The module-level ``random.*`` functions share one hidden, unseeded
    global generator; calling them anywhere makes draw order — and hence
    whole simulations — depend on import order and prior callers.  Only
    ``repro.sim.rng`` (the seeded-stream factory) may use them.
    Constructing ``random.Random(seed)`` with an explicit seed is fine
    everywhere; ``random.Random()`` (no seed) and ``random.SystemRandom``
    are not.
    """

    code = "SL002"
    name = "unseeded-random"
    summary = "unseeded randomness outside repro.sim.rng"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        in_rng_home = ctx.in_module(_RNG_HOME)
        imports = _import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = _qualified_name(node.func, imports)
            if qualified is None or not qualified.startswith("random."):
                continue
            tail = qualified[len("random."):]
            if tail == "SystemRandom":
                yield ctx.finding(
                    node, self.code,
                    "random.SystemRandom cannot be seeded; use repro.sim.rng.make_rng")
            elif tail == "Random":
                if not node.args and not node.keywords:
                    yield ctx.finding(
                        node, self.code,
                        "random.Random() without a seed is nondeterministic; "
                        "pass an explicit seed or use repro.sim.rng.make_rng")
            elif "." not in tail and not in_rng_home:
                yield ctx.finding(
                    node, self.code,
                    "random.%s() uses the shared unseeded global generator; "
                    "draw from repro.sim.rng.make_rng(seed, label) instead" % tail)


# --- SL003: unordered-set iteration ------------------------------------------

#: modules whose iteration order reaches scheduling decisions
_DISPATCH_SCOPE = ("repro/schedulers/", "repro/smp/", "repro/core/",
                   "repro/hsfq.py", "repro/cpu/")

#: calls whose result does not depend on the argument's iteration order
_ORDER_INSENSITIVE = {"sorted", "min", "max", "sum", "len", "any", "all",
                      "set", "frozenset"}


class _SetSymbols(ast.NodeVisitor):
    """Collect names and ``self.<attr>`` targets bound to set values."""

    def __init__(self) -> None:
        self.names: Set[str] = set()
        self.attrs: Set[str] = set()

    def _is_set_value(self, value: Optional[ast.AST]) -> bool:
        if isinstance(value, ast.Set) or isinstance(value, ast.SetComp):
            return True
        if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id in ("set", "frozenset")):
            return True
        return False

    def _is_set_annotation(self, annotation: Optional[ast.AST]) -> bool:
        if annotation is None:
            return False
        text = ast.dump(annotation)
        return ("'Set'" in text or "'set'" in text
                or "'FrozenSet'" in text or "'frozenset'" in text
                or "'MutableSet'" in text or "'AbstractSet'" in text)

    def _record(self, target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self.names.add(target.id)
        elif (isinstance(target, ast.Attribute)
              and isinstance(target.value, ast.Name)
              and target.value.id == "self"):
            self.attrs.add(target.attr)

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._is_set_value(node.value):
            for target in node.targets:
                self._record(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if self._is_set_value(node.value) or self._is_set_annotation(node.annotation):
            self._record(node.target)
        self.generic_visit(node)


@register
class SetIterationRule(Rule):
    """SL003: dispatch paths must not iterate over unordered sets.

    ``set`` iteration order depends on insertion history and hash
    randomization of the interpreter process; two identical simulations
    can diverge when a tie is broken by whichever element a set yields
    first.  In scheduler, hierarchy, machine, and SMP modules, iterate
    over lists/dicts (insertion-ordered) or wrap the set in ``sorted()``.

    The rule flags ``for``-loops and comprehensions whose iterable is a
    set literal, a ``set(...)``/``frozenset(...)`` call, a set
    comprehension, or a name / ``self.attr`` bound to a set *in the same
    file*.  A generator expression consumed whole by an order-insensitive
    reducer (``sorted``, ``min``, ``max``, ``sum``, ``len``, ``any``,
    ``all``, ``set``, ``frozenset``) is exempt.
    """

    code = "SL003"
    name = "set-iteration"
    summary = "iteration over an unordered set in a dispatch-path module"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_module(*_DISPATCH_SCOPE):
            return
        symbols = _SetSymbols()
        symbols.visit(ctx.tree)

        exempt_generators: Set[int] = set()
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in _ORDER_INSENSITIVE):
                for arg in node.args:
                    if isinstance(arg, ast.GeneratorExp):
                        exempt_generators.add(id(arg))

        def is_set_expr(expr: ast.AST) -> bool:
            if isinstance(expr, (ast.Set, ast.SetComp)):
                return True
            if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
                    and expr.func.id in ("set", "frozenset")):
                return True
            if isinstance(expr, ast.Name) and expr.id in symbols.names:
                return True
            if (isinstance(expr, ast.Attribute)
                    and isinstance(expr.value, ast.Name)
                    and expr.value.id == "self"
                    and expr.attr in symbols.attrs):
                return True
            return False

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For):
                if is_set_expr(node.iter):
                    yield ctx.finding(
                        node.iter, self.code,
                        "for-loop over an unordered set; iterate a list/dict "
                        "or wrap in sorted()")
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                if id(node) in exempt_generators:
                    continue
                for comp in node.generators:
                    if is_set_expr(comp.iter):
                        yield ctx.finding(
                            comp.iter, self.code,
                            "comprehension over an unordered set; iterate a "
                            "list/dict or wrap in sorted()")


# --- SL004: float tag arithmetic ---------------------------------------------

#: modules that manipulate SFQ tags or scheduler accounting state
_TAG_SCOPE = ("repro/core/", "repro/schedulers/", "repro/smp/", "repro/hsfq.py")

#: sanctioned exceptions inside the tag scope:
#: - core/tags.py *is* the tag-arithmetic strategy (its float mode is the
#:   subject of the EXP-AB4 ablation, selected explicitly by the caller);
#: - schedulers/fairqueue.py implements the WFQ-family baselines whose
#:   float rate-clock is the historical algorithm being reproduced.
_TAG_EXEMPT = ("repro/core/tags.py", "repro/schedulers/fairqueue.py")


@register
class FloatTagRule(Rule):
    """SL004: tag arithmetic stays integral (or exact rational), never float.

    The fairness theorems are proved for exact arithmetic; a stray float
    literal or ``/`` true division silently converts a whole tag chain to
    drifting floats.  Tag modules must use integer math (``//``, helpers
    from ``repro.units``) or route ratios through
    ``repro.core.tags.TagMath``.  Derived *metrics* (utilization ratios
    and the like) are legitimate floats — mark those lines with
    ``# schedlint: disable=SL004`` and a word of justification.
    """

    code = "SL004"
    name = "float-tags"
    summary = "float literal or true division in a tag-arithmetic module"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_module(*_TAG_SCOPE) or ctx.in_module(*_TAG_EXEMPT):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                yield ctx.finding(
                    node, self.code,
                    "float literal %r in a tag-arithmetic module; scheduler "
                    "state must stay integral" % (node.value,))
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                yield ctx.finding(
                    node, self.code,
                    "true division yields a float; use //, repro.units "
                    "helpers, or TagMath.ratio for tag math")
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
                yield ctx.finding(
                    node, self.code,
                    "/= yields a float; use //= or TagMath for tag math")


# --- SL006: ad-hoc RNG construction in fault/workload code --------------------

#: modules whose randomness must derive from the campaign seed tree
_SEED_TREE_SCOPE = ("repro/faultlab/", "repro/workloads/")


@register
class AdHocRngRule(Rule):
    """SL006: faultlab and workload code draws from the campaign seed tree.

    A campaign derives one substream per cell and per fault from its root
    seed (``repro.sim.rng.derive_seed``); any ``random.Random(seed)``
    constructed ad hoc inside fault injectors or workloads sits outside
    that tree, so two cells can silently share draw sequences and a
    reproducer replayed in isolation sees different randomness than the
    campaign did.  SL002 already flags *unseeded* construction
    everywhere; this rule flags the *seeded* constructions SL002 allows,
    but only inside ``repro/faultlab/`` and ``repro/workloads/``.  Use
    ``repro.sim.rng.make_rng(seed, label)`` or ``Stream.rng(label)``.
    """

    code = "SL006"
    name = "ad-hoc-rng"
    summary = "RNG constructed outside the seed tree in faultlab/workloads"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_module(*_SEED_TREE_SCOPE):
            return
        imports = _import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = _qualified_name(node.func, imports)
            if qualified != "random.Random":
                continue
            # Unseeded construction is SL002's finding; report each call
            # under exactly one rule.
            if node.args or node.keywords:
                yield ctx.finding(
                    node, self.code,
                    "random.Random(seed) bypasses the campaign seed tree; "
                    "derive the stream via repro.sim.rng.make_rng(seed, label) "
                    "or Stream.rng(label)")


# --- SL007: module-level mutable containers -----------------------------------

#: modules under this prefix are checked...
_MUTABLE_SCOPE = "repro/"
#: ...except the analyzers themselves, whose lookup tables are inert data
_MUTABLE_EXEMPT_SCOPE = "repro/devtools/"

#: sanctioned registries: populated by decorators/imports, never per-run
_MUTABLE_ALLOWLIST = frozenset([
    ("repro/hsfq.py", "_SCHEDULER_FACTORIES"),
    ("repro/cluster/placement.py", "PLACEMENTS"),
    ("repro/cluster/scenario.py", "CLUSTER_SCENARIOS"),
    ("repro/experiments/__main__.py", "EXPERIMENTS"),
    ("repro/faultlab/faults.py", "FAULTS"),
    ("repro/faultlab/workloads.py", "WORKLOADS"),
    ("repro/threads/states.py", "ALLOWED_TRANSITIONS"),
])

#: constructors whose result is a mutable container
_MUTABLE_CTORS = frozenset(
    ["dict", "list", "set", "defaultdict", "deque", "OrderedDict",
     "Counter"])


@register
class ModuleMutableRule(Rule):
    """SL007: no new module-level mutable containers in ``repro/``.

    A module-level dict/list/set is shared, hidden state: schedflow's
    SF401/SF405 exist because such containers leak across worker-pool
    and emit boundaries, and every one of them is a place where two
    simulations can interfere.  Bind tuples or frozensets at module
    level; keep mutable accumulators on instances.  Genuine registries
    (populated once by decorators at import time) live in the explicit
    allowlist, or — for observability modules — carry a reviewed
    ``# schedlint: disable=SL007`` with a word of justification.
    """

    code = "SL007"
    name = "module-mutable"
    summary = "module-level mutable container outside the allowlist"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_module(_MUTABLE_SCOPE):
            return
        if ctx.in_module(_MUTABLE_EXEMPT_SCOPE):
            return
        imports = _import_map(ctx.tree)

        def is_mutable(value: Optional[ast.AST]) -> bool:
            if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                                  ast.SetComp, ast.DictComp)):
                return True
            if isinstance(value, ast.Call):
                qualified = _qualified_name(value.func, imports)
                if (qualified is not None
                        and qualified.split(".")[-1] in _MUTABLE_CTORS):
                    return True
            return False

        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets, value = [stmt.target], stmt.value
            else:
                continue
            if not is_mutable(value):
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if target.id.startswith("__"):   # __all__ and friends
                    continue
                if (ctx.module, target.id) in _MUTABLE_ALLOWLIST:
                    continue
                yield ctx.finding(
                    stmt, self.code,
                    "module-level mutable container %r; bind a tuple/"
                    "frozenset, keep the accumulator on an instance, or "
                    "register the name in the SL007 allowlist"
                    % target.id)
