"""SF501–SF505: static coherence analysis of the Python↔C engine seam.

The compiled engine (``repro/core/_sfqc.c``) re-implements the SFQ hot
path against the same arena columns the pure-python functions in
``repro/core/sfq.py`` mutate.  The golden fixtures, which the suite
checks under both engines, catch divergence only on the scenarios they
run; this pass proves a class of divergences *statically* by joining
the C structural view (:mod:`repro.devtools.schedflow.cext`) against the
Python project index:

SF501 ``cview-layout-mismatch``
    The C ``CV_*``/``ST_*``/``CH_*`` enums must agree — member for
    member, value for value — with the Python index constants
    (``_CV_*``, ``_VT``…, ``_CH_*``), and the literal ``_cview`` /
    ``_state`` / chain-tuple layouts must match the C ``*_LEN``
    sentinels.

SF502 ``pure-only-mutation``
    Every arena-column mutation a pure hot function performs must have a
    compiled-path counterpart in its C twin's call closure — a write the
    C engine skips is exactly the drift that breaks byte-identity.

SF503 ``turbo-bailout-gap``
    A C turbo entry point that can bail out to a Python method which
    checks an observability gate (``BUS.active``, a machine's
    ``self._bus.active``, ``self.tracer``) must re-check that same gate
    itself, or traced runs silently take the fast path.

SF504 ``capi-hygiene``
    Early-error ``return``/``goto`` paths must not leak owned
    references, results of allocating calls must be NULL-checked before
    first use, and borrowed references must not escape into reference-
    stealing sinks (moves within the same container are the one
    sanctioned idiom).

SF505 ``format-mismatch``
    ``PyArg_ParseTuple*`` / ``Py_BuildValue`` format units must agree in
    arity and C type with the variables they bind.

Suppressions in C files use comment form
(``/* seamcheck: disable=SF504 -- why */``; ``schedflow:`` also
accepted) on the flagged line or alone on the line above.  Findings that
land in Python files go through the standard schedflow suppression
machinery.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.devtools.schedlint import Finding, LintError
from repro.devtools.schedflow import cext
from repro.devtools.schedflow.project import FunctionInfo, ProjectIndex

__all__ = ["SeamPass"]

#: C parameter/local names that directly denote an arena column
_COLUMN_NAMES = {
    "start_col": "start", "fin_col": "fin", "run_col": "run",
    "ver_col": "ver", "seq_col": "seq", "ent_col": "ent",
    "state": "state", "heap": "heap",
}

#: enum-member suffix -> normalized container key (CV_START, CH_START...)
_SUFFIX_KEYS = {
    "START": "start", "FIN": "fin", "RUN": "run", "VER": "ver",
    "SEQ": "seq", "ENT": "ent", "ENTITY": None, "STATE": "state",
    "HEAP": "heap",
}

#: Python ``state[...]`` index constants -> sub-key
_STATE_INDEX = {"_VT": "vt", "_MF": "mf", "_SRV": "srv", "_RC": "rc"}

#: C ``col_store(state, ST_X, ...)`` index members -> sub-key
_C_STATE_INDEX = {"ST_VT": "vt", "ST_MF": "mf", "ST_SRV": "srv",
                  "ST_RC": "rc"}

#: arena attribute names (``arena.start[slot] = ...``)
_ARENA_ATTRS = {"start", "fin", "run", "ver", "seq", "ent"}

#: enum prefix -> Python attribute whose list-literal length must match
#: the ``<prefix>_LEN`` sentinel
_LAYOUT_ATTRS = {"CV": "_cview", "ST": "_state"}

#: enum prefix -> Python function whose appended tuple length must match
_LAYOUT_TUPLES = {"CH": "build_ancestor_chain"}

#: CPython calls returning a NEW reference (prefix match)
_NEW_REF_PREFIXES = (
    "PyObject_GetAttr", "PyObject_GetItem", "PyObject_Call",
    "PyObject_Str", "PyObject_Repr", "PyObject_Bytes", "PyObject_Dir",
    "PyNumber_", "PySequence_Tuple", "PySequence_List",
    "PySequence_GetSlice", "PySequence_Concat", "PySequence_Repeat",
    "PyLong_From", "PyFloat_From", "PyBool_FromLong", "PyUnicode_",
    "PyBytes_From", "PyDict_New", "PyDict_Copy", "PyDict_Items",
    "PyDict_Keys", "PyDict_Values", "PyList_New", "PyList_GetSlice",
    "PyList_AsTuple", "PyTuple_New", "PyTuple_Pack", "PyTuple_GetSlice",
    "PySet_New", "PyFrozenSet_New", "Py_BuildValue", "PyIter_Next",
    "PyImport_Import", "PyModule_Create",
)

#: CPython calls returning a BORROWED reference
_BORROWED_CALLS = frozenset((
    "PyList_GET_ITEM", "PyList_GetItem", "PyTuple_GET_ITEM",
    "PyTuple_GetItem", "PyDict_GetItem", "PyDict_GetItemWithError",
    "PyDict_GetItemString", "PySys_GetObject",
))

#: (callee, zero-based stolen-argument index) for the base C API
_BASE_STEALERS = {
    ("PyList_SetItem", 2), ("PyList_SET_ITEM", 2),
    ("PyTuple_SetItem", 2), ("PyTuple_SET_ITEM", 2),
    ("PyModule_AddObject", 2),
}

#: immortal singletons we never track
_SINGLETONS = frozenset(("Py_None", "Py_True", "Py_False", "NULL"))

#: ``PyArg_Parse*`` format unit -> acceptable destination C types
_FMT_PARSE: Dict[str, Tuple[str, ...]] = {
    "O": ("PyObject *",), "S": ("PyObject *",), "U": ("PyObject *",),
    "n": ("Py_ssize_t",), "i": ("int",), "I": ("unsigned int",),
    "h": ("short",), "H": ("unsigned short",), "l": ("long",),
    "k": ("unsigned long",), "L": ("long long", "PY_LONG_LONG"),
    "K": ("unsigned long long",), "d": ("double",), "f": ("float",),
    "s": ("char *",), "z": ("char *",), "y": ("char *",),
    "p": ("int",), "b": ("unsigned char",), "B": ("unsigned char",),
    "c": ("char",), "C": ("int",),
}

#: ``Py_BuildValue`` format unit -> acceptable source C types
_FMT_BUILD: Dict[str, Tuple[str, ...]] = {
    "O": ("PyObject *",), "S": ("PyObject *",), "N": ("PyObject *",),
    "n": ("Py_ssize_t",), "i": ("int",), "I": ("unsigned int",),
    "h": ("short",), "H": ("unsigned short",), "l": ("long",),
    "k": ("unsigned long",), "L": ("long long", "PY_LONG_LONG"),
    "K": ("unsigned long long",), "d": ("double",), "f": ("float",),
    "s": ("char *",), "z": ("char *",), "b": ("char",), "B": ("char",),
    "c": ("char",), "C": ("int",),
}

_PARSE_CALLS = frozenset(("PyArg_ParseTuple", "PyArg_ParseTupleAndKeywords",
                          "PyArg_Parse"))

#: units that consume a second trailing argument
_TWO_ARG_UNITS = frozenset(("O!", "O&", "s#", "z#", "y#", "u#", "es", "et"))


def _parse_format(fmt: str, build: bool) -> Optional[List[str]]:
    """Format string -> per-argument unit list (None: not analyzable)."""
    table = _FMT_BUILD if build else _FMT_PARSE
    units: List[str] = []
    index = 0
    while index < len(fmt):
        char = fmt[index]
        if char in ":;":
            break
        if char in "()[]{}|$, \t":
            index += 1
            continue
        unit = char
        if index + 1 < len(fmt) and fmt[index:index + 2] in _TWO_ARG_UNITS:
            unit = fmt[index:index + 2]
            index += 1
        if unit == "O!":
            units.extend(["*", "O"])  # (type object, PyObject *)
        elif unit == "O&":
            units.extend(["*", "*"])  # (converter, anything)
        elif unit in ("s#", "z#", "y#", "u#"):
            units.extend([unit[0], "n"])
        elif unit in ("es", "et"):
            return None
        elif unit in table:
            units.append(unit)
        else:
            return None  # unknown unit: skip the whole call
        index += 1
    return units


class _CFacts:
    """Per-C-function normalized mutation facts plus inferred summaries."""

    def __init__(self, cmod: cext.CModule) -> None:
        self.cmod = cmod
        self._mutations: Dict[str, Set[str]] = {}
        self.stealers: Dict[str, Set[int]] = {}
        self.null_tolerant: Dict[str, Set[int]] = {}
        self._infer_param_behaviour()

    # --- parameter behaviour inference -----------------------------------

    def _infer_param_behaviour(self) -> None:
        """Two rounds: which params are stolen / NULL-tolerated."""
        for name, fn in self.cmod.functions.items():
            tolerant: Set[int] = set()
            for position, (_ptype, pname) in enumerate(fn.params):
                for stmt in fn.statements:
                    texts = [t.text for t in stmt.tokens]
                    for at, text in enumerate(texts):
                        if text == pname and \
                                texts[at + 1:at + 3] == ["==", "NULL"]:
                            tolerant.add(position)
            if tolerant:
                self.null_tolerant[name] = tolerant
        stealers = dict(self.stealers)
        for _round in range(2):
            for name, fn in self.cmod.functions.items():
                increffed = {
                    call.arg_ids()[0]
                    for call in fn.calls
                    if call.name == "Py_INCREF" and call.args
                    and call.arg_ids()[0] is not None}
                stolen: Set[int] = stealers.get(name, set())
                for call in fn.calls:
                    for arg_at, arg_id in enumerate(call.arg_ids()):
                        if arg_id is None or arg_id in increffed:
                            continue
                        if self._steals(call.name, arg_at, stealers):
                            for position, (_t, pname) in enumerate(fn.params):
                                if pname == arg_id:
                                    stolen.add(position)
                if stolen:
                    stealers[name] = stolen
        self.stealers = stealers

    def _steals(self, callee: str, arg_at: int,
                table: Dict[str, Set[int]]) -> bool:
        if (callee, arg_at) in _BASE_STEALERS:
            return True
        return arg_at in table.get(callee, ())

    def steals(self, callee: str, arg_at: int) -> bool:
        """True when ``callee`` steals a reference at position ``arg_at``."""
        return self._steals(callee, arg_at, self.stealers)

    def tolerates_null(self, callee: str, arg_at: int) -> bool:
        """True when ``callee`` explicitly handles NULL at ``arg_at``."""
        return arg_at in self.null_tolerant.get(callee, ())

    # --- column provenance and mutation facts ----------------------------

    def _provenance(self, fn: cext.CFunction) -> Dict[str, str]:
        """Map local names to column keys via names and CV_/CH_ loads."""
        prov: Dict[str, str] = {}
        for name in fn.locals:
            if name in _COLUMN_NAMES:
                prov[name] = _COLUMN_NAMES[name]
        for stmt in fn.statements:
            tokens = stmt.tokens
            if len(tokens) < 3 or tokens[0].kind != "id":
                continue
            eq = 1
            if tokens[1].kind == "id" and tokens[1].text == tokens[0].text:
                continue
            target = tokens[0].text
            if tokens[eq].text != "=":
                continue  # `PyObject *x = ...` declarations: pass below
            for token in tokens[2:]:
                if token.kind != "id":
                    continue
                for prefix in ("CV_", "CH_"):
                    if token.text.startswith(prefix):
                        suffix = token.text[len(prefix):]
                        key = _SUFFIX_KEYS.get(suffix)
                        if key:
                            prov[target] = key
        # declarations with initializers: `PyObject *state = COL(..., CV_X)`
        for stmt in fn.statements:
            texts = [t.text for t in stmt.tokens]
            if "=" not in texts:
                continue
            eq = texts.index("=")
            if eq == 0 or stmt.tokens[eq - 1].kind != "id":
                continue
            target = stmt.tokens[eq - 1].text
            for text in texts[eq + 1:]:
                for prefix in ("CV_", "CH_"):
                    if text.startswith(prefix):
                        key = _SUFFIX_KEYS.get(text[len(prefix):])
                        if key:
                            prov[target] = key
        return prov

    def mutations(self, root: str) -> Set[str]:
        """Normalized mutation keys over ``root``'s call closure."""
        closure = self.call_closure(root)
        keys: Set[str] = set()
        for name in closure:
            keys |= self._function_mutations(name)
        return keys

    def call_closure(self, root: str) -> List[str]:
        """``root`` plus every same-file function it transitively calls."""
        seen: List[str] = []
        stack = [root]
        while stack:
            name = stack.pop()
            if name in seen or name not in self.cmod.functions:
                continue
            seen.append(name)
            for call in self.cmod.functions[name].calls:
                if call.name in self.cmod.functions:
                    stack.append(call.name)
        return seen

    def _function_mutations(self, name: str) -> Set[str]:
        cached = self._mutations.get(name)
        if cached is not None:
            return cached
        fn = self.cmod.functions[name]
        prov = self._provenance(fn)
        keys: Set[str] = set()
        for call in fn.calls:
            ids = call.arg_ids()
            first = ids[0] if ids else None
            container = prov.get(first) if first else None
            if call.name in ("col_store", "PyList_SetItem",
                             "PyList_SET_ITEM"):
                if container == "state" and len(ids) >= 2:
                    index_id = ids[1]
                    sub = _C_STATE_INDEX.get(index_id or "")
                    if sub:
                        keys.add("st:" + sub)
                elif container and container not in ("heap",):
                    keys.add("col:" + container)
            elif call.name in ("PyList_Append",):
                if container == "heap":
                    keys.add("heap:push")
            elif call.name in ("PyList_SetSlice", "PySequence_DelItem"):
                if container == "heap":
                    keys.add("heap:pop")
        self._mutations[name] = keys
        return keys

    # --- gate and bailout facts ------------------------------------------

    def tokens_of_closure(self, root: str) -> Iterator[cext.Token]:
        """Every body token across ``root``'s call closure."""
        for name in self.call_closure(root):
            for token in self.cmod.functions[name].body:
                yield token

    def gates_checked(self, root: str) -> Set[str]:
        """Which runtime gates the closure re-checks (active/bus/tracer).

        ``bus`` (a machine's ``_bus.active``) needs both attribute reads.
        """
        gates: Set[str] = set()
        reads_bus = False
        for token in self.tokens_of_closure(root):
            if token.kind == "id":
                literal = self.cmod.intern_strings.get(token.text)
                if literal == "active" or token.text == "str_active":
                    gates.add("active")
                if literal == "tracer" or token.text == "str_tracer":
                    gates.add("tracer")
                if literal == "_bus":
                    reads_bus = True
            elif token.kind == "str":
                if token.text == '"active"':
                    gates.add("active")
                elif token.text == '"tracer"':
                    gates.add("tracer")
        if reads_bus and "active" in gates:
            gates.add("bus")
        return gates

    def bailout_attrs(self, root: str) -> Set[str]:
        """Python attribute names the closure may call back into."""
        attrs: Set[str] = set()
        for name in self.call_closure(root):
            for call in self.cmod.functions[name].calls:
                for arg in call.args:
                    for token in arg:
                        if token.kind == "id":
                            literal = self.cmod.intern_strings.get(token.text)
                            if literal is not None:
                                attrs.add(literal)
        return attrs


class _PyFacts:
    """Python-side facts: constants, layouts, twins, mutations, gates."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        #: module-level integer constants: name -> (value, path, line)
        self.int_consts: Dict[str, Tuple[int, str, int]] = {}
        #: attribute -> every (list-literal length, path, line) site
        self.layout_lists: Dict[str, List[Tuple[int, str, int]]] = {}
        #: function name -> (max appended-tuple length, path, line)
        self.layout_tuples: Dict[str, Tuple[int, str, int]] = {}
        #: exported twin name -> FunctionInfo (defs and Class.method aliases)
        self.twins: Dict[str, FunctionInfo] = {}
        self._mutation_cache: Dict[str, Set[str]] = {}
        self._collect()

    def _collect(self) -> None:
        for entry in self.index.entries:
            for stmt in entry.tree.body:
                if not isinstance(stmt, ast.Assign):
                    continue
                if len(stmt.targets) != 1 or not isinstance(
                        stmt.targets[0], ast.Name):
                    continue
                name = stmt.targets[0].id
                value = stmt.value
                if isinstance(value, ast.Constant) and \
                        isinstance(value.value, int) and \
                        not isinstance(value.value, bool):
                    self.int_consts.setdefault(
                        name, (value.value, entry.path, stmt.lineno))
                elif (isinstance(value, ast.Attribute)
                      and isinstance(value.value, ast.Name)
                      and entry.module is not None):
                    info = self.index.methods.get(
                        (entry.module, value.value.id, value.attr))
                    if info is not None:
                        self.twins.setdefault(name, info)
            for node in ast.walk(entry.tree):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Attribute) and \
                            isinstance(node.value, ast.List):
                        self.layout_lists.setdefault(
                            target.attr, []).append(
                            (len(node.value.elts), entry.path, node.lineno))
        for (module, name), info in self.index.module_funcs.items():
            self.twins.setdefault(name, info)
            node = info.node
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr == "append"
                        and len(sub.args) == 1
                        and isinstance(sub.args[0], ast.Tuple)):
                    length = len(sub.args[0].elts)
                    current = self.layout_tuples.get(name)
                    if current is None or length > current[0]:
                        self.layout_tuples[name] = (
                            length, info.entry.path, sub.lineno)

    # --- python-side mutation facts --------------------------------------

    def mutations(self, info: FunctionInfo,
                  depth: int = 0) -> Dict[str, Tuple[int, str]]:
        """Column-mutation facts for ``info``'s body and callee closure.

        Returns key -> (line, path) of the *first* site establishing the
        fact, so SF502 findings anchor on real mutation lines.
        """
        facts: Dict[str, Tuple[int, str]] = {}
        self._walk_function(info, facts, set(), depth)
        return facts

    def _walk_function(self, info: FunctionInfo,
                       facts: Dict[str, Tuple[int, str]],
                       visited: Set[str], depth: int) -> None:
        if info.qname in visited or depth > 4:
            return
        visited.add(info.qname)
        prov = self._py_provenance(info.node)
        for node in ast.walk(info.node):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            for target in targets:
                key = self._subscript_key(target, prov)
                if key is not None:
                    facts.setdefault(key, (node.lineno, info.entry.path))
            if isinstance(node, ast.Call):
                callee = node.func
                if isinstance(callee, ast.Name):
                    if callee.id in ("heappush", "heap_push"):
                        facts.setdefault(
                            "heap:push", (node.lineno, info.entry.path))
                        continue
                    if callee.id in ("heappop", "heap_pop"):
                        facts.setdefault(
                            "heap:pop", (node.lineno, info.entry.path))
                        continue
                resolved = self._resolve(node, info)
                if resolved is not None:
                    self._walk_function(resolved, facts, visited, depth + 1)

    def _resolve(self, call: ast.Call,
                 info: FunctionInfo) -> Optional[FunctionInfo]:
        resolved = self.index.resolve_call(call, info.entry, info.class_name)
        if resolved is not None:
            return resolved
        func = call.func
        # `ClassName.method(...)` inside the defining module
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and info.entry.module is not None):
            return self.index.methods.get(
                (info.entry.module, func.value.id, func.attr))
        return None

    def _py_provenance(self, node: ast.AST) -> Dict[str, str]:
        """var -> column key from ``x = cview[_CV_START]``-style binds."""
        prov = dict(_COLUMN_NAMES)
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Assign) or len(sub.targets) != 1:
                continue
            target = sub.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = sub.value
            if isinstance(value, ast.Subscript):
                index_name = self._index_name(value)
                if index_name is not None:
                    for prefix in ("_CV_", "_CH_"):
                        if index_name.startswith(prefix):
                            key = _SUFFIX_KEYS.get(index_name[len(prefix):])
                            if key:
                                prov[target.id] = key
            elif isinstance(value, ast.Attribute):
                if value.attr == "_state":
                    prov[target.id] = "state"
                elif value.attr == "_heap":
                    prov[target.id] = "heap"
        return prov

    @staticmethod
    def _index_name(subscript: ast.Subscript) -> Optional[str]:
        index: ast.expr = subscript.slice
        if isinstance(index, ast.Index):  # pragma: no cover - py<3.9 form
            index = index.value  # type: ignore[attr-defined]
        if isinstance(index, ast.Name):
            return index.id
        return None

    def _subscript_key(self, target: ast.expr,
                       prov: Dict[str, str]) -> Optional[str]:
        if not isinstance(target, ast.Subscript):
            return None
        container = target.value
        key: Optional[str] = None
        if isinstance(container, ast.Name):
            key = prov.get(container.id)
        elif isinstance(container, ast.Attribute):
            if container.attr in _ARENA_ATTRS:
                key = container.attr
            elif container.attr == "_state":
                key = "state"
            elif container.attr == "_heap":
                key = "heap"
        if key is None:
            return None
        if key == "state":
            index_name = self._index_name(target)
            sub = _STATE_INDEX.get(index_name or "")
            return ("st:" + sub) if sub else None
        if key == "heap":
            return None  # raw heap-list stores are engine-internal
        return "col:" + key

    # --- gate facts -------------------------------------------------------

    def method_gates(self, attr: str) -> Set[str]:
        """Union of runtime gates every project method ``attr`` checks:
        ``active`` (``<...BUS>.active``), ``bus`` (``self._bus.active``)
        and ``tracer``."""
        gates: Set[str] = set()
        for info in self.index.methods_by_name.get(attr, []):
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Attribute):
                    continue
                owner = node.value
                if node.attr == "active":
                    if isinstance(owner, ast.Name) \
                            and "BUS" in owner.id.upper():
                        gates.add("active")
                    elif isinstance(owner, ast.Attribute) \
                            and owner.attr == "_bus":
                        gates.add("bus")
                elif node.attr == "tracer":
                    gates.add("tracer")
        return gates


class SeamPass:
    """Cross-language engine-coherence rules (SF501–SF505)."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index

    def run(self) -> Iterator[Finding]:
        """Analyze every indexed C file against the Python index."""
        centries = getattr(self.index, "centries", [])
        if not centries:
            return
        pyfacts = _PyFacts(self.index)
        for centry in centries:
            try:
                cmod = cext.extract(centry.source, centry.path)
            except cext.CParseError as exc:
                raise LintError(str(exc)) from exc
            cfacts = _CFacts(cmod)
            findings: List[Finding] = []
            findings.extend(self._sf501(cmod, pyfacts))
            findings.extend(self._sf502(cmod, cfacts, pyfacts))
            findings.extend(self._sf503(cmod, cfacts, pyfacts))
            findings.extend(self._sf504(cmod, cfacts))
            findings.extend(self._sf505(cmod))
            for finding in findings:
                if finding.path == centry.path and \
                        cmod.suppressed(finding.line, finding.code):
                    continue
                yield finding

    # --- SF501: layout agreement -----------------------------------------

    def _sf501(self, cmod: cext.CModule,
               pyfacts: _PyFacts) -> Iterator[Finding]:
        for enum in cmod.enums:
            members = [m for m in enum.members if not m.name.endswith("_LEN")]
            if len(members) < 2:
                continue
            schemes = (
                lambda name: "_" + name,                        # CV_X -> _CV_X
                lambda name: "_" + name.split("_", 1)[-1],      # ST_X -> _X
            )
            best_hits = -1
            best: Optional[List[Tuple[cext.CEnumMember,
                                      Optional[Tuple[int, str, int]]]]] = None
            for scheme in schemes:
                mapped = [(m, pyfacts.int_consts.get(scheme(m.name)))
                          for m in members]
                hits = sum(1 for _m, const in mapped if const is not None)
                if hits > best_hits:
                    best_hits = hits
                    best = mapped
            if best is None or best_hits < 2:
                continue  # not a seam table (no Python counterpart)
            for member, const in best:
                if const is None:
                    yield Finding(
                        cmod.path, member.line, 1, "SF501",
                        "enum member %s has no Python index constant "
                        "counterpart (renamed or removed on the Python "
                        "side?)" % member.name)
                elif member.value is not None and member.value != const[0]:
                    yield Finding(
                        cmod.path, member.line, 1, "SF501",
                        "enum member %s = %d disagrees with Python "
                        "constant at %s:%d (= %d); the engines index "
                        "different columns" % (
                            member.name, member.value, const[1],
                            const[2], const[0]))
            expected = len(members)
            prefix = members[0].name.split("_", 1)[0]
            for member in enum.members:
                if member.name.endswith("_LEN") and \
                        member.value is not None and \
                        member.value != expected:
                    yield Finding(
                        cmod.path, member.line, 1, "SF501",
                        "sentinel %s = %d but the enum has %d mapped "
                        "members" % (member.name, member.value, expected))
            # layout literals are only comparable in the module that
            # defines the matched index constants (other files may reuse
            # the attribute name for unrelated state)
            const_paths = {const[1] for _m, const in best
                           if const is not None}
            attr = _LAYOUT_ATTRS.get(prefix)
            if attr is not None:
                for length, path, line in \
                        pyfacts.layout_lists.get(attr, []):
                    if path in const_paths and length != expected:
                        yield Finding(
                            cmod.path, enum.line, 1, "SF501",
                            "C %s_* layout has %d members but the "
                            "Python %s literal at %s:%d has %d "
                            "elements" % (prefix, expected, attr, path,
                                          line, length))
            builder = _LAYOUT_TUPLES.get(prefix)
            if builder is not None and builder in pyfacts.layout_tuples:
                length, path, line = pyfacts.layout_tuples[builder]
                if length != expected:
                    yield Finding(
                        cmod.path, enum.line, 1, "SF501",
                        "C %s_* layout has %d members but the tuple "
                        "built by %s() at %s:%d has %d elements" % (
                            prefix, expected, builder, path, line, length))

    # --- SF502: pure-only mutations --------------------------------------

    def _sf502(self, cmod: cext.CModule, cfacts: _CFacts,
               pyfacts: _PyFacts) -> Iterator[Finding]:
        for exported, symbol, _line in cmod.method_table:
            info = pyfacts.twins.get(exported)
            if info is None:
                continue
            py_muts = pyfacts.mutations(info)
            if not py_muts:
                continue
            c_muts = cfacts.mutations(symbol)
            if not c_muts:
                continue  # opaque twin (pure trampoline): nothing to compare
            for key in sorted(py_muts):
                if key in c_muts:
                    continue
                line, path = py_muts[key]
                yield Finding(
                    path, line, 1, "SF502",
                    "pure-engine %s mutates %s but compiled twin %s() "
                    "in %s never writes it; the engines will diverge "
                    "on replay" % (
                        exported, _describe_key(key), symbol,
                        cmod.path))

    # --- SF503: turbo bailout completeness -------------------------------

    def _sf503(self, cmod: cext.CModule, cfacts: _CFacts,
               pyfacts: _PyFacts) -> Iterator[Finding]:
        for exported, symbol, _line in cmod.method_table:
            required: Set[str] = set()
            culprits: Dict[str, str] = {}
            for attr in sorted(cfacts.bailout_attrs(symbol)):
                for gate in pyfacts.method_gates(attr):
                    required.add(gate)
                    culprits.setdefault(gate, attr)
            if not required:
                continue
            have = cfacts.gates_checked(symbol)
            fn = cmod.functions.get(symbol)
            line = fn.line if fn is not None else 1
            for gate in sorted(required - have):
                yield Finding(
                    cmod.path, line, 1, "SF503",
                    "turbo entry %s() can bail out to Python method "
                    "%s() which checks the %r gate, but the C fast "
                    "path never re-checks it; gated runs would take "
                    "the turbo path" % (
                        symbol, culprits[gate],
                        {"active": "BUS.active",
                         "bus": "self._bus.active"}.get(gate, gate)))

    # --- SF504: C-API hygiene --------------------------------------------

    def _sf504(self, cmod: cext.CModule,
               cfacts: _CFacts) -> Iterator[Finding]:
        for fn in cmod.functions.values():
            for finding in _check_refcounts(cmod, cfacts, fn):
                yield finding

    # --- SF505: format strings -------------------------------------------

    def _sf505(self, cmod: cext.CModule) -> Iterator[Finding]:
        for fn in cmod.functions.values():
            for call in fn.calls:
                build = call.name == "Py_BuildValue"
                if not build and call.name not in _PARSE_CALLS:
                    continue
                fmt_at = next(
                    (at for at, arg in enumerate(call.args)
                     if len(arg) == 1 and arg[0].kind == "str"), None)
                if fmt_at is None:
                    continue
                fmt = call.args[fmt_at][0].text[1:-1]
                units = _parse_format(fmt, build)
                if units is None:
                    continue
                skip = 1 if call.name != "PyArg_ParseTupleAndKeywords" else 2
                values = call.args[fmt_at + skip:]
                if len(values) != len(units):
                    yield Finding(
                        cmod.path, call.line, 1, "SF505",
                        "%s format %r consumes %d argument%s but %d "
                        "are passed" % (
                            call.name, fmt, len(units),
                            "" if len(units) == 1 else "s", len(values)))
                    continue
                table = _FMT_BUILD if build else _FMT_PARSE
                for unit, arg in zip(units, values):
                    if unit == "*":
                        continue
                    var = _format_arg_var(arg, build)
                    if var is None:
                        continue
                    declared = fn.var_type(var)
                    if declared is None:
                        continue
                    accepted = table[unit]
                    if _normalize_type(declared) not in {
                            _normalize_type(a) for a in accepted}:
                        yield Finding(
                            cmod.path, call.line, 1, "SF505",
                            "%s unit %r expects %s but %r is declared "
                            "%s" % (call.name, unit,
                                    " or ".join(accepted), var, declared))


def _describe_key(key: str) -> str:
    """Human-readable description of a normalized mutation key."""
    kind, _sep, name = key.partition(":")
    if kind == "col":
        return "arena column %r" % name
    if kind == "st":
        return "state slot %r" % name.upper()
    if kind == "heap":
        return "the heap (%s)" % name
    return key


def _normalize_type(text: str) -> str:
    return " ".join(text.replace("*", " * ").split())


def _format_arg_var(arg: List[cext.Token], build: bool) -> Optional[str]:
    """The bound variable of one format argument, if identifiable."""
    if build:
        if len(arg) == 1 and arg[0].kind == "id":
            return arg[0].text
        return None
    if len(arg) == 2 and arg[0].text == "&" and arg[1].kind == "id":
        return arg[1].text
    return None


# --- SF504 reference tracking ------------------------------------------------

def _is_new_ref_call(name: str) -> bool:
    return any(name.startswith(prefix) for prefix in _NEW_REF_PREFIXES)


def _check_refcounts(cmod: cext.CModule, cfacts: _CFacts,
                     fn: cext.CFunction) -> Iterator[Finding]:
    """Linear, statement-ordered ownership check for one function.

    Flow-insensitive in the safe direction: any release a statement
    *could* perform counts, so conditionally-released references are
    missed (false negative) rather than wrongly reported.
    """
    tracked = {name for name, ctype in fn.locals.items()
               if "PyObject" in ctype and "*" in ctype}
    releases_from = _releases_from(cmod, cfacts, fn)
    owned: Dict[str, int] = {}
    borrowed: Dict[str, Optional[str]] = {}   # var -> source container id
    pending: Dict[str, int] = {}              # allocated, NULL not yet checked
    for at, stmt in enumerate(fn.statements):
        texts = [t.text for t in stmt.tokens]
        bind = _binding(stmt)
        # 1. NULL-check resolution for pending allocations
        for var in list(pending):
            if var not in texts:
                continue
            if bind is not None and bind[0] == var and \
                    var not in [t.text for t in bind[1]]:
                continue  # rebind, not a use: step 2 restarts tracking
            if _statement_null_checks(texts, var):
                del pending[var]
            elif _returns_var(texts, var):
                del pending[var]  # propagating NULL to the caller: idiom
            elif _first_use_is_tolerant(stmt, cfacts, var):
                del pending[var]
            else:
                yield Finding(
                    cmod.path, stmt.line, 1, "SF504",
                    "%r may be NULL here (allocating call at line %d "
                    "was never checked)" % (var, pending[var]))
                del pending[var]
        # 2. bindings
        if bind is not None:
            var, rhs = bind
            owned.pop(var, None)
            borrowed.pop(var, None)
            pending.pop(var, None)
            call = next((c for c in cext._iter_calls(rhs)), None)
            rhs_texts = [t.text for t in rhs]
            if call is not None and _is_new_ref_call(call.name):
                if var in tracked:
                    owned[var] = stmt.line
                if "NULL" not in texts or not _statement_null_checks(
                        texts, var):
                    pending[var] = stmt.line
                if _statement_null_checks(texts, var):
                    pending.pop(var, None)
            elif call is not None and (
                    call.name in _BORROWED_CALLS
                    or cmod.macro_expands_to(call.name, "PyList_GET_ITEM")
                    or cmod.macro_expands_to(call.name, "PyTuple_GET_ITEM")):
                container = call.arg_ids()[0] if call.args else None
                borrowed[var] = container
            elif len(rhs_texts) == 1 and rhs_texts[0] in borrowed:
                borrowed[var] = borrowed[rhs_texts[0]]
        # 3. incref / decref / stealing calls
        for call in cext._iter_calls(stmt.tokens):
            ids = call.arg_ids()
            if call.name == "Py_INCREF" and ids and ids[0]:
                var = ids[0]
                if var not in _SINGLETONS and var in tracked:
                    owned[var] = call.line
                borrowed.pop(var, None)
            elif call.name in ("Py_DECREF", "Py_XDECREF", "Py_CLEAR") \
                    and ids and ids[0]:
                owned.pop(ids[0], None)
            else:
                for arg_at, arg_id in enumerate(ids):
                    if arg_id is None:
                        continue
                    if not cfacts.steals(call.name, arg_at):
                        continue
                    if arg_id in owned:
                        del owned[arg_id]
                    elif arg_id in borrowed:
                        source = borrowed[arg_id]
                        dest = ids[0] if ids else None
                        if source is not None and source == dest:
                            continue  # move within the same container
                        yield Finding(
                            cmod.path, call.line, 1, "SF504",
                            "borrowed reference %r escapes into "
                            "reference-stealing %s() without an "
                            "intervening Py_INCREF" % (arg_id, call.name))
                        del borrowed[arg_id]
        # 4. returns transfer ownership
        if "return" in texts:
            ret_at = texts.index("return")
            if ret_at + 1 < len(texts) and texts[ret_at + 1] in owned:
                del owned[texts[ret_at + 1]]
        # 5. error exits
        exit_kind = _error_exit(texts)
        if exit_kind is not None:
            guarded = _guard_null_vars(fn.statements, at)
            live = {var: line for var, line in owned.items()
                    if var not in guarded}
            if exit_kind.startswith("goto:"):
                label = exit_kind[5:]
                target = fn.labels.get(label)
                if target is not None:
                    live = {var: line for var, line in live.items()
                            if var not in releases_from[target]}
            for var in sorted(live):
                yield Finding(
                    cmod.path, stmt.line, 1, "SF504",
                    "owned reference %r (acquired at line %d) leaks on "
                    "this error exit" % (var, live[var]))
                owned.pop(var, None)


def _binding(stmt: cext.CStatement) -> Optional[Tuple[str,
                                                      List[cext.Token]]]:
    """``var = <rhs>`` at statement top level (declarations included)."""
    texts = [t.text for t in stmt.tokens]
    if "=" not in texts:
        return None
    eq = texts.index("=")
    if eq == 0 or stmt.tokens[eq - 1].kind != "id":
        return None
    # reject compound assignment/comparison neighbours
    if eq + 1 < len(texts) and texts[eq + 1] == "=":
        return None
    if texts[eq - 1] in ("==", "!=", "<=", ">="):
        return None
    head = texts[0]
    if head in ("if", "while", "for", "return", "switch"):
        return None
    return stmt.tokens[eq - 1].text, list(stmt.tokens[eq + 1:])


def _returns_var(texts: List[str], var: str) -> bool:
    """``return var;`` — NULL propagation is the C-API error idiom."""
    for at, text in enumerate(texts):
        if text == "return" and texts[at + 1:at + 3] == [var, ";"]:
            return True
    return False


def _statement_null_checks(texts: List[str], var: str) -> bool:
    """Does this statement NULL-check ``var``?"""
    for at, text in enumerate(texts):
        if text != var:
            continue
        following = texts[at + 1:at + 3]
        preceding = texts[max(0, at - 1):at]
        if following[:1] in (["=="], ["!="]) and \
                following[1:2] == ["NULL"]:
            return True
        if following[:1] in (["?"], ["&&"], ["||"]):
            return True
        if preceding == ["!"]:
            return True
        if texts[0] in ("if", "while") and preceding == ["("] and \
                following[:1] == [")"]:
            return True
    return False


def _first_use_is_tolerant(stmt: cext.CStatement, cfacts: _CFacts,
                           var: str) -> bool:
    """Is every use of ``var`` in this statement a NULL-tolerant sink?"""
    used = False
    for call in cext._iter_calls(stmt.tokens):
        for arg_at, arg_id in enumerate(call.arg_ids()):
            if arg_id == var:
                used = True
                if not cfacts.tolerates_null(call.name, arg_at) and \
                        not cfacts.steals(call.name, arg_at):
                    return False
    return used


def _error_exit(texts: List[str]) -> Optional[str]:
    """Classify an error exit: ``return NULL``/negative, or ``goto L``."""
    for at, text in enumerate(texts):
        if text == "return":
            following = texts[at + 1:at + 4]
            if following[:1] == ["NULL"]:
                return "ret"
            if following[:2] in (["-", "1"],) or (
                    len(following) >= 2 and following[0] == "-"
                    and following[1].isdigit()):
                return "ret"
        elif text == "goto" and at + 1 < len(texts):
            return "goto:" + texts[at + 1]
    return None


def _guard_null_vars(statements: Sequence[cext.CStatement],
                     at: int) -> Set[str]:
    """Vars the governing ``if`` of statement ``at`` proved to be NULL."""
    stmt = statements[at]
    texts = [t.text for t in stmt.tokens]
    guard: Optional[List[str]] = None
    if texts and texts[0] == "if":
        guard = texts
    else:
        for back in range(at - 1, -1, -1):
            prior = statements[back]
            if prior.depth < stmt.depth:
                prior_texts = [t.text for t in prior.tokens]
                if prior_texts and prior_texts[0] == "if":
                    guard = prior_texts
                break
    if guard is None:
        return set()
    vars_null: Set[str] = set()
    for at_g, text in enumerate(guard):
        if text == "==" and at_g + 1 < len(guard) and \
                guard[at_g + 1] == "NULL" and at_g >= 1:
            vars_null.add(guard[at_g - 1])
        elif text == "!" and at_g + 1 < len(guard):
            vars_null.add(guard[at_g + 1])
    return vars_null


def _releases_from(cmod: cext.CModule, cfacts: _CFacts,
                   fn: cext.CFunction) -> List[Set[str]]:
    """For each statement index: vars released at or after that index.

    Resolves forward ``goto cleanup`` jumps — labels fall through, so a
    jump to label L benefits from every release below L.
    """
    per_stmt: List[Set[str]] = []
    for stmt in fn.statements:
        released: Set[str] = set()
        for call in cext._iter_calls(stmt.tokens):
            ids = call.arg_ids()
            if call.name in ("Py_DECREF", "Py_XDECREF", "Py_CLEAR") \
                    and ids and ids[0]:
                released.add(ids[0])
            else:
                for arg_at, arg_id in enumerate(ids):
                    if arg_id is not None and \
                            cfacts.steals(call.name, arg_at):
                        released.add(arg_id)
        per_stmt.append(released)
    suffix: List[Set[str]] = [set() for _ in fn.statements]
    acc: Set[str] = set()
    for index in range(len(fn.statements) - 1, -1, -1):
        acc = acc | per_stmt[index]
        suffix[index] = acc
    return suffix
