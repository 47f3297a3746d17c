"""Whole-program index: files, functions, and the call graph.

The index parses every file once, records each function/method with a
stable qualified name (``repro/core/sfq.py::SfqQueue.charge``), and
resolves call sites with a deliberately modest heuristic stack:

1. an explicit dotted path through the import map
   (``from repro import units; units.work_from_time(...)``),
2. ``self.method(...)`` to a method of the enclosing class,
3. a bare name to a function in the same module,
4. a method name that is unique across every class in the project.

Unresolved calls stay unresolved — the passes treat them as opaque,
which keeps findings precise at the cost of missing flows through
dynamic dispatch.  For this codebase (no metaprogramming in the
simulator core) the heuristics resolve the calls that matter.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.devtools.schedlint import LintError, module_path_for
from repro.devtools.schedlint import _FIXTURE_MODULE_RE  # shared directive
from repro.devtools.schedlint.rules import _import_map, _qualified_name

__all__ = ["CFileEntry", "FileEntry", "FunctionInfo", "ProjectIndex",
           "collect_files"]


class FileEntry:
    """One parsed source file."""

    __slots__ = ("path", "source", "tree", "module", "imports")

    def __init__(self, path: str, source: str, tree: ast.Module,
                 module: Optional[str]) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.module = module
        self.imports = _import_map(tree)

    def in_module(self, *prefixes: str) -> bool:
        """True if the file's module path matches any prefix (a ``.py``
        prefix must match exactly)."""
        if self.module is None:
            return False
        for prefix in prefixes:
            if prefix.endswith(".py"):
                if self.module == prefix:
                    return True
            elif self.module.startswith(prefix):
                return True
        return False


class CFileEntry:
    """One C source file, carried for the SF5xx seam rules.

    C files are not AST-parsed here — the seam pass runs the
    :mod:`repro.devtools.schedflow.cext` extractor on demand — but they
    participate in project loading and baseline fingerprinting exactly
    like Python entries.
    """

    __slots__ = ("path", "source")

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.source = source


class FunctionInfo:
    """One function or method, with enough context to analyze it."""

    __slots__ = ("qname", "entry", "class_name", "name", "node", "params")

    def __init__(self, qname: str, entry: FileEntry,
                 class_name: Optional[str], name: str,
                 node: ast.AST) -> None:
        self.qname = qname
        self.entry = entry
        self.class_name = class_name
        self.name = name
        self.node = node
        args = node.args
        self.params: List[str] = [a.arg for a in args.args]

    @property
    def is_method(self) -> bool:
        """True when defined inside a class (``self`` is parameter 0)."""
        return self.class_name is not None

    def __repr__(self) -> str:
        return "FunctionInfo(%s)" % self.qname


def collect_files(paths: Iterable[str]) -> List[str]:
    """Expand files and directories (recursing for ``*.py``/``*.c``),
    sorted."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d not in ("__pycache__", ".git")
                    and not d.endswith(".egg-info"))
                for filename in sorted(filenames):
                    if filename.endswith((".py", ".c")):
                        files.append(os.path.join(dirpath, filename))
        else:
            files.append(path)
    return files


class ProjectIndex:
    """All files and functions under analysis, plus call resolution."""

    def __init__(self) -> None:
        self.entries: List[FileEntry] = []
        #: C sources for the SF5xx seam rules, in load order
        self.centries: List[CFileEntry] = []
        self.by_module: Dict[str, FileEntry] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: (module, bare name) -> module-level function
        self.module_funcs: Dict[Tuple[str, str], FunctionInfo] = {}
        #: (module, class, name) -> method
        self.methods: Dict[Tuple[str, str, str], FunctionInfo] = {}
        #: method name -> every method with that name, any class
        self.methods_by_name: Dict[str, List[FunctionInfo]] = {}

    # --- loading ----------------------------------------------------------

    @classmethod
    def load(cls, paths: Iterable[str]) -> "ProjectIndex":
        index = cls()
        for path in collect_files(paths):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    source = handle.read()
            except OSError as exc:
                raise LintError("%s: %s" % (path, exc)) from exc
            index.add_source(source, path)
        return index

    def add_source(self, source: str,
                   path: str) -> Union[FileEntry, CFileEntry]:
        """Parse and index one file (honours the fixture-module
        directive); raises :class:`LintError` on a syntax error.

        ``*.c`` paths are recorded as :class:`CFileEntry` (no AST) for
        the seam rules; everything else is parsed as Python.
        """
        if path.endswith(".c"):
            centry = CFileEntry(path, source)
            self.centries.append(centry)
            return centry
        directive = _FIXTURE_MODULE_RE.search(source)
        if directive is not None:
            module = directive.group(1)
        else:
            module = module_path_for(path)
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            raise LintError("%s: syntax error: %s" % (path, exc)) from exc
        entry = FileEntry(path, source, tree, module)
        self.entries.append(entry)
        if module is not None:
            self.by_module[module] = entry
        self._index_functions(entry)
        return entry

    def _index_functions(self, entry: FileEntry) -> None:
        anchor = entry.module or entry.path
        for stmt in entry.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(entry, anchor, None, stmt)
            elif isinstance(stmt, ast.ClassDef):
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._add_function(entry, anchor, stmt.name, sub)

    def _add_function(self, entry: FileEntry, anchor: str,
                      class_name: Optional[str], node: ast.AST) -> None:
        if class_name is None:
            qname = "%s::%s" % (anchor, node.name)
        else:
            qname = "%s::%s.%s" % (anchor, class_name, node.name)
        info = FunctionInfo(qname, entry, class_name, node.name, node)
        self.functions[qname] = info
        if entry.module is not None:
            if class_name is None:
                self.module_funcs[(entry.module, node.name)] = info
            else:
                self.methods[(entry.module, class_name, node.name)] = info
        if class_name is not None:
            self.methods_by_name.setdefault(node.name, []).append(info)

    # --- call resolution --------------------------------------------------

    def dotted(self, node: ast.AST, entry: FileEntry) -> Optional[str]:
        """The import-resolved dotted path of a call target, if any."""
        return _qualified_name(node, entry.imports)

    def resolve_call(self, call: ast.Call, entry: FileEntry,
                     class_name: Optional[str]) -> Optional[FunctionInfo]:
        """Resolve a call site to a project function via the heuristic
        stack in the module docstring; ``None`` when ambiguous."""
        func = call.func
        # self.method(...) inside a class
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self" and class_name is not None
                and entry.module is not None):
            info = self.methods.get((entry.module, class_name, func.attr))
            if info is not None:
                return info
        # explicit dotted path through imports
        dotted = self.dotted(func, entry)
        if dotted is not None:
            info = self._find_by_dotted(dotted)
            if info is not None:
                return info
        # bare name in the same module
        if isinstance(func, ast.Name) and entry.module is not None:
            info = self.module_funcs.get((entry.module, func.id))
            if info is not None:
                return info
        # a method name unique across the whole project
        if isinstance(func, ast.Attribute):
            candidates = self.methods_by_name.get(func.attr, [])
            if len(candidates) == 1:
                return candidates[0]
        return None

    def resolve_ref(self, node: ast.AST, entry: FileEntry,
                    class_name: Optional[str]) -> Optional[FunctionInfo]:
        """Resolve a callable *reference* (a name passed around, not a
        call site) with the same heuristic stack as :meth:`resolve_call`.

        Additionally resolves a dotted *class* path to its ``__call__``
        method, so callable instances (event-bus subscribers, pool
        payload objects) land on the code that actually runs.
        """
        if isinstance(node, ast.Name) and entry.module is not None:
            info = self.module_funcs.get((entry.module, node.id))
            if info is not None:
                return info
        dotted = self.dotted(node, entry)
        if dotted is not None:
            info = self.resolve_ref_dotted(dotted)
            if info is not None:
                return info
        if isinstance(node, ast.Attribute):
            if (isinstance(node.value, ast.Name) and node.value.id == "self"
                    and class_name is not None and entry.module is not None):
                info = self.methods.get((entry.module, class_name, node.attr))
                if info is not None:
                    return info
            candidates = self.methods_by_name.get(node.attr, [])
            if len(candidates) == 1:
                return candidates[0]
        return None

    def resolve_ref_dotted(self, dotted: str) -> Optional[FunctionInfo]:
        """Resolve a dotted path to a function, method, or — when the
        path names a class — that class's ``__call__`` method."""
        info = self._find_by_dotted(dotted)
        if info is not None:
            return info
        return self._find_by_dotted(dotted + ".__call__")

    def _find_by_dotted(self, dotted: str) -> Optional[FunctionInfo]:
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module = "/".join(parts[:split]) + ".py"
            if module not in self.by_module:
                continue
            rest = parts[split:]
            if len(rest) == 1:
                return self.module_funcs.get((module, rest[0]))
            if len(rest) == 2:
                return self.methods.get((module, rest[0], rest[1]))
        return None
