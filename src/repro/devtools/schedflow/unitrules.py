"""SF2xx: unit/dimension inference over the project.

Each function is abstractly interpreted on its CFG with an environment
mapping variables to :mod:`~repro.devtools.schedflow.unitlattice`
elements.  Seeds come from three places:

* the **signature table** below — the conversion helpers in
  ``repro/units.py`` and the tag constructors in ``repro/core/tags.py``
  (what the ISSUE calls the lattice's ground truth),
* **parameter/attribute naming conventions** that the codebase already
  enforces (``*_ns`` is integer nanoseconds, ``*_ips`` a rate,
  ``weight`` a share weight, ``work`` instructions),
* **interprocedural return summaries** computed to a fixed point, so a
  helper that returns ``work_from_time(...)`` types as instructions at
  every call site.

Rules:

* **SF201** — ``+``/``-``/``%`` or an ordering comparison between two
  *concretely known, different* units (seconds + instructions).
* **SF202** — ``==``/``!=`` between a virtual-time tag and a float
  literal: exact-mode tags are rationals (``int`` or ``Fraction``) and
  the float path is approximate, so raw float equality is never
  meaningful.
* **SF203** — argument with a concretely known unit passed to a
  signature slot declared with a different unit.
* **SF204** — direct ``.weight = ...`` store outside ``core/node.py``
  (and outside ``__init__``): ``set_weight`` is the sanctioned mutator,
  and SCHEDSAN's ``dormant-weight-warp`` invariant is its runtime twin.
* **SF205** — the magic literals ``1_000_000_000`` / ``1_000_000`` used
  as arithmetic operands instead of ``units.SECOND`` / ``units.MILLISECOND``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.devtools.schedlint import Finding
from repro.devtools.schedflow.cfg import build_cfg
from repro.devtools.schedflow.dataflow import solve_forward
from repro.devtools.schedflow import unitlattice as U
from repro.devtools.schedflow.project import FunctionInfo, ProjectIndex

__all__ = ["UnitsPass", "SIGNATURES"]

Unit = U.Unit

#: qname-keyed (param units, return unit); ``None`` leaves a slot free.
SIGNATURES: Dict[str, Tuple[Tuple[Optional[Unit], ...], Unit]] = {
    "repro/units.py::ns_from_us": ((U.TIME,), U.TIME),
    "repro/units.py::ns_from_ms": ((U.TIME,), U.TIME),
    "repro/units.py::ns_from_s": ((U.TIME,), U.TIME),
    "repro/units.py::s_from_ns": ((U.TIME,), U.TIME),
    "repro/units.py::ms_from_ns": ((U.TIME,), U.TIME),
    "repro/units.py::work_from_time": ((U.TIME, U.RATE), U.INSTR),
    "repro/units.py::time_from_work": ((U.INSTR, U.RATE), U.TIME),
    "repro/core/tags.py::TagMath.zero": ((None,), U.VIRTUAL),
    "repro/core/tags.py::TagMath.ratio": ((None, U.INSTR, U.WEIGHT), U.VIRTUAL),
    "repro/core/tags.py::TagMath.advance":
        ((None, U.VIRTUAL, U.INSTR, U.WEIGHT), U.VIRTUAL),
    "repro/core/sfq.py::SfqQueue.virtual_time": ((None,), U.VIRTUAL),
    "repro/core/sfq.py::SfqQueue.start_tag": ((None, None), U.VIRTUAL),
    "repro/core/sfq.py::SfqQueue.finish_tag": ((None, None), U.VIRTUAL),
    "repro/core/sfq.py::SfqQueue.charge":
        ((None, None, U.INSTR, U.WEIGHT), None),
}

#: method names that type even when the receiver class is unresolved
_CALL_NAME_UNITS: Dict[str, Unit] = {
    "virtual_time": U.VIRTUAL,
    "start_tag": U.VIRTUAL,
    "finish_tag": U.VIRTUAL,
}

#: attribute reads with a conventional unit
_ATTR_UNITS: Dict[str, Unit] = {
    "capacity_ips": U.RATE,
    "weight": U.WEIGHT,
}

#: the literals SF205 bans as arithmetic operands, with the cure
_MAGIC_LITERALS: Dict[int, str] = {
    1_000_000_000: "units.SECOND",
    1_000_000: "units.MILLISECOND",
}

#: calls that preserve their (single) argument's unit
_UNIT_PRESERVING = {"int", "float", "abs", "round", "min", "max", "sum"}


def _name_unit(name: str) -> Unit:
    """Unit implied by a variable/parameter naming convention."""
    if name.endswith("_ns"):
        return U.TIME
    if name.endswith("_ips"):
        return U.RATE
    if name == "weight":
        return U.WEIGHT
    if name == "work":
        return U.INSTR
    return U.BOTTOM


class UnitsPass:
    """Run with :meth:`run`; yields SF201..SF205 findings."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self.returns: Dict[str, Unit] = {
            qname: U.BOTTOM for qname in index.functions}

    def run(self) -> Iterator[Finding]:
        """Iterate return units to a fixed point, then emit findings."""
        for _ in range(8):
            before = dict(self.returns)
            for info in self.index.functions.values():
                self._analyze(info, emit=None)
            if self.returns == before:
                break
        findings: List[Finding] = []
        for info in self.index.functions.values():
            self._analyze(info, emit=findings)
        return iter(findings)

    def _analyze(self, info: FunctionInfo,
                 emit: Optional[List[Finding]]) -> None:
        init: Dict[str, object] = {
            name: _name_unit(name) for name in info.params}
        walker = _UnitWalker(self, info, emit)
        cfg = build_cfg(info.node)
        solve_forward(cfg, init, walker.transfer,
                      join=lambda a, b: a.join(b), top=U.TOP)

    def signature_for(
            self, info: FunctionInfo,
    ) -> Tuple[Tuple[Optional[Unit], ...], Unit]:
        """``(declared param units, return unit)`` for a callee: the
        signature table first, then naming conventions plus the
        inferred return summary."""
        sig = SIGNATURES.get(info.qname)
        if sig is not None:
            return sig
        params = tuple(_name_unit(name) or None for name in info.params)
        declared = tuple(p if p is not U.BOTTOM else None for p in params)
        return (declared, self.returns.get(info.qname, U.BOTTOM))


class _UnitWalker:
    def __init__(self, owner: UnitsPass, info: FunctionInfo,
                 emit: Optional[List[Finding]]) -> None:
        self.owner = owner
        self.info = info
        self.emit = emit

    def _report(self, node: ast.AST, code: str, message: str) -> None:
        if self.emit is None:
            return
        line = getattr(node, "lineno", 1)
        self.emit.append(Finding(
            self.info.entry.path, line, getattr(node, "col_offset", 0),
            code, message,
            end_line=getattr(node, "end_lineno", None) or line))

    # --- expression evaluation -------------------------------------------

    def unit_of(self, node: Optional[ast.AST], env: Dict[str, object]) -> Unit:
        if node is None:
            return U.BOTTOM
        if isinstance(node, ast.Constant):
            return U.BOTTOM
        if isinstance(node, ast.Name):
            val = env.get(node.id, U.BOTTOM)
            return val if isinstance(val, Unit) else U.BOTTOM
        if isinstance(node, ast.Attribute):
            self.unit_of(node.value, env)
            return _ATTR_UNITS.get(node.attr, U.BOTTOM)
        if isinstance(node, ast.BinOp):
            return self._binop(node, env)
        if isinstance(node, ast.UnaryOp):
            return self.unit_of(node.operand, env)
        if isinstance(node, ast.Compare):
            return self._compare(node, env)
        if isinstance(node, ast.Call):
            return self._call(node, env)
        if isinstance(node, ast.IfExp):
            self.unit_of(node.test, env)
            return self.unit_of(node.body, env).join(
                self.unit_of(node.orelse, env))
        if isinstance(node, ast.BoolOp):
            out = U.BOTTOM
            for value in node.values:
                out = out.join(self.unit_of(value, env))
            return out
        if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            # the collection has the unit of its elements, which is what
            # sum(child.weight for child in ...) needs to type correctly
            for comp in node.generators:
                self.unit_of(comp.iter, env)
            return self.unit_of(node.elt, env)
        if isinstance(node, ast.Subscript):
            self.unit_of(node.value, env)
            return U.BOTTOM
        # visit children for nested findings; result is unconstrained
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.unit_of(child, env)
        return U.BOTTOM

    def _magic_literal(self, operand: ast.AST) -> None:
        if (isinstance(operand, ast.Constant)
                and type(operand.value) is int
                and operand.value in _MAGIC_LITERALS
                and self.info.entry.module != "repro/units.py"
                and self.info.entry.in_module("repro/")):
            self._report(operand, "SF205",
                         "magic literal %d; use repro.%s so the conversion "
                         "carries its unit" % (operand.value,
                                               _MAGIC_LITERALS[operand.value]))

    def _binop(self, node: ast.BinOp, env: Dict[str, object]) -> Unit:
        left = self.unit_of(node.left, env)
        right = self.unit_of(node.right, env)
        self._magic_literal(node.left)
        self._magic_literal(node.right)
        if isinstance(node.op, ast.Mult):
            return left.mul(right)
        if isinstance(node.op, (ast.Div, ast.FloorDiv)):
            return left.div(right)
        if isinstance(node.op, (ast.Add, ast.Sub, ast.Mod)):
            combined = left.additive(right)
            if combined is None:
                self._report(node, "SF201",
                             "mixed-unit arithmetic: %r %s %r" % (
                                 left, type(node.op).__name__.lower(), right))
                return U.TOP
            return combined
        return U.TOP if (left.concrete or right.concrete) else U.BOTTOM

    def _compare(self, node: ast.Compare, env: Dict[str, object]) -> Unit:
        operands = [node.left] + list(node.comparators)
        units = [self.unit_of(operand, env) for operand in operands]
        for i, op in enumerate(node.ops):
            left, right = units[i], units[i + 1]
            if isinstance(op, (ast.Eq, ast.NotEq)):
                for tag_side, float_side in ((left, operands[i + 1]),
                                             (right, operands[i])):
                    if (tag_side == U.VIRTUAL
                            and isinstance(float_side, ast.Constant)
                            and type(float_side.value) is float):
                        self._report(node, "SF202",
                                     "==/!= between a virtual-time tag and a "
                                     "float literal; exact-mode tags are "
                                     "rationals — compare tags to tags")
                        break
            if isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE,
                               ast.Eq, ast.NotEq)):
                if left.additive(right) is None:
                    self._report(node, "SF201",
                                 "comparison between different units: "
                                 "%r vs %r" % (left, right))
        return U.BOTTOM

    def _call(self, call: ast.Call, env: Dict[str, object]) -> Unit:
        arg_units = [self.unit_of(arg, env) for arg in call.args]
        for keyword in call.keywords:
            self.unit_of(keyword.value, env)
        func = call.func

        callee = self.owner.index.resolve_call(
            call, self.info.entry, self.info.class_name)
        if callee is not None:
            declared, ret = self.owner.signature_for(callee)
            offset = 1 if (callee.is_method
                           and isinstance(func, ast.Attribute)) else 0
            for position, unit in enumerate(arg_units[:len(call.args)]):
                slot = position + offset
                if slot >= len(declared):
                    break
                want = declared[slot]
                if (want is not None and want.concrete and unit.concrete
                        and unit != want):
                    self._report(
                        call.args[position], "SF203",
                        "argument %d of %s() expects %r, got %r" % (
                            position + 1, callee.name, want, unit))
            return ret if isinstance(ret, Unit) else U.BOTTOM

        if isinstance(func, ast.Attribute) and func.attr in _CALL_NAME_UNITS:
            return _CALL_NAME_UNITS[func.attr]
        if isinstance(func, ast.Name) and func.id in _UNIT_PRESERVING:
            out = U.BOTTOM
            for unit in arg_units:
                out = out.join(unit)
            return out
        return U.BOTTOM

    # --- statement transfer ----------------------------------------------

    def transfer(self, stmt: ast.stmt, fact: Dict[str, object]) -> Dict[str, object]:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = getattr(stmt, "value", None)
            unit = self.unit_of(value, fact) if value is not None else U.BOTTOM
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            for target in targets:
                self._assign_target(stmt, target, unit, fact)
        elif isinstance(stmt, ast.Return):
            unit = self.unit_of(stmt.value, fact)
            qname = self.info.qname
            self.owner.returns[qname] = self.owner.returns[qname].join(unit)
        elif isinstance(stmt, ast.For):
            self.unit_of(stmt.iter, fact)
            if isinstance(stmt.target, ast.Name):
                fact[stmt.target.id] = U.BOTTOM
        elif isinstance(stmt, (ast.If, ast.While)):
            self.unit_of(stmt.test, fact)
        elif isinstance(stmt, (ast.Expr, ast.Assert, ast.Raise)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.unit_of(child, fact)
        return fact

    def _assign_target(self, stmt: ast.stmt, target: ast.AST, unit: Unit,
                       fact: Dict[str, object]) -> None:
        if isinstance(target, ast.Name):
            # a naming convention on the *target* also constrains the value
            declared = _name_unit(target.id)
            if (declared.concrete and unit.concrete and unit != declared):
                self._report(stmt, "SF201",
                             "variable %r is %r by convention but is "
                             "assigned %r" % (target.id, declared, unit))
            fact[target.id] = unit if unit.concrete else declared
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                if isinstance(element, ast.Name):
                    fact[element.id] = U.BOTTOM
        elif isinstance(target, ast.Attribute):
            if (target.attr == "weight"
                    and self.info.entry.module != "repro/core/node.py"
                    and self.info.entry.in_module("repro/")
                    and self.info.name not in ("__init__", "set_weight")):
                self._report(stmt, "SF204",
                             "direct .weight store bypasses set_weight(); "
                             "SCHEDSAN's dormant-weight-warp invariant can "
                             "only see sanctioned mutations")
