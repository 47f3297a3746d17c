"""The record-shape catalogue: declared once, documented, and honoured.

Every emit site passes a :class:`~repro.obs.events.Shape` from
``repro.obs.events`` and its values positionally.  These tests pin the
catalogue against docs/OBSERVABILITY.md's event table, field for field
and in order, and check every emit site in ``src/`` passes exactly its
shape's field count (a deferred binlog reads each record's values back
off one flat list by that count).
"""

import ast
import re
from pathlib import Path

from repro.obs import events as ev

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC = REPO_ROOT / "docs" / "OBSERVABILITY.md"
SRC = REPO_ROOT / "src" / "repro"

#: a table row's leading field list: `a`, `b`, ... (anything after it,
#: such as "(timestamp = slice end)", is commentary)
_FIELDS = re.compile(r"`(\w+)`(?:, `\w+`)*")


def catalogue_rows():
    """``(kind, fields)`` for each row of the doc's event table."""
    section = DOC.read_text().split("### Event catalogue", 1)[1]
    rows = []
    for line in section.split("\n\n", 2)[1].splitlines()[2:]:
        kind, __, fields = [cell.strip() for cell in line.strip("|").split("|")]
        listed = _FIELDS.match(fields)
        rows.append((kind.strip("`"),
                     tuple(re.findall(r"`(\w+)`", listed.group(0)))))
    return rows


def module_shapes():
    return {name: value for name, value in vars(ev).items()
            if isinstance(value, ev.Shape)}


def test_every_shape_matches_its_catalogue_row():
    rows = catalogue_rows()
    for shape in ev.SHAPES:
        assert (shape.kind, shape.fields) in rows, shape
    # and every row but faultlab's open-ended one is a declared shape
    declared = {(shape.kind, shape.fields) for shape in ev.SHAPES}
    assert [row for row in rows if row not in declared] == [
        (ev.FAULT_INJECT, ("fault",))]


def test_every_shape_is_listed_once():
    shapes = module_shapes()
    assert set(shapes.values()) == set(ev.SHAPES)
    assert len(ev.SHAPES) == len(set(ev.SHAPES))
    for shape in ev.SHAPES:
        assert shape.kind in ev.KINDS
        assert len(set(shape.fields)) == len(shape.fields)
    assert len({(shape.kind, shape.fields) for shape in ev.SHAPES}) \
        == len(ev.SHAPES)


def _emit_calls():
    """Every ``<bus>.emit(...)`` call under src/: (path, call node)."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "emit"
                    and ast.unparse(node.func.value).lower().endswith("bus")):
                yield path.relative_to(SRC), node


def test_every_emit_site_passes_its_shape_field_count():
    shapes = module_shapes()
    sites = 0
    for path, call in _emit_calls():
        where = "%s:%d" % (path, call.lineno)
        assert not call.keywords, "keyword emit at " + where
        first = call.args[0]
        if isinstance(first, ast.Name) and first.id == "shape":
            # faultlab's per-call fault-inject shape
            assert str(path) == "faultlab/faults.py", where
        else:
            assert isinstance(first, ast.Attribute), where
            shape = shapes[first.attr]
            values = call.args[2:]
            assert not any(isinstance(arg, ast.Starred) for arg in values)
            assert len(values) == len(shape.fields), where
        sites += 1
    assert sites == 28
