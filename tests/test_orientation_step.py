"""An orientation becomes a degree step in one place: `complexes._STEP`,
the degree a differential lands in minus the degree it leaves.  No module
under src/homcyc may compare an orientation with a string, by `==`,
`!=`, `in` or a `match` case, nor hold a second table keyed by the
orientations' names, so every complex, chain complex or bicomplex, reads
its direction from that table.
"""

import ast
from pathlib import Path

import pytest

from homcyc.complexes import _STEP

SRC = Path(__file__).resolve().parent.parent / "src" / "homcyc"
ORIENTATIONS = {"homological", "cohomological"}


def _strings(node) -> list[str]:
    """The string constants node is, or holds as a tuple, list or set."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return [s for elt in node.elts for s in _strings(elt)]
    return []


def _is_orientation(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "orientation" or \
        isinstance(node, ast.Attribute) and node.attr == "orientation"


def orientation_comparisons(source: str) -> list[int]:
    """The lines that compare an orientation with a string: a comparison
    with an operand named `orientation` and a string operand, or with
    an orientation's name as an operand, or a `match` case on one."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            strings = {s for o in operands for s in _strings(o)}
            if strings and (ORIENTATIONS & strings
                            or any(map(_is_orientation, operands))):
                out.append(node.lineno)
        elif isinstance(node, ast.MatchValue) and \
                ORIENTATIONS & set(_strings(node.value)):
            out.append(node.lineno)
    return sorted(out)


def orientation_tables(source: str) -> list[tuple[int, str | None]]:
    """(line, assigned name) of every dict literal keyed by an
    orientation's name; the name is None unless the dict is the whole
    value of a one-name assignment."""
    nodes = list(ast.walk(ast.parse(source)))
    assigned = {id(node.value): node.targets[0].id for node in nodes
                if isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)}
    return sorted((node.lineno, assigned.get(id(node))) for node in nodes
                  if isinstance(node, ast.Dict) and ORIENTATIONS & {
                      s for key in node.keys if key for s in _strings(key)})


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_compares_an_orientation_with_a_string(path):
    found = orientation_comparisons(path.read_text())
    assert not found, f"{path.name} compares an orientation at {found}"


def test_step_is_the_one_orientation_table():
    assert _STEP == {"homological": -1, "cohomological": 1}
    tables = {path.name: orientation_tables(path.read_text())
              for path in sorted(SRC.glob("*.py"))}
    assert {name: [n for _, n in found]
            for name, found in tables.items() if found} == \
        {"complexes.py": ["_STEP"]}


@pytest.mark.parametrize("source", [
    'if C.orientation == "homological":\n    pass',
    'step = -1 if orientation == "homological" else 1',
    'x = "cohomological" != self.orientation',
    'ok = B.orientation in ("homological", "cohomological")',
    'o = C.orientation\nflip = o == "cohomological"',
    'match C.orientation:\n    case "homological":\n        pass',
])
def test_the_scan_finds_comparisons(source):
    assert orientation_comparisons(source)


@pytest.mark.parametrize("source", [
    'C = ChainComplex(dims, diffs, orientation="cohomological")',
    'step = _STEP[C.orientation]',
    'Orientation = str  # "homological" or "cohomological"',
    'same = B.orientation == C.orientation',
    '"""Homological: d_n maps C_n to C_{n-1}."""',
])
def test_the_scan_passes_other_code(source):
    assert not orientation_comparisons(source)


def test_the_table_scan_names_each_table():
    source = ('_STEP = {"homological": -1, "cohomological": 1}\n'
              'sign = {"homological": 1}[C.orientation]\n')
    assert orientation_tables(source) == [(1, "_STEP"), (2, None)]
