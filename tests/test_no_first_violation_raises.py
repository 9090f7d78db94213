"""Every refusal that names the first failing basis tuple goes through
`algebra.refuse`: outside it, no `raise` under src/homcyc builds its
exception from element 0 of a sequence."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "homcyc"


def _reads_element_0(node):
    return any(isinstance(sub, ast.Subscript)
               and isinstance(sub.slice, ast.Constant)
               and sub.slice.value == 0 for sub in ast.walk(node))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_raise_names_element_0(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    helper = {id(node) for fn in ast.walk(tree)
              if path.name == "algebra.py" and isinstance(fn, ast.FunctionDef)
              and fn.name == "refuse" for node in ast.walk(fn)}
    found = [f"line {node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and id(node) not in helper
             and node.exc is not None and _reads_element_0(node.exc)]
    assert not found, f"first-violation raises in {path.name}: {found}"
