"""Every chain-level identity is checked, with no way to switch a check
off: no function under src/homcyc takes a parameter whose name starts
with `check`."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "homcyc"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_check_parameters(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{node.name}({arg.arg}) at line {node.lineno}"
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for arg in [*node.args.posonlyargs, *node.args.args,
                         *node.args.kwonlyargs]
             if arg.arg.startswith("check")]
    assert not found, f"check switches in {path.name}: {found}"
