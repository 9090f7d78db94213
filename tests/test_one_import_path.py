"""Every library name has one import path and every exception one home:
under src/homcyc only the package finds names on lookup (a module-level
`__getattr__`), no other module imports, by a relative import, a name
it never uses (and so re-exports it), and every exception class is
defined in `errors`, but the record machinery's `FrozenInstanceError`,
an `AttributeError`."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "homcyc"
MODULES = sorted(SRC.glob("*.py"))
# (module, class) pairs of exceptions that live outside errors.py
ELSEWHERE = {("records", "FrozenInstanceError")}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_package_finds_names_on_lookup(path):
    found = [node.lineno for node in _tree(path).body
             if isinstance(node, ast.FunctionDef)
             and node.name == "__getattr__"]
    assert path.name == "__init__.py" or not found, \
        f"module __getattr__ in {path.name} at line {found}"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"],
    ids=lambda p: p.name)
def test_no_relative_import_goes_unused(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{alias.asname or alias.name} at line {node.lineno}"
              for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level
              for alias in node.names
              if (alias.asname or alias.name) not in used]
    assert not unused, f"unused relative imports in {path.name}: {unused}"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "errors.py"],
    ids=lambda p: p.name)
def test_every_exception_is_defined_in_errors(path):
    module = importlib.import_module(f"homcyc.{path.stem}"
                                     if path.stem != "__init__" else "homcyc")
    found = [node.name for node in _tree(path).body
             if isinstance(node, ast.ClassDef)
             and issubclass(getattr(module, node.name), BaseException)
             and (path.stem, node.name) not in ELSEWHERE]
    assert not found, f"exception classes in {path.name}: {found}"
