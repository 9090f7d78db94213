"""d o d = 0 is an invariant of `ChainComplex`, checked once, when the
complex is built: no module under src/homcyc may name
`check_d_squared` anywhere but in `ChainComplex.__post_init__`, so no
builder, report or homology routine checks a complex again, and none
may name `_squared_zero`, the memo of degrees already found zero that
re-checking needed.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "homcyc"
OWNER = ("ChainComplex", "__post_init__")


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def name_uses(source: str, names: tuple[str, ...]
              ) -> list[tuple[int, str, tuple[str, ...]]]:
    """(line, name, enclosing class/function names) of every reference
    to one of `names`: a name, an attribute or a string equal to it."""
    out = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope + (child.name,) if isinstance(
                child, (ast.ClassDef, ast.FunctionDef,
                        ast.AsyncFunctionDef)) else scope
            if _name(child) in names:
                out.append((child.lineno, _name(child), inner))
            walk(child, inner)

    walk(ast.parse(source), ())
    return sorted(out)


def d_squared_uses(source: str) -> list[tuple[int, str, tuple[str, ...]]]:
    """The uses of `check_d_squared` or `_squared_zero`."""
    return name_uses(source, ("check_d_squared", "_squared_zero"))


def breaches(source: str, owner: tuple[str, ...] | None) -> list:
    """The uses that are not a `check_d_squared` reference in `owner`."""
    return [(line, name) for line, name, scope in d_squared_uses(source)
            if (name, scope) != ("check_d_squared", owner)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_construction_checks_d_squared(path):
    owner = OWNER if path.name == "complexes.py" else None
    found = breaches(path.read_text(), owner)
    assert not found, f"{path.name} checks d o d outside construction: {found}"


def test_construction_runs_the_check():
    uses = d_squared_uses((SRC / "complexes.py").read_text())
    assert [(name, scope) for _, name, scope in uses] == \
        [("check_d_squared", OWNER)]


@pytest.mark.parametrize("source", [
    "C = build()\nC.check_d_squared()",
    "def total_complex(B):\n    C.check_d_squared()",
    "class ChainComplex:\n    def rank(self):\n        self.check_d_squared()",
    "check = C.check_d_squared\ncheck()",
    "getattr(C, 'check_d_squared')()",
    "class ChainComplex:\n    _squared_zero: set = set()",
    "if n in C._squared_zero:\n    pass",
])
def test_the_scan_finds_other_checks(source):
    assert breaches(source, OWNER)


@pytest.mark.parametrize("source", [
    "class ChainComplex:\n    def __post_init__(self):\n"
    "        self.check_d_squared()",
    "class ChainComplex:\n    def check_d_squared(self):\n        pass",
    "B.check_squares()",
    '"""Construction runs `check_d_squared`."""',
])
def test_the_scan_passes_the_owner_and_other_code(source):
    assert not breaches(source, OWNER)
