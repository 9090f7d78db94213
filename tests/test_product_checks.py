"""Every identity between products goes through `linalg.vanishes`: no
module under src/homcyc other than `linalg` may test a product with
`.is_zero()` or compare a product with `==` or `!=`.  That builds each
product as a canonical `Matrix` only to throw it away; `vanishes` sums
the integer rows of the products and builds nothing.

A product is a `@` expression, a sum, difference or negation of
products, or a name the module binds to one (`lhs = a @ b`, then
`lhs != rhs`).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "homcyc"


def _is_product(node, names):
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.MatMult):
            return True
        if isinstance(node.op, (ast.Add, ast.Sub)):
            return _is_product(node.left, names) or \
                _is_product(node.right, names)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _is_product(node.operand, names)
    return isinstance(node, ast.Name) and node.id in names


def _product_names(tree):
    """Names bound to a product anywhere in the module, to a fixed point
    (`acc = acc + a @ b` keeps `acc` a product)."""
    names: set[str] = set()
    while True:
        found = {t.id for node in ast.walk(tree)
                 if isinstance(node, ast.Assign)
                 and _is_product(node.value, names)
                 for t in node.targets if isinstance(t, ast.Name)}
        if found <= names:
            return names
        names |= found


def product_checks(source: str) -> list[tuple[int, str]]:
    """(line, kind) of each product tested with `is_zero` or compared."""
    tree = ast.parse(source)
    names = _product_names(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and \
                any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops) \
                and any(_is_product(x, names)
                        for x in [node.left, *node.comparators]):
            out.append((node.lineno, "compared"))
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == "is_zero" and \
                _is_product(node.func.value, names):
            out.append((node.lineno, "is_zero"))
    return sorted(out)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "linalg.py"),
                         ids=lambda p: p.name)
def test_identities_between_products_use_vanishes(path):
    found = product_checks(path.read_text())
    assert not found, f"{path.name} checks products outside vanishes: {found}"


@pytest.mark.parametrize("source", [
    "ok = (a @ b).is_zero()",
    "ok = a @ b == c @ d",
    "ok = a @ b != c",
    "ok = (a @ b + c @ d).is_zero()",
    "ok = (-(a @ b)).is_zero()",
    "lhs = a @ b\nrhs = c @ d\nok = lhs != rhs",
    "acc = a @ b\nacc = acc + c @ d\nok = acc.is_zero()",
    "ok = all((m[n + 1] @ m[n]).is_zero() for n in r)",
])
def test_the_scan_finds_product_checks(source):
    assert product_checks(source)


@pytest.mark.parametrize("source", [
    "ok = vanishes((1, a, b), (-1, c, d))",
    "ok = a == b",
    "ok = a.is_zero()",
    "c = a @ b\nok = c.rows == 2",
    "ok = (a @ b).rows != 3",
])
def test_the_scan_passes_other_code(source):
    assert not product_checks(source)
