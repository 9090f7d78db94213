"""The integer row format of a Matrix is private to `linalg`: no other
module under src/homcyc may name its attributes or its helpers, so the
format can change in one place."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "homcyc"

PRIVATE = {"_int_rows", "_int_cols", "_integer_terms", "_lowest", "_product",
           "_dn", "_norms", "_packs", "_packing", "_row_sums", "_sums",
           "_packable", "_add_rows", "_factors"}


def _names(tree):
    """Every identifier the module names: variables, attributes, imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias):
            yield node.lineno, node.name.split(".")[-1]
            if node.asname:
                yield node.lineno, node.asname
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # getattr(m, "_int_rows") and m.__dict__["_int_rows"]
            yield node.lineno, node.value


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "linalg.py"),
                         ids=lambda p: p.name)
def test_row_format_stays_in_linalg(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = sorted((line, name) for line, name in _names(tree)
                   if name in PRIVATE)
    assert not found, f"{path.name} names linalg's row format: {found}"


# how a bimodule's actions become L and R, and how a dual bimodule's
# data are read as chain data, stay in `coefficients`: other modules ask
# `chain_data` for them
COEFFICIENT_PRIVATE = {"_actions", "_transposed"}


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "coefficients.py"),
                         ids=lambda p: p.name)
def test_dual_reading_stays_in_coefficients(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = sorted((line, name) for line, name in _names(tree)
                   if name in COEFFICIENT_PRIVATE)
    assert not found, f"{path.name} names coefficients' internals: {found}"
