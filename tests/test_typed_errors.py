"""The derived constructions refuse with `homcyc.errors` types.

Each refusal of `constructions` and of `algebra.find_unit` is a
`PreconditionError` where the
construction does not apply to a valid algebra, and an
`IdentityViolationError` where a result it asserts fails; both still
subclass `ValueError`.  Three of the latter cannot happen with correct
code: they are reached by patching what they check.
"""

import pytest

from homcyc import algebra, constructions, errors
from homcyc.algebra import find_unit, validate_or_raise
from homcyc.constructions import idempotent_twist_decompose, unitalize
from homcyc.corpus import k_times_k_swap_twist, two_dim_unital
from homcyc.linalg import Matrix, Subspace


def _one_dim(product: int, alpha: int):
    """k with e e = product e and alpha(e) = alpha e."""
    return validate_or_raise(1, ["e"], [[[product]]],
                             Matrix.from_rows([[alpha]]))


def _failing(monkeypatch, module, name, value):
    monkeypatch.setattr(module, name, lambda *args: value)


@pytest.mark.parametrize("call,kind,message", [
    (lambda: idempotent_twist_decompose(k_times_k_swap_twist()),
     errors.PreconditionError, "not idempotent"),
    (lambda: idempotent_twist_decompose(_one_dim(1, 0)),
     errors.PreconditionError, "not a square-zero ideal"),
    (lambda: unitalize(k_times_k_swap_twist()),
     errors.PreconditionError, "not in the centroid"),
    (lambda: unitalize(_one_dim(0, 2)),
     errors.PreconditionError, "quotient model unavailable"),
], ids=["idempotent", "square-zero", "centroid", "quotient-model"])
def test_constructions_refuse_with_typed_errors(call, kind, message):
    with pytest.raises(kind, match=message) as exc:
        call()
    assert isinstance(exc.value, ValueError)


def test_a_second_unit_is_an_identity_violation(monkeypatch):
    """Units are unique and a unit leaves no nonzero annihilator, so
    the solution space of u e_j = e_j = e_j u has dimension 1 at most;
    given a second solution, find_unit raises."""
    two = Subspace.from_vectors(3, [(1, 0, 1), (0, 1, 1)])
    _failing(monkeypatch, algebra, "kernel", two)
    with pytest.raises(errors.IdentityViolationError, match="dimension > 1"):
        find_unit(two_dim_unital())


@pytest.mark.parametrize("name,value,message", [
    ("find_unit", None, "failed to produce a unit"),
    ("validate_morphism", (False, ["bad"]), "embedding is not a morphism"),
], ids=["unit", "morphism"])
def test_unitalize_asserts_its_result(monkeypatch, name, value, message):
    _failing(monkeypatch, constructions, name, value)
    with pytest.raises(errors.IdentityViolationError, match=message):
        unitalize(two_dim_unital())
