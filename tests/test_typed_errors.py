"""The library refuses with `homcyc.errors` types.

Each refusal of `constructions` is a `PreconditionError` where the
construction does not apply to a valid algebra, and an
`IdentityViolationError` where a result it asserts fails; both still
subclass `ValueError`.  Two of the latter cannot happen with correct
code: they are reached by patching what they check.  Arguments of the
wrong shape are a `ShapeError`, and a periodic window, a theory name or
a comparison map that does not apply a `PreconditionError`.
"""

from fractions import Fraction

import pytest

from homcyc import constructions, errors
from homcyc.algebra import AlgebraMorphism, validate_or_raise
from homcyc.cocycles import (Functional, TwistedDerivation,
                             is_cyclic_cocycle, validate_twisted_derivation)
from homcyc.complexes import ChainComplex, sub_complex
from homcyc.constructions import idempotent_twist_decompose, unitalize
from homcyc.corpus import (dual_numbers_projection_twist, k_times_k,
                           k_times_k_swap_twist, two_dim_unital)
from homcyc.cyclic import induced_map_on_homology, periodic_homology, xi_map
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


@pytest.mark.parametrize("name,value,message", [
    ("find_unit", None, "failed to produce a unit"),
    ("validate_morphism", (False, ["bad"]), "embedding is not a morphism"),
], ids=["unit", "morphism"])
def test_unitalize_asserts_its_result(monkeypatch, name, value, message):
    _failing(monkeypatch, constructions, name, value)
    with pytest.raises(errors.IdentityViolationError, match=message):
        unitalize(two_dim_unital())


@pytest.mark.parametrize("call,kind,message", [
    (lambda: is_cyclic_cocycle(Functional(1, (Fraction(0),)),
                               two_dim_unital()),
     errors.ShapeError, "coordinate length mismatch"),
    (lambda: validate_twisted_derivation(
        two_dim_unital(), TwistedDerivation(Matrix.identity(1))),
     errors.ShapeError, "derivation matrix shape mismatch"),
    (lambda: sub_complex(ChainComplex(dims={0: 1}, diffs={}),
                         {0: Subspace.zero(2)}),
     errors.ShapeError, "ambient dim mismatch in degree 0"),
    (lambda: periodic_homology(two_dim_unital(), 1, window=1),
     errors.PreconditionError, "window must be even"),
    (lambda: induced_map_on_homology(
        AlgebraMorphism(two_dim_unital(), two_dim_unital(),
                        Matrix.identity(2)), "HP", 0),
     errors.PreconditionError, "theory must be 'HH' or 'HC'"),
    (lambda: xi_map(dual_numbers_projection_twist(),
                    dual_numbers_projection_twist(), 1),
     errors.PreconditionError, "source must be associative"),
    (lambda: xi_map(k_times_k(), k_times_k_swap_twist(), 1),
     errors.PreconditionError, "twist endomorphism must be idempotent"),
], ids=["cocycle-length", "derivation-shape", "ambient-dim", "window",
        "theory", "xi-source", "xi-idempotent"])
def test_library_refuses_with_typed_errors(call, kind, message):
    with pytest.raises(kind, match=message) as exc:
        call()
    assert isinstance(exc.value, ValueError)
