"""Every refusal that names the first failing basis tuple keeps its type
and its whole message.

The paper's (co)homology is defined only on data that satisfy its
axioms, and each construction refuses other data with one line: what
failed, then the first `Violation` of the check that found it.  Each
case reaches one such refusal, from a real input where one exists and
otherwise by making the check, in the module that calls it, return one
fixed violation.
"""

import json
from fractions import Fraction

import pytest

from homcyc import coefficients, constructions, errors
from homcyc.algebra import AlgebraMorphism, Violation
from homcyc.cocycles import Functional, TwistedDerivation, derivation_cocycle
from homcyc.coefficients import (coregular_dual, dualize_bimodule,
                                 regular_bimodule)
from homcyc.constructions import a_circ, unitalize, yau_twist
from homcyc.cli import main
from homcyc.corpus import (dual_numbers_projection_twist, ground_field,
                           k_times_k_swap_twist, matrix_2x2, two_dim_unital)
from homcyc.cyclic import induced_map_on_homology
from homcyc.hochschild import require_homology_hypotheses
from homcyc.linalg import Matrix
from homcyc.records import replace

FIXED = Violation("fixed", (0, 1), (Fraction(1),), (Fraction(0),))
FIXED_TEXT = "fixed fails at (1,2): lhs=['1'] rhs=['0']"

# x -> g x g^-1 on mat2 with g = [[1, 1], [0, 1]]: A* is no dual bimodule
SHEAR = Matrix.from_columns(4, [[1, -1, 0, 0], [0, 1, 0, 0],
                                [1, -1, 1, -1], [0, 1, 0, 1]])


def _fixed(monkeypatch, module, name, value):
    monkeypatch.setattr(module, name, lambda *args: value)


def _regular(monkeypatch):
    _fixed(monkeypatch, coefficients, "check_bimodule_axioms", [FIXED])
    regular_bimodule(two_dim_unital())


def _dual(monkeypatch):
    dualize_bimodule(regular_bimodule(yau_twist(matrix_2x2(), SHEAR)))


def _coregular_centroid(monkeypatch):
    coregular_dual(k_times_k_swap_twist())


def _coregular_axioms(monkeypatch):
    A = two_dim_unital()
    regular_bimodule(A)  # checked and kept before the check is replaced
    _fixed(monkeypatch, coefficients, "check_bimodule_axioms", [FIXED])
    coregular_dual(A)


def _twist(monkeypatch):
    yau_twist(ground_field(), Matrix.from_rows([[2]]))


def _unitalize_centroid(monkeypatch):
    unitalize(k_times_k_swap_twist())


def _unitalize_embedding(monkeypatch):
    _fixed(monkeypatch, constructions, "validate_morphism", (False, [FIXED]))
    unitalize(two_dim_unital())


def _a_circ(monkeypatch):
    _fixed(monkeypatch, coefficients, "check_bimodule_axioms", [FIXED])
    a_circ(two_dim_unital())


def _induced_map(monkeypatch):
    A = ground_field()
    induced_map_on_homology(AlgebraMorphism(A, A, Matrix.from_rows([[2]])),
                            "HH", 1)


def _homology_hypotheses(monkeypatch):
    B = k_times_k_swap_twist()
    require_homology_hypotheses(replace(regular_bimodule(B),
                                        beta=Matrix.identity(B.dim)))


def _derivation(monkeypatch):
    A = ground_field()
    derivation_cocycle(A, TwistedDerivation(Matrix.identity(1)),
                       Functional(0, (Fraction(1),)))


CASES = [
    (_regular, errors.CoefficientError,
     "regular bimodule axioms fail (algebra not validated?): " + FIXED_TEXT),
    (_dual, errors.CoefficientError,
     "dual of a bimodule fails dual axioms: dual-bimodule-compat fails at "
     "(1,1,1): lhs=['1', '0', '1', '0'] rhs=['1', '0', '-1', '0']"),
    (_coregular_centroid, errors.CoefficientError,
     "alpha is not in the centroid; coregular actions would not give a "
     "bimodule: centroid xalpha(y)=alpha(xy) fails at (1,1): "
     "lhs=['0', '0'] rhs=['1', '0']"),
    (_coregular_axioms, errors.CoefficientError,
     "coregular dual fails bimodule axioms: " + FIXED_TEXT),
    (_twist, constructions.NotAnAlgebraMapError,
     "endomorphism is not an algebra map: algebra-endomorphism fails at "
     "(1,1): lhs=['2'] rhs=['4']"),
    (_unitalize_centroid, errors.PreconditionError,
     "alpha is not in the centroid: centroid xalpha(y)=alpha(xy) fails at "
     "(1,1): lhs=['0', '0'] rhs=['1', '0']"),
    (_unitalize_embedding, errors.IdentityViolationError,
     "embedding is not a morphism: " + FIXED_TEXT),
    (_a_circ, errors.CoefficientError,
     "restricted dual fails bimodule axioms: " + FIXED_TEXT),
    (_induced_map, errors.ChainMapError,
     "not a morphism of Hom-algebras: morphism-product fails at (1,1): "
     "lhs=['2'] rhs=['4']"),
    (_homology_hypotheses, errors.CoefficientHypothesisError,
     "coefficients violate the homology hypotheses: "
     "beta(v.a)=beta(v).alpha(a) fails at (1,1): lhs=['0', '1'] "
     "rhs=['0', '0']"),
    (_derivation, errors.CocyclePreconditionError,
     "rho is not a twisted derivation: leibniz fails at (1,1): lhs=['1'] "
     "rhs=['2']"),
]


@pytest.mark.parametrize("reach,kind,message", CASES,
                         ids=[reach.__name__[1:] for reach, *_ in CASES])
def test_refusal_names_the_first_violation(monkeypatch, reach, kind, message):
    with pytest.raises(kind) as info:
        reach(monkeypatch)
    assert type(info.value) is kind
    assert str(info.value) == message


def test_cocycle_derive_names_the_first_twist_violation(tmp_path, capsys):
    """rho = E22 on `dual_numbers_twisted` (alpha = E11) is a derivation,
    but alpha rho = rho fails at e2; the refusal names that column."""
    paths = {name: tmp_path / f"{name}.json"
             for name in ("alg", "rho", "tr")}
    paths["alg"].write_text(dual_numbers_projection_twist().to_json())
    paths["rho"].write_text(json.dumps([["0", "0"], ["0", "1"]]))
    paths["tr"].write_text(json.dumps({"coords": ["1", "0"]}))
    assert main(["cocycle", "derive", str(paths["alg"]), "--derivation",
                 str(paths["rho"]), "--trace", str(paths["tr"])]) == 2
    assert capsys.readouterr() == (
        "", "precondition failure: rho is not a twisted derivation: "
        "twist-compat alpha*rho=rho fails at (2): lhs=['0', '0'] "
        "rhs=['0', '1']\n")
