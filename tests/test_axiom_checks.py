"""The structure-axiom checks against their loop-form references.

homcyc checks every structure axiom as an identity between two exact
matrices and reports the columns where they differ
(`algebra.axiom_violations`).  `reference_operators` keeps the earlier
checks, one loop over basis tuples each.  Every check must return the
same `Violation` list as its reference, in the same order, since the
first violation is what error messages and the CLI print.  Structure
constants are drawn from {0, ±1, ±2, 1/2} in dimensions 1-3, so most
draws fail several axioms at once.
"""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_operators as ref
from homcyc.algebra import (AlgebraMorphism, HomAlgebra, is_associative,
                            is_centroid_element, validate, validate_morphism)
from homcyc.coefficients import (Bimodule, check_bimodule_axioms,
                                 check_dual_bimodule_axioms,
                                 regular_bimodule,
                                 validate_homology_coefficients)
from homcyc.cocycles import (Functional, TwistedDerivation, is_cyclic_cocycle,
                             validate_twisted_derivation)
from homcyc.constructions import is_algebra_endomorphism
from homcyc.corpus import standard_corpus
from homcyc.linalg import Matrix

ENTRIES = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(-2), F(1, 2)])
CORPUS = standard_corpus()


def matrices(rows, cols):
    return st.lists(st.lists(ENTRIES, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(Matrix.from_rows)


@st.composite
def drawn_algebras(draw):
    """Unvalidated structure constants and twist of dimension 1-3."""
    d = draw(st.integers(1, 3))
    mu = draw(st.lists(st.lists(st.tuples(*[ENTRIES] * d), min_size=d,
                                max_size=d).map(tuple),
                       min_size=d, max_size=d).map(tuple))
    return HomAlgebra(d, tuple(f"e{i + 1}" for i in range(d)), mu,
                      draw(matrices(d, d)), name="drawn")


algebras = st.one_of(drawn_algebras(), st.sampled_from(CORPUS))


def _basis(d, i):
    return tuple(F(int(k == i)) for k in range(d))


def _multiplications(A):
    """The matrices of x -> e_a x and of x -> x e_a, by reference products."""
    e = [_basis(A.dim, i) for i in range(A.dim)]
    return ([Matrix.from_columns(A.dim, [ref.multiply(A, a, b) for b in e])
             for a in e],
            [Matrix.from_columns(A.dim, [ref.multiply(A, b, a) for b in e])
             for a in e])


@st.composite
def bimodules(draw):
    """Regular or coregular actions of a drawn algebra, or random action
    matrices on a space of dimension 1-3."""
    A = draw(algebras)
    kind = draw(st.sampled_from(["regular", "coregular", "random"]))
    if kind == "random":
        m = draw(st.integers(1, 3))
        left, right = ([draw(matrices(m, m)) for _ in range(A.dim)]
                       for _ in "lr")
        beta = draw(matrices(m, m))
    else:
        m = A.dim
        left, right = _multiplications(A)
        beta = A.alpha
        if kind == "coregular":
            left, right = ([x.transpose() for x in acts]
                           for acts in (right, left))
            beta = beta.transpose()
    return Bimodule(A, m, tuple(left), tuple(right), beta, name=kind)


@settings(max_examples=150, deadline=None)
@given(algebras)
def test_algebra_axioms_match_reference(A):
    alg, report = validate(A.dim, A.basis_names, A.mu, A.alpha)
    expected = ref.algebra_violations(A)
    assert list(report.violations) == expected
    assert (alg is None) == any(v.axiom == "hom-associativity"
                                for v in expected)
    assert is_associative(A) == ref.is_associative(A)
    ok, bad = is_centroid_element(A)
    assert bad == ref.centroid_violations(A) and ok == (not bad)


@settings(max_examples=100, deadline=None)
@given(algebras, algebras, st.data())
def test_maps_match_reference(A, B, data):
    endo = data.draw(matrices(A.dim, A.dim))
    ok, bad = is_algebra_endomorphism(A, endo)
    assert bad == ref.endomorphism_violations(A, endo) and ok == (not bad)
    ok, bad = validate_twisted_derivation(A, TwistedDerivation(endo))
    assert bad == ref.derivation_violations(A, endo) and ok == (not bad)
    m = data.draw(matrices(B.dim, A.dim))
    ok, bad = validate_morphism(AlgebraMorphism(A, B, m))
    assert bad == ref.morphism_violations(A, B, m) and ok == (not bad)


@settings(max_examples=100, deadline=None)
@given(bimodules())
def test_bimodule_axioms_match_reference(V):
    assert check_bimodule_axioms(V) == ref.bimodule_violations(V)
    assert check_dual_bimodule_axioms(V) == ref.dual_bimodule_violations(V)
    ok, bad = validate_homology_coefficients(V)
    assert bad == ref.homology_hypothesis_violations(V) and ok == (not bad)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([A for A in CORPUS if A.dim <= 3]), st.data())
def test_cocycle_residuals_match_reference(A, data):
    n = data.draw(st.integers(0, 1))
    coords = tuple(data.draw(st.lists(ENTRIES, min_size=A.dim ** (n + 1),
                                      max_size=A.dim ** (n + 1))))
    check = is_cyclic_cocycle(Functional(n, coords), A)
    co, cyc = ref.cocycle_residuals(A, regular_bimodule(A), n, coords)
    assert list(check.coboundary_residuals) == co
    assert list(check.cyclicity_residuals) == cyc
    assert check.is_cocycle == (not co and not cyc)
