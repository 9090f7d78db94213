"""Cross-checks over generated algebras, beyond the fixed corpus.

Two families: 2x2 matrices Yau-twisted by conjugation x -> g x g^-1
with g a small invertible integer matrix (so the twist carries
denominators when det g is not +-1), and direct sums of two corpus
algebras of total dimension at most 4.  On each, up to degree 2 for
dimension 4 and degree 3 below it:

- the checked Hochschild builders pass (d^2 = 0 and the
  (co)simplicial identities), and the faces they derive by recurrence
  equal `face_map`'s, for A and, where it is a dual bimodule, A*;
- HH_n(A, A) and HH^n(A, A*) have equal Betti numbers;
- the lambda and bicomplex constructions of HC agree;
- HC_0 is the space of traces.

The regular dual A* is a dual bimodule only when alpha^2 = Id: for
every g with entries in -2..2, conjugation twists with alpha^2 != Id
fail the dual compatibility axiom, so A* is refused and only the
homology checks run on them.

A third family moves each corpus algebra of dimension at most 3 to a
drawn unimodular integer basis: its HH, HH-co and HC (lambda and
bicomplex) Betti numbers up to degree 2 must not change.

On all three families, and on the corpus, `trace_space` is the RREF
basis that the reference's pairwise constraints give.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_operators as ref
from homcyc.algebra import direct_sum, yau_twist
from homcyc.cocycles import trace_space
from homcyc.coefficients import (CoefficientError, dualize_bimodule,
                                 regular_bimodule)
from homcyc.complexes import homology
from homcyc.corpus import (dual_numbers, dual_numbers_projection_twist,
                           ground_field, k1_plus_k2, k2,
                           k_times_k_projection_twist, k_times_k_swap_twist,
                           matrix_2x2, truncated_polynomials, two_dim_unital,
                           upper_triangular_algebra)
from homcyc.cyclic import (cyclic_homology_both, hochschild_cohomology,
                           hochschild_homology)
from homcyc.hochschild import (build_hochschild_cohomology_complex,
                               build_hochschild_homology_complex)
from homcyc.linalg import Matrix
from test_face_golden import moved
from test_hochschild import faces_by_recurrence_match_face_map

SUMMANDS = [ground_field, k2, two_dim_unital, k1_plus_k2, dual_numbers,
            dual_numbers_projection_twist, k_times_k_projection_twist,
            k_times_k_swap_twist, truncated_polynomials]


def conjugation(g: list[list[int]]) -> Matrix:
    """x -> g x g^-1 on 2x2 matrices in the basis E11, E12, E21, E22."""
    (p, q), (r, s) = g
    det = Fraction(p * s - q * r)
    inv = [[s / det, -q / det], [-r / det, p / det]]
    cols = []
    for i, j in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        # g E_ij g^-1 has entry (a, b) = g[a][i] * inv[j][b]
        cols.append([g[a][i] * inv[j][b] for a in (0, 1) for b in (0, 1)])
    return Matrix.from_columns(4, cols)


@st.composite
def twisted_matrices(draw):
    entry = st.integers(-2, 2)
    g = draw(st.lists(st.lists(entry, min_size=2, max_size=2),
                      min_size=2, max_size=2)
             .filter(lambda g: g[0][0] * g[1][1] != g[0][1] * g[1][0]))
    return yau_twist(matrix_2x2(), conjugation(g), name=f"mat2^{g}")


@st.composite
def direct_sums(draw):
    first = draw(st.sampled_from(SUMMANDS))()
    rest = [make for make in SUMMANDS if make().dim + first.dim <= 4]
    return direct_sum(first, draw(st.sampled_from(rest))())


def _check(A, has_dual=True):
    n = 2 if A.dim == 4 else 3
    V = regular_bimodule(A)
    hh = build_hochschild_homology_complex(A, V, n)
    faces_by_recurrence_match_face_map(A, V, n)
    if has_dual:
        W = dualize_bimodule(V)
        faces_by_recurrence_match_face_map(A, W, n)
        hhco = build_hochschild_cohomology_complex(A, W, n)
        assert [homology(hh, k, representatives=False)[0]
                for k in range(n)] == \
            [homology(hhco, k, representatives=False)[0] for k in range(n)]
    else:
        with pytest.raises(CoefficientError):
            dualize_bimodule(V)
    both = cyclic_homology_both(A, n)
    both.require_agreement()
    assert both.betti_lambda[0] == trace_space(A).dim


@settings(max_examples=20, deadline=None)
@given(twisted_matrices())
def test_twisted_matrix_algebras_pass_the_cross_checks(A):
    _check(A, has_dual=A.alpha @ A.alpha == Matrix.identity(4))


@settings(max_examples=25, deadline=None)
@given(direct_sums())
def test_direct_sums_pass_the_cross_checks(A):
    _check(A)


def _det(rows):
    """Determinant by expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * x * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


@st.composite
def unimodular_bases(draw):
    """A corpus algebra of dimension <= 3 and the rows of an integer
    matrix with entries in -2..2 and determinant +-1: all rows but the
    last drawn freely, the last among those that make it unimodular."""
    make = draw(st.sampled_from(SUMMANDS))
    d = make().dim
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=d,
                                  max_size=d), min_size=d - 1,
                         max_size=d - 1))
    last = [list(r) for r in product(range(-2, 3), repeat=d)
            if abs(_det(rows + [list(r)])) == 1]
    assume(last)
    return make, rows + [draw(st.sampled_from(last))]


def _betti_to_degree_2(A):
    hc = cyclic_homology_both(A, 2)
    return (hochschild_homology(A, 2).betti, hochschild_cohomology(A, 2).betti,
            hc.betti_lambda, hc.betti_bicomplex)


@settings(max_examples=60, deadline=None)
@given(unimodular_bases())
def test_betti_numbers_do_not_depend_on_the_basis(case):
    make, p = case
    assert _betti_to_degree_2(moved(make, p)) == _betti_to_degree_2(make())


@settings(max_examples=60, deadline=None)
@given(st.one_of(twisted_matrices(), direct_sums(),
                 unimodular_bases().map(lambda case: moved(*case)),
                 st.sampled_from(SUMMANDS + [matrix_2x2,
                                             upper_triangular_algebra])
                 .map(lambda make: make())))
def test_trace_space_is_the_pairwise_constraint_construction(A):
    assert trace_space(A).basis == ref.trace_space(A)
