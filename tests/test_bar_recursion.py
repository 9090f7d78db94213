"""b and b' built by the twisted bar recursion equal their sums of faces.

`b_prime`, `hochschild_b`, `cochain_b` and `bar_differentials` build

    b'_n(V) = R (x) alpha^(n-1) - beta (x) b'_{n-1}(A)
    b_n(V) = b'_n(V) + (-1)^n delta_n

and sum no face list unless the caller holds one.  Here each is compared
with the alternating sum of `face_map`'s faces, added up by `Matrix`'s
`+` and `-`: for the regular bimodule, its dual, and a bimodule whose
beta is 2 alpha (so that b'(V) is not b'(A)), in degrees 1..4 (1..3 on
4-dim algebras), on the generated algebras of `test_generated_algebras`
and on corpus algebras moved to a dense unimodular basis.
`test_face_golden` stays the byte-level oracle on the corpus.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homcyc.coefficients import Bimodule, dualize_bimodule, regular_bimodule
from homcyc.corpus import two_dim_unital
from homcyc.hochschild import (b_prime, bar_differentials,
                               build_hochschild_cohomology_complex,
                               build_hochschild_homology_complex, cochain_b,
                               face_map, hochschild_b)
from homcyc.linalg import Matrix
from test_face_golden import moved
from test_generated_algebras import (direct_sums, twisted_matrices,
                                     unimodular_bases)


def face_sum(faces):
    """sum_i (-1)^i faces[i]."""
    out = faces[0]
    for i, f in enumerate(faces[1:], 1):
        out = out - f if i % 2 else out + f
    return out


def bimodules(A):
    """The regular bimodule, its dual when A has one, and the regular
    actions with beta = 2 alpha."""
    V = regular_bimodule(A)
    out = [V, Bimodule(A, A.dim, V.left, V.right, A.alpha.scale(2),
                       name="doubled")]
    if A.alpha @ A.alpha == Matrix.identity(A.dim):
        out.append(dualize_bimodule(V))
    return out


def check_recursion(A):
    top = 3 if A.dim == 4 else 4
    primes = [b_prime(A, n) for n in range(1, top + 1)]
    for n in range(1, top + 1):
        faces = face_map(A, regular_bimodule(A), n)
        assert primes[n - 1] == face_sum(faces[:n])
        if n > 1:
            assert b_prime(A, n, primes[n - 2]) == primes[n - 1]
    for V in bimodules(A):
        pairs = list(bar_differentials(A, V, top))
        for n, (prime, b) in enumerate(pairs, 1):
            faces = face_map(A, V, n)
            assert prime == face_sum(faces[:n])
            assert b == face_sum(faces) == hochschild_b(A, V, n)
            assert hochschild_b(A, V, n, faces) == b
            assert cochain_b(A, V, n - 1) == b.transpose()


@settings(max_examples=10, deadline=None)
@given(twisted_matrices())
def test_recursion_on_twisted_matrix_algebras(A):
    check_recursion(A)


@settings(max_examples=20, deadline=None)
@given(direct_sums())
def test_recursion_on_direct_sums(A):
    check_recursion(A)


@settings(max_examples=20, deadline=None)
@given(unimodular_bases())
def test_recursion_in_dense_bases(case):
    make, p = case
    check_recursion(moved(make, p))


def _algebra(case):
    """The algebra of a generated case, moved to its dense basis when
    the case is one of `unimodular_bases`."""
    return moved(*case) if isinstance(case, tuple) else case


def _has_dual(A):
    """A twisted 2x2 matrix algebra has a dual only when alpha^2 = Id."""
    return A.alpha @ A.alpha == Matrix.identity(A.dim)


@settings(max_examples=25, deadline=None)
@given(st.one_of(twisted_matrices().filter(_has_dual), direct_sums(),
                 unimodular_bases()))
def test_cochains_of_the_dual_are_the_chains_transposed(case):
    """For W = A*, the checked and the unchecked cochain complexes are
    the chain complex of A transposed, the map out of C^n being b_{n+1}."""
    A = _algebra(case)
    top = 2 if A.dim == 4 else 3
    V = regular_bimodule(A)
    W = dualize_bimodule(V)
    for checked in (True, False):
        chains = build_hochschild_homology_complex(
            A, V, top, check_identities=checked)
        cochains = build_hochschild_cohomology_complex(
            A, W, top, check_identities=checked)
        assert cochains.dims == chains.dims
        assert cochains.diffs == {n - 1: b.transpose()
                                  for n, b in chains.diffs.items()}


def test_unchecked_builds_match_checked_ones():
    """The unchecked builders' differentials, built by the recursion,
    are the checked builders', summed from the face lists."""
    A = two_dim_unital()
    V = regular_bimodule(A)
    for build, M in [(build_hochschild_homology_complex, V),
                     (build_hochschild_cohomology_complex,
                      dualize_bimodule(V))]:
        assert build(A, M, 5, check_identities=False).diffs == \
            build(A, M, 5).diffs


@pytest.mark.parametrize("call", [
    lambda A, V: b_prime(A, 0),
    lambda A, V: b_prime(A, -1),
    lambda A, V: b_prime(A, 0, b_prime(A, 1)),
    lambda A, V: hochschild_b(A, V, 0),
    lambda A, V: hochschild_b(A, V, -2),
    lambda A, V: cochain_b(A, V, -1),
], ids=["b_prime(0)", "b_prime(-1)", "b_prime(0, lower)", "hochschild_b(0)",
        "hochschild_b(-2)", "cochain_b(-1)"])
@pytest.mark.parametrize("dual", [False, True], ids=["regular", "dual"])
def test_below_degree_one_raises_index_error(call, dual):
    A = two_dim_unital()
    V = regular_bimodule(A)
    with pytest.raises(IndexError):
        call(A, dualize_bimodule(V) if dual else V)
