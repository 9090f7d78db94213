"""b and b' built by the twisted bar recursion equal their sums of faces.

`b_prime` and `bar_differentials` build the regular bimodule's

    b'_n = mu (x) alpha^(n-1) - alpha (x) b'_{n-1}
    b_n = b'_n + (-1)^n delta_n

and sum no face list.  Here each is compared with the alternating sum
of `face_map`'s faces, added up by `Matrix`'s `+` and `-`, as are
`hochschild_b` and `cochain_b`, which sum faces, for the regular
bimodule, its dual, and a bimodule whose beta is 2 alpha, in degrees
1..4 (1..3 on 4-dim algebras), on the generated algebras of
`test_generated_algebras` and on corpus algebras moved to a dense
unimodular basis.  `test_face_golden` stays the byte-level oracle on
the corpus.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homcyc.coefficients import Bimodule, dualize_bimodule, regular_bimodule
from homcyc.cyclic import cocyclic_bicomplex, cyclic_bicomplex
from homcyc.corpus import (dual_numbers_projection_twist, matrix_2x2,
                           two_dim_unital)
from homcyc.hochschild import (b_prime, bar_differentials,
                               build_hochschild_cohomology_complex,
                               build_hochschild_homology_complex, cochain_b,
                               face_map, hochschild_b, tensor_power_matrix)
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
    pairs = list(bar_differentials(A, top))
    for n in range(1, top + 1):
        faces = face_map(A, regular_bimodule(A), n)
        assert primes[n - 1] == pairs[n - 1][0] == face_sum(faces[:n])
        assert pairs[n - 1][1] == face_sum(faces)
        if n > 1:
            assert b_prime(A, n, (primes[n - 2], tensor_power_matrix(
                A.alpha, n - 1))) == primes[n - 1]
    for V in bimodules(A):
        for n in range(1, top + 1):
            faces = face_map(A, V, n)
            b = face_sum(faces)
            assert hochschild_b(A, V, n) == hochschild_b(A, V, n, faces) == b
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
    """For W = A*, the cochain complex is the chain complex of A
    transposed, the map out of C^n being b_{n+1}."""
    A = _algebra(case)
    top = 2 if A.dim == 4 else 3
    V = regular_bimodule(A)
    chains = build_hochschild_homology_complex(A, V, top)
    cochains = build_hochschild_cohomology_complex(A, dualize_bimodule(V), top)
    assert cochains.dims == chains.dims
    assert cochains.diffs == {n - 1: b.transpose()
                              for n, b in chains.diffs.items()}


def test_unchecked_builds_match_checked_ones():
    """Column 0 of the cyclic and the cocyclic bicomplex, whose b is
    built by the recursion, holds the checked builders' differentials,
    summed from the face lists."""
    A = two_dim_unital()
    V = regular_bimodule(A)
    for bicomplex, build, M in [
            (cyclic_bicomplex, build_hochschild_homology_complex, V),
            (cocyclic_bicomplex, build_hochschild_cohomology_complex,
             dualize_bimodule(V))]:
        column = {q: m for (p, q), m in bicomplex(A, 4).vertical.items()
                  if not p}
        assert column == build(A, M, 5).diffs


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


def _alpha_powers_built(monkeypatch, A):
    """A list that fills with k for each alpha^(x)k hochschild builds as
    a running product alpha^(x)(k-1) (x) alpha, the one way it makes a
    power of alpha."""
    from homcyc import hochschild
    built = []
    kron = hochschild.kron

    def counted(a, b):
        if b is A.alpha:
            built.append(round(math.log(a.rows, A.dim)) + 1)
        return kron(a, b)

    monkeypatch.setattr(hochschild, "kron", counted)
    return built


@pytest.mark.parametrize("make", [dual_numbers_projection_twist, matrix_2x2],
                         ids=lambda f: f.__name__)
def test_each_alpha_power_is_built_once(monkeypatch, make):
    """One bar recursion to degree top builds alpha^(x)k once for each
    k = 1..top - 1; one list of the faces of degree n builds it once
    for each k = 1..n - 1."""
    A = make()
    top = 3 if A.dim == 4 else 5
    built = _alpha_powers_built(monkeypatch, A)
    for _ in bar_differentials(A, top):
        pass
    assert sorted(built) == list(range(1, top))
    for n in range(1, top + 1):
        built.clear()
        face_map(A, regular_bimodule(A), n)
        assert sorted(built) == list(range(1, n))
