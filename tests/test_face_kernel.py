"""The integer face kernel against independent reference builds.

Every operator homcyc builds from faces, cofaces or rotations is pinned
entry for entry to `reference_operators`, which builds the same matrices
by direct Fraction evaluation.  The algebras are corpus algebras moved
to a random rational basis, so their structure constants, twists and
operators carry denominators, and their twists are nonzero.  One base,
2x2 matrices, is noncommutative, so left and right actions cannot stand
in for each other unnoticed.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_operators as ref
from homcyc.algebra import (is_centroid_element, load_algebra,
                            validate_or_raise)
from homcyc.coefficients import (Bimodule, coregular_dual, dualize_bimodule,
                                 regular_bimodule)
from homcyc.complexes import ChainComplex
from homcyc.corpus import (dual_numbers_projection_twist, ground_field,
                           k1_plus_k2, k_times_k_projection_twist,
                           k_times_k_swap_twist, matrix_2x2,
                           truncated_polynomials, two_dim_unital)
from homcyc.hochschild import (IdentityViolationError, b_prime,
                               build_hochschild_cohomology_complex, cochain_b,
                               coface_map, cyclic_t, face_map, hochschild_b,
                               homotopy_theta, norm_N)
from homcyc.linalg import Matrix, rank

F = ref.Fraction

BASES = [two_dim_unital, dual_numbers_projection_twist, k1_plus_k2,
         k_times_k_projection_twist, k_times_k_swap_twist,
         truncated_polynomials, matrix_2x2]
# top chain degree checked, by algebra dimension
MAX_N = {2: 3, 3: 2, 4: 2}

HALF = Path(__file__).parent / "golden" / "algebra-two_dim_unital_half.json"


def _inverse(p):
    """Gauss-Jordan inverse of a list-of-rows Fraction matrix."""
    d = len(p)
    rows = [list(r) + [F(int(i == j)) for j in range(d)]
            for i, r in enumerate(p)]
    for c in range(d):
        piv = next(i for i in range(c, d) if rows[i][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(d):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return [r[d:] for r in rows]


def _mat_vec(p, v):
    return [sum((a * x for a, x in zip(r, v)), F(0)) for r in p]


@st.composite
def moved_algebras(draw):
    """A corpus algebra in the basis f_j = P e_j, P = diag * unit lower
    triangular, with entries that have denominators."""
    A = draw(st.sampled_from(BASES))()
    d = A.dim
    diag = [draw(st.sampled_from([F(1, 2), F(2), F(-1), F(1, 3), F(3, 2)]))
            for _ in range(d)]
    p = [[diag[i] * (F(1) if i == j else
                     draw(st.sampled_from([F(0), F(1), F(-1), F(1, 2)]))
                     if j < i else F(0)) for j in range(d)] for i in range(d)]
    q = _inverse(p)
    cols = [[p[i][j] for i in range(d)] for j in range(d)]
    mu = [[_mat_vec(q, A.product(cols[a], cols[b])) for b in range(d)]
          for a in range(d)]
    alpha = [_mat_vec(q, A.apply_alpha(cols[j])) for j in range(d)]
    return validate_or_raise(d, A.basis_names, mu,
                             Matrix.from_rows(alpha).transpose(),
                             name=f"{A.name}-moved")


def _chain_coefficients(B):
    """The regular bimodule and, when alpha is in the centroid, the
    coregular dual A*, whose actions are not those of A."""
    out = [regular_bimodule(B)]
    if is_centroid_element(B)[0]:
        out.append(coregular_dual(B))
    return out


def _cochain_coefficients(B):
    """The regular dual and, when alpha is in the centroid, the dual of
    the coregular dual: a dual bimodule that is not the regular dual."""
    return [dualize_bimodule(V) for V in _chain_coefficients(B)]


def _half_algebra():
    B, report = load_algebra(str(HALF))
    assert B is not None, report
    return B


@settings(max_examples=25, deadline=None)
@given(moved_algebras(), st.data())
def test_faces_b_and_b_prime_match_reference(B, data):
    n = data.draw(st.integers(1, MAX_N[B.dim]))
    for V in _chain_coefficients(B):
        faces = face_map(B, V, n)
        assert len(faces) == n + 1
        for i in range(n + 1):
            assert face_map(B, V, n, i).to_rows() == ref.face_map(B, V, n, i)
            assert faces[i] == face_map(B, V, n, i)
        assert hochschild_b(B, V, n).to_rows() == ref.hochschild_b(B, V, n)
    assert b_prime(B, n).to_rows() == ref.b_prime(B, n)


@settings(max_examples=25, deadline=None)
@given(moved_algebras(), st.data())
def test_cofaces_and_cochain_b_match_reference(B, data):
    n = data.draw(st.integers(0, MAX_N[B.dim] - 1))
    for W in _cochain_coefficients(B):
        cofaces = coface_map(B, W, n)
        assert len(cofaces) == n + 2
        for i in range(n + 2):
            assert coface_map(B, W, n, i).to_rows() == \
                ref.coface_map(B, W, n, i)
            assert cofaces[i] == coface_map(B, W, n, i)
        assert cochain_b(B, W, n).to_rows() == ref.cochain_b(B, W, n)


@settings(max_examples=15, deadline=None)
@given(moved_algebras(), st.data())
def test_rotation_operators_match_reference(B, data):
    n = data.draw(st.integers(0, MAX_N[B.dim]))
    assert cyclic_t(B, n).to_rows() == ref.cyclic_t(B, n)
    assert norm_N(B, n).to_rows() == \
        ref.rotation_power_sum(B, n, [1] * (n + 1))
    assert homotopy_theta(B, n).to_rows() == \
        ref.rotation_power_sum(B, n, range(n + 1, 0, -1))


@pytest.mark.parametrize("make", [_half_algebra, matrix_2x2],
                         ids=["two_dim_unital_half", "mat2"])
def test_non_regular_coefficients_match_reference(make):
    """The coregular dual A* and its dual as coefficients, every face
    and coface at fixed degrees: on two_dim_unital in the basis e1/2, e2
    (denominators) and on 2x2 matrices (left and right actions differ)."""
    B = make()
    V = coregular_dual(B)
    W = dualize_bimodule(V)
    assert W.left != dualize_bimodule(regular_bimodule(B)).left
    top = MAX_N[B.dim]
    for n in range(1, top + 1):
        for i in range(n + 1):
            assert face_map(B, V, n, i).to_rows() == ref.face_map(B, V, n, i)
        assert hochschild_b(B, V, n).to_rows() == ref.hochschild_b(B, V, n)
    for n in range(top):
        for i in range(n + 2):
            assert coface_map(B, W, n, i).to_rows() == \
                ref.coface_map(B, W, n, i)
        assert cochain_b(B, W, n).to_rows() == ref.cochain_b(B, W, n)


def test_kernel_matrices_equal_their_rebuilt_copies():
    """A matrix handed its integer rows by the kernel equals the same
    entries read back through `from_rows`: entries, integer rows,
    products, transposes, `apply` and rank."""
    B = _half_algebra()
    V = regular_bimodule(B)
    W = dualize_bimodule(coregular_dual(B))
    cases = [
        (hochschild_b(B, V, 3), cyclic_t(B, 3), face_map(B, V, 2, 1)),
        (cochain_b(B, W, 2), cochain_b(B, W, 1), cochain_b(B, W, 3)),
        (face_map(B, V, 3, 2), norm_N(B, 3), b_prime(B, 2)),
        (homotopy_theta(B, 2), cyclic_t(B, 2), norm_N(B, 2)),
    ]
    for m, right, left in cases:
        copy = Matrix.from_rows(m.to_rows())
        assert m == copy
        assert [(d, sorted(zip(ks, xs))) for d, ks, xs in m._int_rows] == \
            [(d, sorted(zip(ks, xs))) for d, ks, xs in copy._int_rows]
        assert m @ right == copy @ right
        assert left @ m == left @ copy
        assert (left @ m).to_rows() == ref._matmul(left.to_rows(), m.to_rows())
        assert m.transpose() == copy.transpose()
        v = tuple(F(k + 1, 2 + k % 3) for k in range(m.cols))
        assert m.apply(v) == copy.apply(v)
        assert rank(m) == rank(copy)


def test_cohomology_builder_checks_precosimplicial_identities():
    """Coefficients k with left and right actions 1 and beta = 2: every
    coboundary is zero, so d o d = 0 passes, but delta^1 delta^0 = 2 is
    not delta^0 delta^0 = 1.  Only the pre-cosimplicial check sees it."""
    A = ground_field()
    one = Matrix.identity(1)
    W = Bimodule(A, 1, (one,), (one,), one.scale(2), name="broken",
                 dual=True)
    with pytest.raises(IdentityViolationError):
        build_hochschild_cohomology_complex(A, W, 2)
    C = ChainComplex(dims={n: 1 for n in range(3)},
                     diffs={n: cochain_b(A, W, n) for n in (0, 1)},
                     orientation="cohomological")
    assert all(C.differential(n).is_zero() for n in (0, 1))
