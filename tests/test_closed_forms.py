"""Classically known homology of associative algebras (alpha = Id), the
first rung of a closed-form oracle corpus, and one Yau twist of them.

Over Q, the group algebra k[C_m] has HH_0 = m, HH_n = 0 for n > 0 and
HC_2i = m, HC odd = 0 (Burghelea, 1985); the truncated polynomial
algebra k[x]/(x^m) has HH_0 = m, HH_n = m - 1 for n >= 1, HC_2i = m and
HC odd = 0 (Buenos Aires Cyclic Homology Group, 1991).  At dimension 3
and 4 these exercise the face recurrence with d = 3 and d = 4; the
cyclic numbers are checked by both constructions.  The path algebra of
a tree has HH_0 = the number of vertices and HH_n = 0 above, so the
upper-triangular T_2 has HC_2i = 2 and HC odd = 0.  The cohomology
theories read the same numbers here.

The Yau twist of k[C_3] by the automorphism g -> g^-1 (alpha swaps g1
and g2) is Hom data with no closed form: its numbers are regression
values.  So are those of the shift twist of k^3 (e1 -> e2 -> e3 -> 0),
which neither splitting below takes (alpha is nilpotent, not
idempotent, and k^3 twisted has no unit); its HH_n reads
3^(n+1) - 2^(n+1) for 1 <= n <= 6, the count that
`test_yau_twists.py` proves for every twist of k^m.

A split Hom-algebra A = (A1, Id) (+) (K, 0), d = dim A and d1 = dim A1,
has a closed-form HH in degrees n >= 2: only tensors with no K slot and
tensors with exactly two adjacent K slots carry nonzero faces, so
HH_n(A) = HH_n(A1) + d^(n+1) - d1^(n+1) - r(n) - r(n+1), with
r(m) = m d1^(m-1) dim K^2.  Where K^2 = 0 it holds in degree 1 too.
`unital_decompose` splits a unital A by the central idempotent
alpha(1), and `idempotent_twist_decompose` an A with alpha^2 = alpha.
"""

import pytest

from homcyc.algebra import find_unit
from homcyc.constructions import (direct_sum, idempotent_twist_decompose,
                                  unital_decompose, yau_twist)
from homcyc.corpus import (cyclic_group_algebra, ground_field,
                           dual_numbers_projection_twist,
                           k_times_k_projection_twist,
                           truncated_polynomial_algebra,
                           truncated_polynomials, two_dim_unital,
                           upper_triangular_algebra)
from homcyc.cyclic import cyclic_cohomology_both, cyclic_homology_both
from homcyc.hochschild import hochschild_cohomology, hochschild_homology
from homcyc.linalg import Matrix, rank

TOP = 4


@pytest.mark.parametrize("make,hh,hc", [
    (lambda: cyclic_group_algebra(3), [3, 0, 0, 0, 0], [3, 0, 3, 0, 3]),
    (lambda: truncated_polynomial_algebra(4), [4, 3, 3, 3, 3],
     [4, 0, 4, 0, 4]),
], ids=["kC3", "trunc_poly4"])
def test_closed_forms_to_degree_4(make, hh, hc):
    A = make()
    report = hochschild_homology(A, TOP)
    assert [report.betti[n] for n in report.degrees] == hh
    both = cyclic_homology_both(A, TOP)
    both.require_agreement()
    assert [both.betti_lambda[n] for n in both.degrees] == hc


def test_truncated_polynomials_are_the_m_3_case():
    assert truncated_polynomials() == truncated_polynomial_algebra(3)


def _inverse_twist_of_kC3():
    inverse = Matrix.from_rows([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    return yau_twist(cyclic_group_algebra(3), inverse, name="kC3_inverse")


@pytest.mark.parametrize("make,top,hh,hc", [
    (upper_triangular_algebra, 5, [2, 0, 0, 0, 0, 0], [2, 0, 2, 0, 2, 0]),
    (_inverse_twist_of_kC3, 4, [3, 0, 0, 0, 0], [3, 0, 3, 0, 3]),
], ids=["T2", "kC3_inverse"])
def test_homology_and_cohomology_read_the_same(make, top, hh, hc):
    A = make()
    for hochschild in (hochschild_homology, hochschild_cohomology):
        report = hochschild(A, top)
        assert [report.betti[n] for n in report.degrees] == hh
    for cyclic in (cyclic_homology_both, cyclic_cohomology_both):
        both = cyclic(A, top)
        both.require_agreement()
        assert [both.betti_lambda[n] for n in both.degrees] == hc


def test_shift_twist_of_k3_regression_values():
    k = ground_field()
    shift = Matrix.from_columns(3, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    A = yau_twist(direct_sum(direct_sum(k, k), k), shift, name="k3_shift")
    hh = hochschild_homology(A, 6)
    assert [hh.betti[n] for n in hh.degrees] == [3, 5, 19, 65, 211, 665,
                                                 2059]
    assert all(hh.betti[n] == 3 ** (n + 1) - 2 ** (n + 1)
               for n in range(1, 7))
    both = cyclic_homology_both(A, 5)
    both.require_agreement()
    assert [both.betti_lambda[n] for n in both.degrees] == [3, 2, 9, 17, 45,
                                                            109]


def _split(A):
    """(A1, K) with A = (A1, Id) (+) (K, 0): by `unital_decompose` where
    A has a unit, else by `idempotent_twist_decompose`."""
    if find_unit(A) is not None:
        dec = unital_decompose(A)
        return dec.part_unital_associative, dec.part_complement
    K, A1 = idempotent_twist_decompose(A)
    return A1, K


@pytest.mark.parametrize("make,low,top,closed", [
    (two_dim_unital, 2, 7, lambda n: 2 ** (n + 1) - 2 * n - 2),
    (dual_numbers_projection_twist, 1, 6, lambda n: 2 ** (n + 1) - 1),
    (k_times_k_projection_twist, 1, 6, lambda n: 2 ** (n + 1) - 1),
], ids=["two_dim_unital", "dual_numbers_twisted", "k_times_k_projected"])
def test_split_algebras_have_closed_form_hh(make, low, top, closed):
    """HH_n of a split algebra from its summands, for low <= n <= top,
    and its closed form: 2^(n+1) - 2n - 2 where A1 = K = K^2 = k, and
    2^(n+1) - 1 where A1 = k and K^2 = 0."""
    A = make()
    A1, K = _split(A)
    assert A1.alpha == Matrix.identity(A1.dim)
    assert K.alpha == Matrix.zero(K.dim, K.dim)
    d, d1, k2 = A.dim, A1.dim, rank(K.product_matrix)

    def r(m):
        return m * d1 ** (m - 1) * k2

    hh, hh1 = (hochschild_homology(B, top).betti for B in (A, A1))
    for n in range(low, top + 1):
        assert hh[n] == hh1[n] + d ** (n + 1) - d1 ** (n + 1) - r(n) - \
            r(n + 1) == closed(n), n
