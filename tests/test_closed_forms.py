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
values.
"""

import pytest

from homcyc.algebra import yau_twist
from homcyc.corpus import (cyclic_group_algebra, truncated_polynomial_algebra,
                           truncated_polynomials, upper_triangular_algebra)
from homcyc.cyclic import (cyclic_cohomology_both, cyclic_homology_both,
                           hochschild_cohomology, hochschild_homology)
from homcyc.linalg import Matrix

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
