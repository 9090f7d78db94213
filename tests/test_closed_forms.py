"""Classically known homology of two associative algebras (alpha = Id),
the first rung of a closed-form oracle corpus.

Over Q, the group algebra k[C_m] has HH_0 = m, HH_n = 0 for n > 0 and
HC_2i = m, HC odd = 0 (Burghelea, 1985); the truncated polynomial
algebra k[x]/(x^m) has HH_0 = m, HH_n = m - 1 for n >= 1, HC_2i = m and
HC odd = 0 (Buenos Aires Cyclic Homology Group, 1991).  At dimension 3
and 4 these exercise the face recurrence with d = 3 and d = 4; the
cyclic numbers are checked by both constructions.
"""

import pytest

from homcyc.corpus import (cyclic_group_algebra, truncated_polynomial_algebra,
                           truncated_polynomials)
from homcyc.cyclic import cyclic_homology_both, hochschild_homology

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
