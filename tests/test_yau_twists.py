"""Every Yau twist of k^2 and k^3 follows from its image.

Let A be associative of dimension d, sigma an algebra endomorphism of
A, B = sigma(A) and r = dim B.  Each Hom face of the twist A_sigma is
sigma^(x)n after the associative face of A, so b_sigma = sigma^(x)n b_A
= b_B sigma^(x)(n+1), and sigma^(x)(n+1) maps A^(x)(n+1) onto
B^(x)(n+1): b_sigma has the rank of b_B in every degree.  t commutes
with sigma^(x)(n+1), so the same holds on Connes' complex.  Hence

  HH_n(A_sigma) = HH_n(B) + d^(n+1) - r^(n+1),
  HC_n(A_sigma) = HC_n(B) + lambda_n(d) - lambda_n(r),

with lambda_n(d) = dim C^lambda_n of a d-dimensional space, the number
of rotation orbits of A^(x)(n+1) whose return sign is +1.

The algebra endomorphisms of k^m send e_j to the sum of the e_k over
S_j, for disjoint sets S_1, ..., S_m; B is k^r, r the number of
nonempty S_j, with HH_0 = r, HH_n = 0 above, HC_2i = r and HC odd = 0.
Each of the 73 maps of k^2 and k^3 is one case.
"""

from itertools import product as iproduct
from math import gcd

import pytest

from homcyc.constructions import direct_sum, yau_twist
from homcyc.corpus import ground_field
from homcyc.cyclic import cyclic_homology_both
from homcyc.hochschild import hochschild_homology
from homcyc.linalg import Matrix

# (m, f): e_k lies in S_f(k), or in no S_j where f(k) is None
ENDOMORPHISMS = [(m, f) for m in (2, 3)
                 for f in iproduct([None, *range(m)], repeat=m)]
# "k3-x11": e_1 in no S_j, e_2 and e_3 in S_1
IDS = [f"k{m}-" + "".join("x" if j is None else str(j + 1) for j in f)
       for m, f in ENDOMORPHISMS]


def _lambda(d: int, n: int) -> int:
    """dim C^lambda_n of a d-dimensional space:
    (1/(n+1)) sum_{j=0..n} (-1)^(nj) d^gcd(j, n+1)."""
    return sum((-1) ** (n * j) * d ** gcd(j, n + 1)
               for j in range(n + 1)) // (n + 1)


def test_the_orbit_count_is_the_dimension_of_connes_complex():
    """lambda_n(3) counted by hand: at n = 3 the 72 words of period 4
    and the 6 of period 2 give 18 + 3 orbits, and the 3 constant words,
    which t sends to their negatives, none; at d = 1 it reads 1, 0, 1,
    0, and at d = 0 nothing."""
    assert [_lambda(3, n) for n in range(4)] == [3, 3, 11, 21]
    assert [_lambda(1, n) for n in range(4)] == [1, 0, 1, 0]
    assert [_lambda(0, n) for n in range(4)] == [0, 0, 0, 0]


@pytest.mark.parametrize("m,f", ENDOMORPHISMS, ids=IDS)
def test_yau_twist_of_km_follows_its_image(m, f):
    km = ground_field()
    for _ in range(m - 1):
        km = direct_sum(km, ground_field())
    sigma = Matrix.from_rows([[int(f[k] == j) for j in range(m)]
                              for k in range(m)])
    A = yau_twist(km, sigma)
    r = len(set(f) - {None})
    hh = hochschild_homology(A, 4).betti
    assert [hh[n] for n in range(5)] == \
        [r * (n == 0) + m ** (n + 1) - r ** (n + 1) for n in range(5)]
    both = cyclic_homology_both(A, 3)
    both.require_agreement()
    assert [both.betti_lambda[n] for n in range(4)] == \
        [r * (n % 2 == 0) + _lambda(m, n) - _lambda(r, n) for n in range(4)]
