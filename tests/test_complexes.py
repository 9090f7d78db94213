"""Chain complex plumbing: d^2 checks, total, sub, and quotient complexes."""

from fractions import Fraction

import pytest

from homcyc.complexes import (Bicomplex, BoundarySquareError, ChainComplex,
                              NotStableError, homology, quotient_complex,
                              sub_complex, total_complex)
from homcyc.linalg import Matrix, Subspace

F = Fraction


def test_d_squared_violation_raises():
    d2 = Matrix.from_rows([[1], [0]])
    d1 = Matrix.from_rows([[1, 1]])
    C = ChainComplex(dims={0: 1, 1: 2, 2: 1}, diffs={1: d1, 2: d2})
    with pytest.raises(BoundarySquareError):
        C.check_d_squared()


def test_homology_of_exact_and_trivial_complexes():
    # 0 -> k -Id-> k -> 0 is exact
    C = ChainComplex(dims={0: 1, 1: 1}, diffs={1: Matrix.identity(1)})
    assert homology(C, 0)[0] == 0
    # zero differentials: homology = chain space
    Z = ChainComplex(dims={0: 2, 1: 3}, diffs={1: Matrix.zero(2, 3)})
    assert homology(Z, 0)[0] == 2
    assert homology(Z, 1)[0] == 3


def test_homology_representatives_span_kernel_mod_image():
    d1 = Matrix.from_rows([[0, 0], [1, 0]])  # image = span(e2)
    C = ChainComplex(dims={0: 2, 1: 2}, diffs={1: d1})
    betti, reps = homology(C, 0)
    assert betti == 1
    assert reps == [(F(1), F(0))]


def test_total_complex_of_koszul_square():
    # commuting square made anticommuting by a sign
    ident = Matrix.identity(1)
    B = Bicomplex(cell_dims={(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1},
                  vertical={(0, 1): ident, (1, 1): -ident},
                  horizontal={(1, 0): ident, (1, 1): ident})
    T = total_complex(B)
    assert T.dims == {0: 1, 1: 2, 2: 1}
    assert homology(T, 0)[0] == 0
    assert homology(T, 1)[0] == 0
    assert homology(T, 2)[0] == 0


def test_bicomplex_square_violation_raises():
    ident = Matrix.identity(1)
    B = Bicomplex(cell_dims={(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1},
                  vertical={(0, 1): ident, (1, 1): ident},
                  horizontal={(1, 0): ident, (1, 1): ident})
    with pytest.raises(BoundarySquareError):
        B.check_squares()


def test_quotient_complex_stability_check():
    d1 = Matrix.from_rows([[1, 0], [0, 1]])
    C = ChainComplex(dims={0: 2, 1: 2}, diffs={1: d1})
    bad = {1: Subspace.from_vectors(2, [(F(1), F(0))]),
           0: Subspace.zero(2)}
    with pytest.raises(NotStableError):
        quotient_complex(C, bad)
    ok = {1: Subspace.from_vectors(2, [(F(1), F(0))]),
          0: Subspace.from_vectors(2, [(F(1), F(0))])}
    Q = quotient_complex(C, ok)
    assert Q.dims == {0: 1, 1: 1}
    assert homology(Q, 0)[0] == 0


def test_sub_complex_stability_check():
    d1 = Matrix.from_rows([[0, 1], [0, 0]])
    C = ChainComplex(dims={0: 2, 1: 2}, diffs={1: d1})
    good = {1: Subspace.from_vectors(2, [(F(0), F(1))]),
            0: Subspace.from_vectors(2, [(F(1), F(0))])}
    S = sub_complex(C, good)
    assert S.dims == {0: 1, 1: 1}
    bad = {1: Subspace.from_vectors(2, [(F(0), F(1))]),
           0: Subspace.from_vectors(2, [(F(0), F(1))])}
    with pytest.raises(NotStableError):
        sub_complex(C, bad)


def test_cohomological_orientation():
    d0 = Matrix.from_rows([[1], [0]])
    C = ChainComplex(dims={0: 1, 1: 2}, diffs={0: d0},
                     orientation="cohomological")
    C.check_d_squared()
    assert homology(C, 0)[0] == 0
    assert homology(C, 1)[0] == 1

