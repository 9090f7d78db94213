"""Chain complex plumbing: d^2 checks, total, sub, and quotient complexes."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_operators as ref
from homcyc import complexes
from homcyc.coefficients import dualize_bimodule, regular_bimodule
from homcyc.complexes import (Bicomplex, BoundarySquareError, ChainComplex,
                              NotStableError, homology, homology_classes,
                              quotient_complex, report_for_complex,
                              representative_space, sub_complex,
                              total_complex)
from homcyc.corpus import standard_corpus
from homcyc.hochschild import (build_hochschild_cohomology_complex,
                               build_hochschild_homology_complex)
from homcyc.linalg import Matrix, NotASubspaceError, Subspace, kernel

F = Fraction
OUT_OF = "^d o d != 0 out of degree %d$"


def test_d_squared_violation_raises():
    d2 = Matrix.from_rows([[1], [0]])
    d1 = Matrix.from_rows([[1, 1]])
    with pytest.raises(BoundarySquareError, match=OUT_OF % 2):
        ChainComplex(dims={0: 1, 1: 2, 2: 1}, diffs={1: d1, 2: d2})
    with pytest.raises(BoundarySquareError, match=OUT_OF % 0):
        ChainComplex(dims={0: 1, 1: 2, 2: 1},
                     diffs={0: d1.transpose(), 1: d2.transpose()},
                     orientation="cohomological")


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


def test_cells_that_share_only_their_second_map_are_both_checked():
    """Cells (0, 2) and (1, 2) reach degree 0 through one vertical map
    object M, after first maps 0 and 1: M o 0 vanishes, M o 1 does not.
    The squares share the map applied second only, so they are distinct
    sums, and the second must be evaluated and fail."""
    M = Matrix.identity(1)
    B = Bicomplex(cell_dims={(p, q): 1 for p in (0, 1) for q in (0, 1, 2)},
                  vertical={(0, 1): M, (1, 1): M, (0, 2): Matrix.zero(1, 1),
                            (1, 2): Matrix.identity(1)},
                  horizontal={})
    with pytest.raises(BoundarySquareError, match=r"vertical\^2 != 0 at "
                       r"\(1, 2\)"):
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
    assert homology(C, 0)[0] == 0
    assert homology(C, 1)[0] == 1


def _matrix(rows, cols):
    return st.lists(st.lists(st.fractions(min_value=-3, max_value=3,
                                          max_denominator=2),
                             min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda r: Matrix.from_rows(r) if rows and cols else
        Matrix.zero(rows, cols))


def _complex(data, orientation, least_dim=1):
    """C_2 -d2-> C_1 -d1-> C_0 with d2 = (kernel basis of d1) @ R, or
    its transpose in cohomological orientation; construction checks
    d^2 = 0."""
    c0, c1, c2 = (data.draw(st.integers(least_dim, 4)) for _ in range(3))
    d1 = data.draw(_matrix(c0, c1))
    ker = kernel(d1).basis
    basis = Matrix(c1, len(ker), tuple(v[i] for i in range(c1) for v in ker))
    d2 = basis @ data.draw(_matrix(len(ker), c2))
    if orientation == "homological":
        diffs = {1: d1, 2: d2}
    else:
        diffs = {0: d1.transpose(), 1: d2.transpose()}
    return ChainComplex(dims={0: c0, 1: c1, 2: c2}, diffs=diffs,
                        orientation=orientation)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from(["homological", "cohomological"]))
def test_rank_betti_matches_representative_count(data, orientation):
    C = _complex(data, orientation)
    for n in range(3):
        betti, reps = homology(C, n, representatives=False)
        assert reps == []
        assert betti == len(homology(C, n)[1])


def test_representatives_reduce_each_cochain_differential_once(monkeypatch):
    """With representatives, the rank out of degree n is read off the
    cycles' elimination: in a cochain complex, whose incoming ranks are
    known by the time they are asked for, every differential is
    row-reduced once (for its kernel), not twice.  A chain complex
    still reduces each incoming map on its own, as a cross-check of the
    boundaries."""
    from homcyc import linalg
    from homcyc.corpus import two_dim_unital
    A = two_dim_unital()
    C = build_hochschild_cohomology_complex(
        A, dualize_bimodule(regular_bimodule(A)), 4)
    reduced = []
    echelon = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon",
                        lambda m: reduced.append(m) or echelon(m))
    report = report_for_complex(C, range(4), theory="HH-co",
                                algebra_name=A.name, coefficient_name="",
                                representatives=True)
    assert [sum(m is C.diffs[n] for m in reduced) for n in range(4)] == \
        [1, 1, 1, 1]
    assert report.betti == {n: len(report.representatives[n])
                            for n in range(4)}
    H = build_hochschild_homology_complex(A, regular_bimodule(A), 4)
    reduced.clear()
    report_for_complex(H, range(4), theory="HH", algebra_name=A.name,
                       coefficient_name="", representatives=True)
    assert [sum(m is H.diffs[n] for m in reduced) for n in range(1, 5)] == \
        [2, 2, 2, 1]


def test_rank_homology_checks_d_squared():
    """d1 o d2 = [1] != 0: no complex exists to take the homology of."""
    with pytest.raises(BoundarySquareError, match=OUT_OF % 2):
        ChainComplex(dims={0: 1, 1: 1, 2: 1},
                     diffs={1: Matrix.identity(1), 2: Matrix.identity(1)})


def test_one_hh_report_checks_each_composite_once(monkeypatch):
    """The build checks d o d out of every degree, once; the report and
    the Betti numbers check nothing more."""
    from homcyc import hochschild_homology
    from homcyc.corpus import two_dim_unital
    seen = []
    vanishes = complexes.vanishes
    monkeypatch.setattr(complexes, "vanishes",
                        lambda *terms: seen.append(terms) or vanishes(*terms))
    hochschild_homology(two_dim_unital(), 4)
    # degrees 0..5, a composite out of each of 1..5
    assert len(seen) == 5
    assert all(len(terms) == 1 for terms in seen)


def test_construction_checks_each_composite_once(monkeypatch):
    """One `vanishes` call per composite d o d, in ascending degree
    order, all made by construction: reports and homology make none."""
    calls = []
    vanishes = complexes.vanishes
    monkeypatch.setattr(complexes, "vanishes",
                        lambda *terms: calls.append(terms) or vanishes(*terms))
    d = {1: Matrix.zero(1, 1), 2: Matrix.identity(1), 3: Matrix.zero(1, 1)}
    C = ChainComplex(dims={0: 1, 1: 1, 2: 1, 3: 1}, diffs=d)
    assert calls == [((1, C.differential(n - 1), d[n]),) for n in (1, 2, 3)]
    report_for_complex(C, range(4), theory="T", algebra_name="a",
                       coefficient_name="c", representatives=True)
    for n in range(4):
        homology(C, n, representatives=False)
        homology(C, n)
    assert len(calls) == 3


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(["homological", "cohomological"]))
def test_representatives_match_per_vector_reduction(data, orientation):
    """The classes read from one product are the representatives of
    reducing each kernel vector modulo the image, byte for byte."""
    C = _complex(data, orientation, least_dim=0)
    for n in range(3):
        out, into = C.differential(n), C.differential(C.incoming(n))
        assert homology(C, n)[1] == ref.homology_representatives(
            out.to_rows(), into.to_rows(), C.dim(n))


def test_homology_classes_in_free_coordinates():
    """B = span(e2) in Q^3 and Z = span(e1, e2): H is the cycles modulo
    B in B's free coordinates (e1, e3), that is span(e1) there."""
    d1 = Matrix.from_rows([[0, 0, 1]])
    d2 = Matrix.from_rows([[0], [1], [0]])
    C = ChainComplex(dims={0: 1, 1: 3, 2: 1}, diffs={1: d1, 2: d2})
    B, H = homology_classes(C, 1)
    assert B == Subspace.from_vectors(3, [(0, 1, 0)])
    assert B.free_columns() == [0, 2]
    assert H == Subspace.from_vectors(2, [(1, 0)])
    assert homology(C, 1)[1] == [(F(1), F(0), F(0))]


def test_homology_classes_require_boundaries_in_cycles(monkeypatch):
    """Cycles that miss a boundary raise: here a `kernel` that drops the
    cycle e1, the one boundary of C_2 -> C_1 = Q^2 -> 0."""
    C = ChainComplex(dims={0: 1, 1: 2, 2: 1},
                     diffs={1: Matrix.zero(1, 2),
                            2: Matrix.from_rows([[1], [0]])})
    monkeypatch.setattr(complexes, "kernel",
                        lambda m: Subspace.from_vectors(2, [(0, 1)]))
    with pytest.raises(NotASubspaceError):
        homology_classes(C, 1)


def test_homology_classes_count_must_equal_rank_betti():
    """A rank that disagrees with the classes is an ArithmeticError."""
    C = ChainComplex(dims={0: 2, 1: 1}, diffs={1: Matrix.zero(2, 1)})
    C._ranks[1] = 1  # a wrong memoised rank: Betti 0 in degree 1
    with pytest.raises(ArithmeticError):
        homology_classes(C, 1)


@pytest.mark.parametrize("A", standard_corpus(), ids=lambda A: A.name)
def test_representative_space_is_the_rref_of_the_representatives(A):
    """The lifted classes are already the RREF of the representatives:
    row reducing them again gives the same Subspace, row for row."""
    V = regular_bimodule(A)
    for C in (build_hochschild_homology_complex(A, V, 3),
              build_hochschild_cohomology_complex(A, dualize_bimodule(V), 3)):
        for n in C.dims:
            _, reps = homology(C, n)
            assert representative_space(C, n) == \
                Subspace.from_vectors(C.dim(n), reps)
