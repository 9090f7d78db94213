"""Chain-level identity checks on corrupted inputs, against a dense
reference.

homcyc tests every chain-level identity as one signed sum of products
with `linalg.vanishes`.  Here one entry of the input is corrupted: a
structure constant or a twist entry of an algebra built without
validation, in its own basis or in a dense one (so its faces break
Hom-associativity or multiplicativity), one entry of a bicomplex map,
or one entry of a chain map.  Each check must raise the exception type
and message that a dense Fraction evaluation of the same identities,
in the same order, names first: the same (n, i, j), cell or degree.
Where no identity fails, the check must pass.
"""

from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_operators as ref
from test_face_golden import moved
from homcyc import cyclic, hochschild
from homcyc.algebra import AlgebraMorphism, HomAlgebra, load_algebra
from homcyc.coefficients import Bimodule, dualize_bimodule, regular_bimodule
from homcyc.complexes import BoundarySquareError
from homcyc.corpus import (dual_numbers_projection_twist, ground_field,
                           k1_plus_k2, k_times_k, k_times_k_swap_twist,
                           matrix_2x2, truncated_polynomials, two_dim_unital)
from homcyc.cyclic import (ChainMapError, cyclic_bicomplex,
                           induced_map_on_homology)
from homcyc.hochschild import (CoefficientHypothesisError,
                               IdentityViolationError,
                               build_hochschild_cohomology_complex,
                               build_hochschild_homology_complex,
                               check_presimplicial)
from homcyc.linalg import Matrix
from homcyc.records import replace

BASES = [two_dim_unital, dual_numbers_projection_twist, k1_plus_k2,
         k_times_k_swap_twist, truncated_polynomials]
HALF = Path(__file__).parent / "golden" / "algebra-two_dim_unital_half.json"
CHANGES = [F(1), F(-1), F(1, 2), F(2)]


# a dense unimodular change of basis per dimension, det P = 1
DENSE_BASES = {2: [[1, 2], [-2, -3]], 3: [[1, 1, 1], [1, 2, 3], [1, 3, 6]]}


@st.composite
def corrupted_algebras(draw):
    """A corpus algebra, in its own basis or moved to a dense unimodular
    one (whose faces are dense, so their identities are decided on
    packed integers), with one structure constant or one twist entry
    moved, built without validation."""
    make = draw(st.sampled_from(BASES))
    A = make()
    if draw(st.booleans()):
        A = moved(make, DENSE_BASES[A.dim])
    d = A.dim
    delta = draw(st.sampled_from(CHANGES))
    if draw(st.booleans()):
        a, b, k = (draw(st.integers(0, d - 1)) for _ in range(3))
        mu = [[list(c) for c in row] for row in A.mu]
        mu[a][b][k] += delta
        return replace(
            A, mu=tuple(tuple(tuple(c) for c in row) for row in mu))
    i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
    return replace(A, alpha=_moved(A.alpha, i, j, delta))


def _moved(m: Matrix, i: int, j: int, delta) -> Matrix:
    rows = m.to_rows()
    rows[i][j] += delta
    return Matrix.from_rows(rows)


def _unchecked_regular(A: HomAlgebra) -> Bimodule:
    """A acting on itself, beta = alpha, with no axiom check."""
    e = [A.basis_vector(a) for a in range(A.dim)]
    return Bimodule(A, A.dim, tuple(A.left_mult_matrix(x) for x in e),
                    tuple(A.right_mult_matrix(x) for x in e), A.alpha,
                    name=f"{A.name}-unchecked")


def _unchecked_dual(V: Bimodule) -> Bimodule:
    return Bimodule(V.algebra, V.dim,
                    tuple(r.transpose() for r in V.right),
                    tuple(x.transpose() for x in V.left),
                    V.beta.transpose(), name=f"{V.name}-dual", dual=True)


_mul = ref._matmul


def _first(failures):
    return next((f for f in failures if f is not None), None)


def _faces(A, V, n):
    return [ref.face_map(A, V, n, i) for i in range(n + 1)]


def _cofaces(A, W, n):
    return [ref.coface_map(A, W, n, i) for i in range(n + 2)]


def _presimplicial_failure(n, low, high):
    """The first pair i < j, in `check_presimplicial` order, at which the
    dense faces of degrees n - 1 and n break the identity."""
    for j in range(1, n + 1):
        for i in range(j):
            if _mul(low[i], high[j]) != _mul(low[j - 1], high[i]):
                return (IdentityViolationError,
                        f"presimplicial identity fails at n={n}, i={i}, j={j}")
    return None


def _precosimplicial_failure(n, low, high):
    """The same for the dense cofaces of degrees n and n + 1, pairs j < i
    with i outer.  Pair (i, j) is the transpose of presimplicial pair
    (j, i) of W's faces in degree n + 2, and homcyc checks it as that,
    so it is named as that."""
    for i in range(1, n + 3):
        for j in range(min(i, n + 2)):
            if _mul(high[i], low[j]) != _mul(high[j], low[i - 1]):
                return (IdentityViolationError, "presimplicial identity "
                        f"fails at n={n + 2}, i={j}, j={i}")
    return None


def _is_zero(rows):
    return not any(x for r in rows for x in r)


def _square_failure(diffs, degrees):
    """The first degree n whose composite out of n is not zero; diffs[n]
    is the dense map out of n and `degrees` lists (n, target of the
    second map) in `check_d_squared` order."""
    for n, m in degrees:
        if not _is_zero(_mul(diffs[m], diffs[n])):
            return BoundarySquareError, f"d o d != 0 out of degree {n}"
    return None


def _raises_as(expected, call):
    if expected is None:
        call()
        return
    kind, message = expected
    with pytest.raises(kind) as exc:
        call()
    assert type(exc.value) is kind
    assert str(exc.value) == message


@settings(max_examples=40, deadline=None)
@given(corrupted_algebras(), st.integers(2, 3))
def test_presimplicial_check_names_the_first_failing_pair(A, n):
    V = _unchecked_regular(A)
    _raises_as(_presimplicial_failure(n, _faces(A, V, n - 1),
                                      _faces(A, V, n)),
               lambda: check_presimplicial(A, V, n))


@settings(max_examples=40, deadline=None)
@given(corrupted_algebras(), st.integers(0, 1))
def test_precosimplicial_check_names_the_first_failing_pair(A, n):
    """The pre-cosimplicial identities on C^n are decided by the
    presimplicial check of W's faces in degree n + 2."""
    W = _unchecked_dual(_unchecked_regular(A))
    _raises_as(_precosimplicial_failure(n, _cofaces(A, W, n),
                                        _cofaces(A, W, n + 1)),
               lambda: check_presimplicial(A, W, n + 2))


@settings(max_examples=25, deadline=None)
@given(corrupted_algebras())
def test_checked_homology_build_fails_where_the_reference_does(A):
    """The hypotheses on the coefficients, then d o d in every degree,
    then the presimplicial identities degree by degree, each degree's
    faces reused from the degree below."""
    top = 3
    V = _unchecked_regular(A)
    bad = ref.homology_hypothesis_violations(V)
    b = {n: ref.hochschild_b(A, V, n) for n in range(1, top + 1)}
    expected = (CoefficientHypothesisError,
                "coefficients violate the homology hypotheses: "
                + str(bad[0])) if bad else \
        _square_failure(b, [(n, n - 1) for n in range(2, top + 1)]) or \
        _first(_presimplicial_failure(n, _faces(A, V, n - 1), _faces(A, V, n))
               for n in range(2, top + 1))
    _raises_as(expected, lambda: build_hochschild_homology_complex(A, V, top))


@settings(max_examples=25, deadline=None)
@given(corrupted_algebras())
def test_checked_cohomology_build_fails_where_the_reference_does(A):
    top = 3
    W = _unchecked_dual(_unchecked_regular(A))
    delta = {n: ref.cochain_b(A, W, n) for n in range(top)}
    expected = \
        _square_failure(delta, [(n, n + 1) for n in range(top - 1)]) or \
        _first(_precosimplicial_failure(n, _cofaces(A, W, n),
                                        _cofaces(A, W, n + 1))
               for n in range(top - 1))
    _raises_as(expected,
               lambda: build_hochschild_cohomology_complex(A, W, top))


def _bicomplex_failure(B):
    """v^2, h^2 and vh + hv cell by cell, in `check_squares` order; a
    map B does not store is the zero map between its cells."""
    def dense(maps, src, tgt):
        if src in maps:
            return maps[src].to_rows()
        return [[0] * B.cell_dims.get(src, 0)
                for _ in range(B.cell_dims.get(tgt, 0))]

    def v(p, q):
        return dense(B.vertical, (p, q), (p, q - 1))

    def h(p, q):
        return dense(B.horizontal, (p, q), (p - 1, q))

    for (p, q) in B.cell_dims:
        if (p, q - 2) in B.cell_dims and not _is_zero(
                _mul(v(p, q - 1), v(p, q))):
            return BoundarySquareError, f"vertical^2 != 0 at {(p, q)}"
        if (p - 2, q) in B.cell_dims and not _is_zero(
                _mul(h(p - 1, q), h(p, q))):
            return BoundarySquareError, f"horizontal^2 != 0 at {(p, q)}"
        if (p - 1, q - 1) in B.cell_dims:
            vh = _mul(v(p - 1, q), h(p, q))
            hv = _mul(h(p, q - 1), v(p, q))
            if not _is_zero([[x + y for x, y in zip(r, s)]
                             for r, s in zip(vh, hv)]):
                return (BoundarySquareError,
                        f"squares do not anticommute at {(p, q)}")
    return None


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([two_dim_unital, k1_plus_k2,
                        dual_numbers_projection_twist]), st.data())
def test_bicomplex_check_names_the_first_failing_cell(make, data):
    B = cyclic_bicomplex(make(), 2)
    which = data.draw(st.sampled_from(["vertical", "horizontal"]))
    maps = dict(getattr(B, which))
    cell = data.draw(st.sampled_from(sorted(maps)))
    m = maps[cell]
    maps[cell] = _moved(m, data.draw(st.integers(0, m.rows - 1)),
                        data.draw(st.integers(0, m.cols - 1)),
                        data.draw(st.sampled_from(CHANGES)))
    bad = replace(B, **{which: maps})
    _raises_as(_bicomplex_failure(bad), bad.check_squares)


def _morphisms():
    """An isomorphism onto a basis with denominators, an inclusion, and
    the identity of 2x2 matrices, whose b_1 is not zero."""
    A = two_dim_unital()
    half, _ = load_algebra(str(HALF))
    mat2 = matrix_2x2()
    return [AlgebraMorphism(A, half, Matrix.from_rows([[2, 0], [0, 1]])),
            AlgebraMorphism(ground_field(), k_times_k(),
                            Matrix.from_rows([[1], [0]])),
            AlgebraMorphism(mat2, mat2, Matrix.identity(4))]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(range(3)), st.integers(0, 2), st.data())
def test_chain_map_check_names_the_first_failing_degree(which, n, data):
    """One entry of one tensor power f^(x)(k+1) is moved as the induced
    map reads it off the running powers (`_powers`); the induced map on
    HH_n checks f b = b f in degrees 1..n+1, in order."""
    f = _morphisms()[which]
    # the dense reference b of 2x2 matrices is slow past degree 2
    n = min(n, 1) if f.source.dim == 4 else n
    k_bad = data.draw(st.integers(0, n + 1))
    size = (f.target.dim ** (k_bad + 1), f.source.dim ** (k_bad + 1))
    r, c = (data.draw(st.integers(0, s - 1)) for s in size)
    delta = data.draw(st.sampled_from(CHANGES))
    tmaps = {k: hochschild.tensor_power_matrix(f.matrix, k + 1).to_rows()
             for k in range(n + 2)}
    tmaps[k_bad][r][c] += delta
    VA, VB = (_unchecked_regular(X) for X in (f.source, f.target))
    expected = None
    for k in range(1, n + 2):
        if _mul(tmaps[k - 1], ref.hochschild_b(f.source, VA, k)) != \
                _mul(ref.hochschild_b(f.target, VB, k), tmaps[k]):
            expected = (ChainMapError,
                        f"chain map fails to commute with b at degree {k}")
            break

    def corrupted(m, k):
        return [_moved(out, r, c, delta) if j == k_bad + 1 else out
                for j, out in enumerate(hochschild._powers(m, k))]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cyclic, "_powers", corrupted)
        _raises_as(expected, lambda: induced_map_on_homology(f, "HH", n))


def _with_corrupted_faces(mp, moves):
    """Rebind hochschild._faces, which builds every face a checked build
    takes from the structure maps (both faces of degree 1, through
    `face_map`, and delta_{n-1} and delta_n of each degree n >= 2), so
    that entry (r, c) of face i of degree n is moved by delta for each
    (n, i, r, c, delta) in `moves`."""
    orig = hochschild._faces

    def corrupted(A, V, n, which, power):
        for i, face in zip(which, orig(A, V, n, which, power)):
            for n0, i0, r, c, delta in moves:
                if (n0, i0) == (n, i):
                    face = _moved(face, r, c, delta)
            yield face

    mp.setattr(hochschild, "_faces", corrupted)


def _alternating_sum(maps):
    """sum (-1)^i maps[i] over dense maps of one shape."""
    return [[sum(x if i % 2 == 0 else -x for i, x in enumerate(entries))
             for entries in zip(*rows)] for rows in zip(*maps)]


def _kron(a, b):
    """The Kronecker product of dense maps, a's indices most significant."""
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def _built_maps(A, cochains, moves, top):
    """The dense faces of degrees 1..top (or cofaces of degrees
    0..top - 1) as a checked build takes them, with entry (r, c) of map
    i of degree n moved by delta for each (n, i, r, c, delta) in
    `moves`.  The first degree's maps are all built directly; after it
    only the last two are, and map i < n (faces) or i < n + 1 (cofaces)
    is map i one degree down (x) alpha (cofaces: (x) alpha^T), so a
    moved entry is carried into every degree above."""
    V = regular_bimodule(A)
    W = dualize_bimodule(V)
    alpha = A.alpha.to_rows()
    if cochains:
        alpha = [list(r) for r in zip(*alpha)]
    degrees = range(top) if cochains else range(1, top + 1)
    maps = {}
    for n in degrees:
        count = n + 2 if cochains else n + 1
        if n == degrees[0]:
            maps[n], new = [], range(count)
        else:
            maps[n] = [_kron(m, alpha) for m in maps[n - 1][:-1]]
            new = range(count - 2, count)
        maps[n] += [ref.coface_map(A, W, n, i) if cochains else
                    ref.face_map(A, V, n, i) for i in new]
        for n0, i0, r, c, delta in moves:
            if n0 == n:
                maps[n][i0][r][c] += delta
    return maps


def _build_with_moved_entries(A, cochains, moves, top):
    """Move entry (r, c) of map i of degree n by delta, for each
    (n, i, r, c, delta) in `moves`, in the dense faces (or cofaces) and
    in homcyc's, and check the checked build to degree `top` against
    the dense reference: d o d of the differentials summed from the
    moved maps, then the identities.  Only the maps a build takes from
    the structure maps are moved (`_built_maps`), and a moved entry
    enters the differential and both degrees' identities it takes part
    in, and the faces of every degree above.  The cofaces are the
    transposed faces of degree n + 1 of W's chain data, so a coface
    move is a move of (c, r) in one of those faces.  Returns the
    reference's (exception type, message), or None."""
    V = regular_bimodule(A)
    W = dualize_bimodule(V)
    maps = _built_maps(A, cochains, moves, top)
    diffs = {n: _alternating_sum(m) for n, m in maps.items()}
    if cochains:
        expected = \
            _square_failure(diffs, [(n, n + 1) for n in range(top - 1)]) or \
            _first(_precosimplicial_failure(n, maps[n], maps[n + 1])
                   for n in range(top - 1))
        moves = [(n0 + 1, i0, c, r, delta) for n0, i0, r, c, delta in moves]
        build = build_hochschild_cohomology_complex
    else:
        expected = \
            _square_failure(diffs, [(n, n - 1) for n in range(2, top + 1)]) \
            or _first(_presimplicial_failure(n, maps[n - 1], maps[n])
                      for n in range(2, top + 1))
        build = build_hochschild_homology_complex
    with pytest.MonkeyPatch.context() as mp:
        _with_corrupted_faces(mp, moves)
        _raises_as(expected, lambda: build(A, W if cochains else V, top))
    return expected


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([two_dim_unital, k1_plus_k2, truncated_polynomials]),
       st.booleans(), st.data())
def test_checked_builds_name_the_first_pair_corrupted_faces_break(
        make, cochains, data):
    """One or two entries of faces (or cofaces) are moved, each in one
    map a build takes from the structure maps: any map of the first
    degree, else one of the last two.  The build fails where the
    reference does, on d o d of the moved differentials or else at its
    first failing (n, i, j)."""
    A = make()
    top = 3 if A.dim == 2 else 2
    degrees = range(top) if cochains else range(1, top + 1)
    moves = []
    for _ in range(data.draw(st.integers(1, 2))):
        n0 = data.draw(st.sampled_from(degrees))
        nmaps = n0 + 2 if cochains else n0 + 1
        first = 0 if n0 == degrees[0] else nmaps - 2
        # face maps C_n -> C_{n-1} and their transposes, the cofaces
        rows, cols = A.dim ** n0, A.dim ** (n0 + 1)
        if cochains:
            rows, cols = A.dim ** (n0 + 2), A.dim ** (n0 + 1)
        moves.append((n0, data.draw(st.integers(first, nmaps - 1)),
                      data.draw(st.integers(0, rows - 1)),
                      data.draw(st.integers(0, cols - 1)),
                      data.draw(st.sampled_from(CHANGES))))
    _build_with_moved_entries(A, cochains, moves, top)


# each case moves entries of delta_{n-1} and delta_n of the top degree, or
# of degree 1's faces, the maps a build takes from the structure maps;
# `square` is the d o d each move alone breaks first, `first` the pair
# all of them together are named by
@pytest.mark.parametrize("make,cochains,moves,square,first", [
    (two_dim_unital, False, [(3, 2, 1, 0, 1), (3, 3, 2, 0, 1)], 3,
     "n=3, i=1, j=2"),
    (two_dim_unital, True, [(2, 2, 0, 1, 1), (2, 3, 0, 2, 1)], 1,
     "n=3, i=1, j=2"),
    (truncated_polynomials, False,
     [(3, 2, 22, 0, 1), (3, 3, 8, 0, -1), (3, 3, 16, 0, 1)], 3,
     "n=3, i=1, j=2"),
    (truncated_polynomials, True,
     [(2, 2, 0, 22, 1), (2, 3, 0, 8, -1), (2, 3, 0, 16, 1)], 1,
     "n=3, i=1, j=2"),
    (two_dim_unital, False, [(1, 0, 1, 0, 1), (1, 1, 1, 0, 1)], 2,
     "n=3, i=0, j=2"),
], ids=["faces-2dim", "cofaces-2dim", "faces-3dim", "cofaces-3dim",
        "faces-degree-1"])
def test_pairs_are_checked_in_order(make, cochains, moves, square, first):
    """Each move alone changes the differential so that d o d fails, and
    the build names that first, as the reference does.  Together the
    moves leave d o d = 0 and break pairs of the last degree checked,
    and none before.  In the first four cases they break (1, 2) and
    (0, 3), among others but not (0, 2): the check names (1, 2), which
    it reaches first, j outer, then i; with i outer it would name (0, 3).
    Over the 3-dimensional k[x]/(x^3) one entry of delta_2 is balanced
    by two of delta_3.
    Cofaces are named by W's face pairs (n + 2, j, i), in the same
    order.  In the last case the moved degree-1 faces break d o d out of
    degree 2 alone; together they pass every pair of degree 2, but the
    recurrence carries them into delta_0 of degrees 2 and 3, and pair
    (0, 2) of degree 3 fails."""
    A = make()
    for move in moves:
        assert _build_with_moved_entries(A, cochains, [move], 3) == \
            (BoundarySquareError, f"d o d != 0 out of degree {square}")
    assert _build_with_moved_entries(A, cochains, moves, 3) == \
        (IdentityViolationError, "presimplicial identity fails at " + first)
