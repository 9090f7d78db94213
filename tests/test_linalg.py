"""Exact linear algebra: rref, rank, kernel, image, subspaces."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homcyc.linalg import (Matrix, NotASubspaceError, Subspace, image, kernel,
                           quotient_dim, rank, reduce_mod, rref,
                           scalar_from_string, scalar_to_string,
                           solve_homogeneous)

F = Fraction


def small_matrices(max_dim=5, max_num=6):
    shapes = st.tuples(st.integers(1, max_dim), st.integers(1, max_dim))
    return shapes.flatmap(
        lambda s: st.lists(
            st.lists(st.fractions(min_value=-max_num, max_value=max_num,
                                  max_denominator=4),
                     min_size=s[1], max_size=s[1]),
            min_size=s[0], max_size=s[0]).map(Matrix.from_rows))


def matrices(rows, cols, max_num=6):
    return st.lists(
        st.lists(st.fractions(min_value=-max_num, max_value=max_num,
                              max_denominator=4),
                 min_size=cols, max_size=cols),
        min_size=rows, max_size=rows).map(Matrix.from_rows)


def low_rank_matrices(max_dim=6):
    """Products through an inner dimension of at most 2, so mostly
    rank-deficient, which plain random matrices rarely are."""
    shapes = st.tuples(st.integers(1, max_dim), st.integers(1, 2),
                       st.integers(1, max_dim))
    return shapes.flatmap(lambda s: st.tuples(
        matrices(s[0], s[1]), matrices(s[1], s[2])).map(lambda ab: ab[0] @ ab[1]))


def test_scalar_round_trip():
    for s in ["0", "1", "-3", "2/7", "-11/4"]:
        assert scalar_to_string(scalar_from_string(s)) == s


def test_matrix_basic_ops():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.identity(2)
    assert a @ b == a
    assert (a - a).is_zero()
    assert a.transpose().transpose() == a
    assert a.apply((F(1), F(0))) == (F(1), F(3))
    assert (a + (-a)).is_zero()
    assert a.scale(2)[0, 1] == F(4)


def test_col_reads_one_column_and_rejects_out_of_range():
    a = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert [a.col(j) for j in range(3)] == [(F(1), F(4)), (F(2), F(5)),
                                            (F(3), F(6))]
    for j in (-1, 3, 4):
        with pytest.raises(IndexError):
            a.col(j)
    with pytest.raises(IndexError):
        Matrix.zero(2, 0).col(0)


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        Matrix.identity(2) @ Matrix.identity(3)


def test_rref_known():
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    r, pivots, rk = rref(m)
    assert rk == 2
    assert pivots == (0, 1)
    assert r.row(0) == (F(1), F(0), F(-1))
    assert r.row(1) == (F(0), F(1), F(2))


def test_kernel_known():
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6]])
    k = kernel(m)
    assert k.dim == 2
    for v in k.basis:
        assert not any(m.apply(v))


def test_image_known():
    m = Matrix.from_rows([[1, 0], [0, 0], [2, 0]])
    im = image(m)
    assert im.dim == 1
    assert im.contains((F(1), F(0), F(2)))
    assert not im.contains((F(0), F(1), F(0)))


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_rank_nullity(m):
    assert rank(m) + kernel(m).dim == m.cols


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_rref_idempotent(m):
    r1, p1, k1 = rref(m)
    r2, p2, k2 = rref(r1)
    assert (r1, p1, k1) == (r2, p2, k2)


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_kernel_vectors_annihilated(m):
    for v in kernel(m).basis:
        assert not any(m.apply(v))


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_image_contains_columns(m):
    im = image(m)
    assert im.dim == rank(m)
    for j in range(m.cols):
        assert im.contains(m.col(j))


@settings(max_examples=40, deadline=None)
@given(small_matrices(max_dim=4))
def test_reduce_mod_is_canonical(m):
    im = image(m)
    for j in range(m.cols):
        assert not any(reduce_mod(im, m.col(j)))


def test_subspace_coordinates_round_trip():
    s = Subspace.from_vectors(3, [(F(1), F(2), F(0)), (F(0), F(0), F(1))])
    v = (F(2), F(4), F(-5))
    coords = s.coordinates(v)
    rebuilt = [F(0)] * 3
    for c, b in zip(coords, s.basis):
        rebuilt = [r + c * x for r, x in zip(rebuilt, b)]
    assert tuple(rebuilt) == v
    with pytest.raises(NotASubspaceError):
        s.coordinates((F(0), F(1), F(0)))


def test_quotient_dim():
    small = Subspace.from_vectors(3, [(F(1), F(0), F(0))])
    big = Subspace.from_vectors(3, [(F(1), F(0), F(0)), (F(0), F(1), F(0))])
    assert quotient_dim(small, big) == 1
    with pytest.raises(NotASubspaceError):
        quotient_dim(big, small)


def test_solve_homogeneous():
    sol = solve_homogeneous([[F(1), F(-1), F(0)]], 3)
    assert sol.dim == 2
    assert sol.contains((F(1), F(1), F(0)))
    assert solve_homogeneous([], 3).dim == 3


def test_zero_and_degenerate_shapes():
    z = Matrix.zero(0, 3)
    assert kernel(z).dim == 3
    z2 = Matrix.zero(3, 0)
    assert image(z2).dim == 0
    assert rank(Matrix.zero(2, 2)) == 0


@settings(max_examples=80, deadline=None)
@given(st.one_of(small_matrices(), low_rank_matrices()))
def test_rank_matches_rref_and_transpose(m):
    assert rank(m) == rref(m)[2] == rank(m.transpose())


# --- the integer product kernel behind `@` and `apply` ---------------------

ENTRIES = st.one_of(st.just(F(0)),
                    st.fractions(min_value=-8, max_value=8, max_denominator=12))


# numerators around 2^31 and 2^70: products near and past the 63-bit
# slots of the packed product
WIDE_ENTRIES = st.one_of(ENTRIES, st.builds(
    F, st.one_of(st.integers(-2 ** 32, 2 ** 32), st.integers(-2 ** 70, 2 ** 70)),
    st.integers(1, 12)))


@st.composite
def exact_matrices(draw, rows, cols, elements=ENTRIES):
    """Entries drawn from `elements` (by default with denominators up to
    12), with some whole rows and columns set to zero."""
    entries = [[draw(elements) for _ in range(cols)] for _ in range(rows)]
    zero_rows = draw(st.sets(st.integers(0, rows - 1))) if rows else set()
    zero_cols = draw(st.sets(st.integers(0, cols - 1))) if cols else set()
    return Matrix(rows, cols, tuple(
        F(0) if i in zero_rows or j in zero_cols else entries[i][j]
        for i in range(rows) for j in range(cols)))


@st.composite
def product_operands(draw, max_dim=4, elements=ENTRIES):
    n, k, m = (draw(st.integers(0, max_dim)) for _ in range(3))
    return draw(exact_matrices(n, k, elements)), \
        draw(exact_matrices(k, m, elements))


def naive_product(a, b):
    return [[sum((a[i, k] * b[k, j] for k in range(a.cols)), F(0))
             for j in range(b.cols)] for i in range(a.rows)]


@settings(max_examples=150, deadline=None)
@given(product_operands())
def test_matmul_matches_naive_fraction_product(ab):
    a, b = ab
    c = a @ b
    assert (c.rows, c.cols) == (a.rows, b.cols)
    assert c.to_rows() == naive_product(a, b)
    assert all(type(x) is F for x in c.entries)


@settings(max_examples=100, deadline=None)
@given(product_operands(max_dim=5, elements=WIDE_ENTRIES))
def test_matmul_with_wide_entries_matches_naive_product(ab):
    """Dense operands whose products may or may not fit the packed
    product's 63-bit slots give the plain Fraction product either way."""
    a, b = ab
    assert (a @ b).to_rows() == naive_product(a, b)


@pytest.mark.parametrize("big", [2 ** 30, 2 ** 31])
def test_matmul_at_the_packed_slot_bound(big):
    """Sums of three products of size 2^60 fit a 63-bit slot, with
    either sign; at 2^62 the plain path takes over."""
    a = Matrix.from_rows([[big, -big, big], [-big, -big, -big],
                          [big, big, big]])
    b = Matrix.from_rows([[big, -big], [big, big], [-big, -big]])
    assert (a @ b).to_rows() == naive_product(a, b)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5).flatmap(lambda k: st.tuples(
    st.integers(0, 5).flatmap(lambda n: exact_matrices(n, k)),
    st.lists(ENTRIES, min_size=k, max_size=k))))
def test_apply_matches_naive_fraction_product(mv):
    m, v = mv
    out = m.apply(v)
    column = Matrix(len(v), 1, tuple(v))
    assert list(out) == [r[0] for r in naive_product(m, column)]
    assert all(type(x) is F for x in out)


@pytest.mark.parametrize("n,k,m", [(0, 3, 2), (2, 0, 3), (3, 2, 0),
                                   (0, 0, 0), (1, 1, 1)])
def test_product_degenerate_shapes(n, k, m):
    a = Matrix(n, k, tuple(F(i + 1, 2) for i in range(n * k)))
    b = Matrix(k, m, tuple(F(-1, i + 3) for i in range(k * m)))
    c = a @ b
    assert (c.rows, c.cols) == (n, m)
    assert c.to_rows() == naive_product(a, b)
    assert all(type(x) is F for x in c.entries)
    assert a.apply((F(1, 3),) * k) == tuple(
        sum((a[i, j] * F(1, 3) for j in range(k)), F(0)) for i in range(n))


@settings(max_examples=80, deadline=None)
@given(st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(
    lambda s: st.lists(st.lists(st.integers(-9, 9), min_size=s[1],
                                max_size=s[1]), min_size=s[0], max_size=s[0])
    .map(lambda rows: (s, rows))))
def test_int_and_fraction_entries_agree(shape_rows):
    (n, k), rows = shape_rows
    ints = Matrix(n, k, tuple(x for r in rows for x in r))
    fracs = Matrix(n, k, tuple(F(x) for r in rows for x in r))
    assert rank(ints) == rank(fracs)
    prod = ints @ ints.transpose()
    assert prod == fracs @ fracs.transpose()
    assert all(type(x) is F for x in prod.entries)
    assert ints.apply((1,) * k) == fracs.apply((F(1),) * k)
