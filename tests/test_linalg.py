"""Exact linear algebra: rref, rank, kernel, image, subspaces."""

import operator
from fractions import Fraction
from math import lcm

import pytest
import reference_operators as ref
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homcyc.algebra import scalar_from_string
from homcyc.coefficients import solve_homogeneous
from homcyc.complexes import total_complex
from homcyc.corpus import two_dim_unital
from homcyc.cyclic import cyclic_bicomplex
from homcyc.linalg import (Matrix, NotASubspaceError, Subspace, block_matrix,
                           descend, image, kernel, kron, permute_columns,
                           power_sum, quotient_dim, rank, reduce_mod,
                           restrict, rref, signed_permutation, signed_sum,
                           swap_slots, vanishes)

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
        assert str(scalar_from_string(s)) == s


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
    assert reduce_mod(im, m).is_zero()


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
def exact_entries(draw, rows, cols, elements=ENTRIES):
    """Dense rows of entries drawn from `elements` (by default with
    denominators up to 12), with some whole rows and columns set to
    zero."""
    entries = [[draw(elements) for _ in range(cols)] for _ in range(rows)]
    zero_rows = draw(st.sets(st.integers(0, rows - 1))) if rows else set()
    zero_cols = draw(st.sets(st.integers(0, cols - 1))) if cols else set()
    return [[F(0) if i in zero_rows or j in zero_cols else entries[i][j]
             for j in range(cols)] for i in range(rows)]


def from_dense(rows, cols, dense):
    return Matrix(rows, cols, tuple(x for r in dense for x in r))


def exact_matrices(rows, cols, elements=ENTRIES):
    """`exact_entries` as a Matrix."""
    return exact_entries(rows, cols, elements).map(
        lambda dense: from_dense(rows, cols, dense))


@st.composite
def product_operands(draw, max_dim=4, elements=ENTRIES):
    n, k, m = (draw(st.integers(0, max_dim)) for _ in range(3))
    return draw(exact_matrices(n, k, elements)), \
        draw(exact_matrices(k, m, elements))


def naive_product(a, b):
    return [[sum((a[i, k] * b[k, j] for k in range(a.cols)), F(0))
             for j in range(b.cols)] for i in range(a.rows)]


def slot_edge(top):
    """Two rows times a dense right factor whose products reach +-top:
    the largest |entry| of the product is exactly its slot bound, so
    top = 2^15 - 1 fits a 16-bit slot and 2^15 and 2^31 do not fit
    16 and 32 bits.  The first product sums two terms (7 = 3 + 4 times
    top / 7) when 7 divides top."""
    if top % 7 == 0:
        return (Matrix.from_rows([[3, 4], [-3, -4]]),
                Matrix.from_rows([[top // 7, 1], [top // 7, -1]]))
    return (Matrix.from_rows([[1], [-1]]), Matrix.from_rows([[top, -1]]))


# a product whose rows, over 7, are (65536, -1): in 16-bit slots they
# would cancel, so the slot bound must take in the denominators
SEVENTHS = (Matrix.from_rows([[1, 1], [1, 1]]),
            Matrix.from_rows([[9362, 0], [F(2, 7), F(-1, 7)]]))


@settings(max_examples=150, deadline=None)
@given(product_operands())
@example(slot_edge(2 ** 15 - 1))
@example(slot_edge(2 ** 15))
@example(slot_edge(2 ** 31))
def test_matmul_matches_naive_fraction_product(ab):
    a, b = ab
    c = a @ b
    assert (c.rows, c.cols) == (a.rows, b.cols)
    assert c.to_rows() == naive_product(a, b)
    assert all(type(x) is F for x in c.entries)


@settings(max_examples=100, deadline=None)
@given(product_operands(max_dim=5, elements=WIDE_ENTRIES))
@example(slot_edge(7 * 4681))  # 2^15 - 1 as 3 * 4681 + 4 * 4681
@example(SEVENTHS)
@example((Matrix.from_rows([[F(1, 2), 3], [-1, F(2, 3)]]),
          Matrix.from_rows([[2 ** 15, -1], [F(1, 5), 2 ** 31]])))
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


# --- vanishes: a signed sum of products, tested for zero -----------------

NONZERO = st.fractions(min_value=-6, max_value=6,
                       max_denominator=6).filter(bool)


@st.composite
def product_sums(draw):
    """One or two (sign, a, b) terms of one shape, dense or sparse, with
    entries that have denominators, some past the packed product's
    63-bit slots.  A second term is independent, or the first product
    again ("same"), or the first product as a.scale(c) @ b.scale(1/c)
    with the sign flipped, so its rows have other denominators but the
    sum vanishes ("rescaled"); "nudged" then moves one entry of a by 1.
    """
    elements = draw(st.sampled_from([ENTRIES, WIDE_ENTRIES]))
    n, k, m = (draw(st.integers(0, 4)) for _ in range(3))
    a, b = draw(exact_matrices(n, k, elements)), \
        draw(exact_matrices(k, m, elements))
    sign = draw(st.sampled_from([1, -1]))
    kind = draw(st.sampled_from(
        ["one", "independent", "same", "rescaled", "nudged"]))
    terms = [(sign, a, b)]
    if kind == "independent":
        terms.append((draw(st.sampled_from([1, -1])),
                      draw(exact_matrices(n, k, elements)),
                      draw(exact_matrices(k, m, elements))))
    elif kind == "same":
        terms.append((-sign, a, b))
    elif kind in ("rescaled", "nudged"):
        c = draw(NONZERO)
        a2 = a.scale(c)
        if kind == "nudged" and n and k:
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, k - 1))
            a2 = a2 + Matrix(n, k, tuple(int((r, s) == (i, j))
                                         for r in range(n) for s in range(k)))
        terms.append((-sign, a2, b.scale(1 / c)))
    return terms


def edge_sum(top):
    """Two terms whose sum has entries +-top, with a summed slot bound of
    exactly top: at 2^15 - 1 the sum is decided in 16-bit slots."""
    a, h = Matrix.from_rows([[1], [-1]]), top // 2
    return [(1, a, Matrix.from_rows([[top - h, 1]])),
            (1, a, Matrix.from_rows([[h, -1]]))]


def doubled_edge(top):
    """slot_edge(top) twice: each term fits its slot, the sum does not."""
    a, b = slot_edge(top)
    return [(1, a, b), (1, a, b)]


COLUMN = Matrix.from_rows([[1], [2]])
HALVES = Matrix.from_rows([[F(1, 2), 1], [F(-1, 3), 2]])
DENSE = Matrix.from_rows([[1, 2], [3, F(-4, 5)]])


@settings(max_examples=300, deadline=None)
@given(product_sums())
@example(edge_sum(2 ** 15 - 1))
@example(edge_sum(2 ** 15))
@example(edge_sum(2 ** 31))
@example(doubled_edge(7 * 4681))
# two terms that each overflow a 16-bit slot and cancel, or do not
@example([(1, COLUMN, Matrix.from_rows([[40000, 1]])),
          (-1, COLUMN.scale(2), Matrix.from_rows([[20000, F(1, 2)]]))])
@example([(1, COLUMN, Matrix.from_rows([[40000, 1]])),
          (-1, COLUMN.scale(2), Matrix.from_rows([[20001, F(1, 2)]]))])
# one product against itself with its rows over other denominators
@example([(1, HALVES, DENSE), (-1, HALVES.scale(F(1, 4)), DENSE.scale(4))])
@example([(1, HALVES, DENSE), (1, HALVES.scale(F(1, 4)), DENSE.scale(-4))])
@example([(1, HALVES, DENSE), (-1, HALVES.scale(6), DENSE.scale(F(1, 7)))])
# rows (65536, -1) over 7, whose 16-bit slots would cancel: the bound
# must take in the row denominators of the sum and of the right factor
@example([(1, Matrix.from_rows([[1], [1]]), Matrix.from_rows([[9362, 0]])),
          (1, Matrix.from_rows([[F(1, 7)], [F(1, 7)]]),
           Matrix.from_rows([[2, -1]]))])
@example([(1, *SEVENTHS)])
def test_vanishes_matches_the_sum_of_products(terms):
    """vanishes is the sum of sign * (a @ b), built as matrices, tested
    with `is_zero`."""
    sign, a, b = terms[0]
    total = (a @ b).scale(sign)
    for sign, a, b in terms[1:]:
        total = total + (a @ b).scale(sign)
    assert vanishes(*terms) == total.is_zero()


def test_vanishes_takes_the_packed_product(monkeypatch):
    """A sum with a dense right factor compares packed integers: each
    right factor is packed once per slot width and kept on it, so
    repeated checks reuse the packing.  Sparse right factors, and sums
    whose slot bound passes 63 bits, take the dict sums.  `@` is a plain
    sparse row product: it packs nothing.  The verdict is exact on
    either path."""
    import homcyc.linalg as linalg
    packed, summed = [], []
    pack, row_sums = linalg._packing, linalg._row_sums
    monkeypatch.setattr(linalg, "_packing",
                        lambda b, w: packed.append(w) or pack(b, w))
    monkeypatch.setattr(linalg, "_row_sums",
                        lambda *args: summed.append(1) or row_sums(*args))
    a = Matrix.from_rows([[1, F(1, 2)], [F(-1, 3), 2], [0, 0]])
    b = Matrix.from_rows([[2, -1, F(1, 4)], [3, 5, -2]])
    a3, b3 = a.scale(3), b.scale(F(1, 3))
    assert vanishes((1, a, b), (-1, a3, b3))
    kept = vars(b)["_packs"][16]
    for _ in range(3):
        assert vanishes((1, a, b), (-1, a3, b3))
        assert not vanishes((1, a, b), (-1, a, b.scale(2)))
    assert set(packed) == {16} and not summed
    assert list(vars(b)["_packs"]) == [16] and vars(b)["_packs"][16] is kept
    # the narrowest width that holds the summed bound
    wide = Matrix.from_rows([[40000, -1], [1, 40000]])
    assert vanishes((1, a, wide), (-1, a, wide))
    assert not vanishes((1, a, wide), (1, a, wide))
    assert list(vars(wide)["_packs"]) == [32] and not summed
    big = Matrix.from_rows([[2 ** 40, 1], [1, -2 ** 40]])
    square = big @ big
    packed.clear()
    assert vanishes((1, big, big), (-1, square, Matrix.identity(2)))
    assert not vanishes((1, big, big), (-1, big, Matrix.identity(2)))
    assert not packed and summed
    summed.clear()
    sparse = Matrix.identity(8)
    assert not vanishes((1, sparse, sparse))
    assert vanishes((1, sparse, sparse), (-1, sparse, sparse))
    assert not packed and summed
    assert "_packs" not in vars(sparse)
    # a dense right factor of @ is summed row by row and left unpacked
    dense = b.scale(5)
    summed.clear()
    assert (a @ dense).to_rows() == naive_product(a, dense)
    assert not packed and summed and "_packs" not in vars(dense)


def test_vanishes_edge_cases():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    assert vanishes()
    assert vanishes((1, Matrix.zero(3, 2), a))
    assert vanishes((1, Matrix.zero(0, 2), a), (-1, Matrix.zero(0, 2), a))
    assert vanishes((1, Matrix.zero(2, 0), Matrix.zero(0, 3)))
    assert not vanishes((1, a, Matrix.identity(2)))
    with pytest.raises(ValueError, match="shape mismatch in @"):
        vanishes((1, a, Matrix.zero(3, 2)))
    with pytest.raises(ValueError, match="shape mismatch in \\+"):
        vanishes((1, a, a), (-1, a, Matrix.zero(2, 3)))


# --- Kronecker products packed from their factors -------------------------

def packed_reference(m, w):
    """Row k of m packed at width w, from its Fraction rows: sum_j y_j
    2^(w j), y_j the entry in column j times the lcm of m's
    denominators."""
    dn = lcm(*(x.denominator for x in m.entries))
    return [sum(int(x * dn) << w * j for j, x in enumerate(row))
            for row in m.to_rows()]


def factors(max_dim=3):
    """A drawn factor: entries with denominators up to 12 and either
    sign, some rows and columns zero, sometimes 1 x 1."""
    return st.one_of(shapes(max_dim), st.just((1, 1))).flatmap(
        lambda s: exact_matrices(*s))


@st.composite
def kron_products(draw):
    """kron of two drawn factors, or of three nested either way."""
    a, b = draw(factors()), draw(factors())
    if draw(st.booleans()):
        return kron(a, b)
    c = draw(factors())
    return kron(kron(a, b), c) if draw(st.booleans()) else \
        kron(a, kron(b, c))


# over 2 and over 1, and their product over 1: the packed product of the
# factors is twice the packed rows, and must be halved
HALF_ROWS = Matrix.from_rows([[F(1, 2), F(-1, 2)], [1, 0]])
EVEN_ROWS = Matrix.from_rows([[2, 4], [-6, 2]])


@settings(max_examples=150, deadline=None)
@given(kron_products(), st.sampled_from([16, 32, 64, 21]))
@example(kron(HALF_ROWS, EVEN_ROWS), 16)
@example(kron(kron(HALF_ROWS, Matrix.from_rows([[F(-5, 3)]])), EVEN_ROWS),
         21)
@example(kron(EVEN_ROWS, kron(HALF_ROWS, EVEN_ROWS)), 64)
def test_kron_is_packed_from_its_factors(m, w):
    """A Kronecker product's packed rows, built from its factors, are
    those of the same matrix rebuilt from its rows, which has none, and
    the shift sums of its entries over their common denominator, at any
    width."""
    from homcyc.linalg import _packing
    flat = Matrix.from_rows(m.to_rows())
    assert "_factors" not in vars(flat)
    assert _packing(m, w) == _packing(flat, w) == packed_reference(m, w)


def test_kron_keeps_its_innermost_factors():
    """Nested products keep their innermost factors, left to right; a
    1 x 1 left factor, as in `scale` and `-m`, keeps none, and neither
    does a product too sparse for `vanishes` to pack."""
    a, b = Matrix.from_rows([[1, 2]]), Matrix.from_rows([[3], [F(1, 2)]])
    c, one = Matrix.from_rows([[1, -1], [0, 2]]), Matrix(1, 1, [F(-3, 4)])
    for m in (kron(kron(a, b), c), kron(a, kron(b, c))):
        assert all(map(operator.is_, m._factors, (a, b, c)))
    assert all(map(operator.is_, kron(c, one)._factors, (c, one)))
    for m in (kron(one, c), kron(Matrix(1, 1, [2]), kron(a, b)), c.scale(5),
              -c, kron(a, b).scale(F(1, 2)),
              kron(Matrix.identity(4), Matrix.identity(4))):
        assert "_factors" not in vars(m)


@st.composite
def kron_sums(draw):
    """Terms (sign, a, b) whose right factors are Kronecker products: b
    alone, or against itself, or against its rows rebuilt (vanishing),
    or against those rows with one entry moved by 1."""
    b = draw(kron_products())
    a = draw(exact_matrices(draw(st.integers(1, 4)), b.rows))
    flat = Matrix(b.rows, b.cols, b.entries)
    kind = draw(st.sampled_from(["one", "same", "flat", "nudged"]))
    if kind == "one":
        return [(draw(st.sampled_from([1, -1])), a, b)]
    if kind == "nudged" and b.rows and b.cols:
        i = draw(st.integers(0, b.rows - 1))
        j = draw(st.integers(0, b.cols - 1))
        flat = flat + Matrix(b.rows, b.cols, tuple(
            int((r, s) == (i, j))
            for r in range(b.rows) for s in range(b.cols)))
    return [(1, a, b), (-1, a, b if kind == "same" else flat)]


LEFT = Matrix.from_rows([[1, F(1, 3), 0, 2], [-1, 1, 1, F(1, 2)]])


def kron_edge(terms):
    """terms with each right factor b replaced by b (x) (1, -1): the same
    slot bound, reached in twice the columns."""
    pair = Matrix.from_rows([[1, -1]])
    return [(s, a, kron(b, pair)) for s, a, b in terms]


@settings(max_examples=200, deadline=None)
@given(kron_sums())
@example(kron_edge(edge_sum(2 ** 15 - 1)))
@example(kron_edge(edge_sum(2 ** 15)))
@example(kron_edge(edge_sum(2 ** 31)))
@example(kron_edge(doubled_edge(7 * 4681)))
@example(kron_edge([(1, *slot_edge(2 ** 15 - 1)),
                    (-1, *slot_edge(2 ** 15 - 1))]))
@example([(1, LEFT, kron(HALF_ROWS, EVEN_ROWS)),
          (-1, LEFT, Matrix(4, 4, kron(HALF_ROWS, EVEN_ROWS).entries))])
def test_vanishes_with_kronecker_right_factors(terms):
    """vanishes on Kronecker right factors, packed from their factors
    when dense, is the sum of sign * (a @ b) tested with `is_zero`, also
    where the sum's entries reach the slot bound."""
    total = signed_sum((s, a @ b) for s, a, b in terms)
    assert vanishes(*terms) == total.is_zero()


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


# --- the row form: every operation against dense Fraction rows ----------

def shapes(max_dim=4):
    return st.tuples(st.integers(0, max_dim), st.integers(0, max_dim))


@st.composite
def dense_pairs(draw, max_dim=4):
    """Two dense matrices of one shape, as (rows, cols, a, b)."""
    r, c = draw(shapes(max_dim))
    return r, c, draw(exact_entries(r, c)), draw(exact_entries(r, c))


def assert_canonical(m):
    """Each row: columns ascending, entries nonzero, in lowest terms over
    the lcm of the reduced denominators."""
    assert len(m._int_rows) == m.rows
    for d, ks, xs in m._int_rows:
        assert list(ks) == sorted(set(ks)) and all(0 <= k < m.cols for k in ks)
        assert len(ks) == len(xs) and all(xs) and d > 0
        assert d == lcm(*(F(x, d).denominator for x in xs))


def assert_is(m, rows, cols, dense):
    """m is the rows x cols matrix with these dense rows, in every view."""
    assert (m.rows, m.cols) == (rows, cols)
    assert_canonical(m)
    assert m.to_rows() == dense
    assert m.entries == tuple(x for r in dense for x in r)
    assert all(type(x) is F for x in m.entries)
    for i in range(rows):
        assert m.row(i) == tuple(dense[i])
        for j in range(cols):
            assert m[i, j] == dense[i][j] and type(m[i, j]) is F
    for j in range(cols):
        assert m.col(j) == tuple(r[j] for r in dense)
    assert m == from_dense(rows, cols, dense)
    assert hash(m) == hash(from_dense(rows, cols, dense))


@settings(max_examples=120, deadline=None)
@given(dense_pairs(), st.fractions(min_value=-5, max_value=5,
                                   max_denominator=7))
def test_row_operations_match_dense_reference(pair, c):
    r, k, a, b = pair
    ma, mb = from_dense(r, k, a), from_dense(r, k, b)
    assert_is(ma, r, k, a)
    assert_is(ma + mb, r, k, [[x + y for x, y in zip(p, q)]
                              for p, q in zip(a, b)])
    assert_is(ma - mb, r, k, [[x - y for x, y in zip(p, q)]
                              for p, q in zip(a, b)])
    assert_is(-ma, r, k, [[-x for x in p] for p in a])
    assert_is(ma.scale(c), r, k, [[c * x for x in p] for p in a])
    assert_is(ma.scale(0), r, k, [[F(0)] * k for _ in a])
    assert_is(ma.transpose(), k, r, [[p[j] for p in a] for j in range(k)])
    assert (ma - ma).is_zero() and (ma + (-ma)).is_zero()
    assert ma.is_zero() == (not any(x for p in a for x in p))


@settings(max_examples=80, deadline=None)
@given(st.tuples(shapes(3), shapes(3)).flatmap(lambda s: st.tuples(
    st.just(s), exact_entries(*s[0]), exact_entries(*s[1]))))
def test_kron_matches_dense_reference(case):
    ((ra, ca), (rb, cb)), a, b = case
    dense = [[a[i // rb][j // cb] * b[i % rb][j % cb]
              for j in range(ca * cb)] for i in range(ra * rb)]
    assert_is(kron(from_dense(ra, ca, a), from_dense(rb, cb, b)),
              ra * rb, ca * cb, dense)


@settings(max_examples=80, deadline=None)
@given(shapes().flatmap(lambda s: st.tuples(st.just(s),
                                            exact_entries(s[1], s[0]))))
def test_from_columns_matches_dense_reference(case):
    (r, k), cols = case  # k columns of length r
    assert_is(Matrix.from_columns(r, cols), r, k,
              [[col[i] for col in cols] for i in range(r)])


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(
    st.permutations(range(n)), exact_entries(n, n),
    st.lists(st.sampled_from([F(1), F(-1), F(2), F(-1, 3), F(5, 2)]),
             min_size=n, max_size=n))), st.sampled_from([1, -1]))
def test_row_by_row_builders_match_dense_reference(case, sign):
    """`signed_permutation`, `power_sum` of it with weights (1, -1), which
    is Id - p, the same of a matrix with one entry per row, which raises
    unless each entry is 1 or -1, and `permute_columns`, each written
    row by row, against dense references."""
    perm, a, xs = case
    n = len(perm)
    ident = [[F(i == j) for j in range(n)] for i in range(n)]
    p = [[F(sign) * (j == perm[i]) for j in range(n)] for i in range(n)]
    assert_is(signed_permutation(perm, sign), n, n, p)
    assert_is(Matrix.identity(n), n, n, ident)
    assert_is(power_sum(signed_permutation(perm, sign), (1, -1)), n, n,
              [[x - y for x, y in zip(r, s)] for r, s in zip(ident, p)])
    q = [[xs[i] * (j == perm[i]) for j in range(n)] for i in range(n)]
    if all(x in (1, -1) for x in xs):
        assert_is(power_sum(from_dense(n, n, q), (1, -1)), n, n,
                  [[x - y for x, y in zip(r, s)] for r, s in zip(ident, q)])
    else:
        with pytest.raises(ValueError):
            power_sum(from_dense(n, n, q), (1, -1))
    assert_is(permute_columns(from_dense(n, n, a), perm), n, n,
              [[r[perm.index(j)] for j in range(n)] for r in a])


def test_power_sum_takes_one_signed_unit_per_row():
    for rows in ([[1, 1], [0, 1]], [[0, 0], [0, 1]], [[2, 0], [0, 1]],
                 [[F(1, 2), 0], [0, 1]], [[0, 1, 0], [1, 0, 0]]):
        with pytest.raises(ValueError):
            power_sum(Matrix.from_rows(rows), (1, -1))


@st.composite
def signed_permutations(draw, max_n=8):
    """(perm, signs): a permutation of range(n), n <= max_n, fixing a
    drawn set of points and permuting the rest, and a sign per row."""
    n = draw(st.integers(0, max_n))
    fixed = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    image = iter(draw(st.permutations([r for r in range(n) if not fixed[r]])))
    perm = [r if fixed[r] else next(image) for r in range(n)]
    return perm, draw(st.lists(st.sampled_from([1, -1]), min_size=n,
                               max_size=n))


@settings(max_examples=120, deadline=None)
@given(signed_permutations(), st.lists(st.integers(-4, 4), max_size=10))
@example(([], []), [1, 2])
@example(([0, 1, 2], [1, 1, 1]), [])
@example(([1, 0, 2], [-1, 1, -1]), [0, 3, 0, -2])
@example(([2, 0, 1, 3], [1, -1, 1, -1]), [1, -1])
def test_power_sum_matches_dense_powers(case, weights):
    """`power_sum` against the dense sum of the powers of a signed
    permutation, with zero, negative and empty weight lists."""
    perm, signs = case
    n = len(perm)
    p = [[F(signs[i]) * (j == perm[i]) for j in range(n)] for i in range(n)]
    power = [[F(i == j) for j in range(n)] for i in range(n)]
    total = [[F(0)] * n for _ in range(n)]
    for w in weights:
        total = [[x + w * y for x, y in zip(r, s)]
                 for r, s in zip(total, power)]
        power = [[sum((x * p[k][j] for k, x in enumerate(r)), F(0))
                  for j in range(n)] for r in power]
    assert_is(power_sum(from_dense(n, n, p), weights), n, n, total)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.integers(1, 7))
@example(1, 5)
@example(4, 1)
@example(1, 1)
def test_swap_slots_moves_the_first_slot_to_the_back(p, q):
    """Index a * q + b of Q^p (x) Q^q goes to b * p + a of Q^q (x) Q^p,
    decoded and encoded digit by digit."""
    perm = swap_slots(p, q)
    assert sorted(perm) == list(range(p * q))
    for a in range(p):
        for b in range(q):
            assert perm[a * q + b] == b * p + a


def test_from_columns_without_columns_and_ragged():
    assert_is(Matrix.from_columns(3, []), 3, 0, [[], [], []])
    assert Matrix.from_columns(3, []) == Matrix.zero(3, 0)
    assert Matrix.from_columns(0, [(), ()]) == Matrix.zero(0, 2)
    with pytest.raises(ValueError):
        Matrix.from_columns(2, [(F(1), F(2)), (F(1),)])


def test_block_matrix_merges_rows_at_different_denominators():
    a = Matrix.from_rows([[F(1, 2), 0], [0, F(-3, 4)]])
    b = Matrix.from_rows([[F(2, 3)], [F(5)]])
    m = block_matrix(3, 4, [(a, 1, 0), (b, 1, 3)])
    assert_is(m, 3, 4, [[F(0)] * 4,
                        [F(1, 2), F(0), F(0), F(2, 3)],
                        [F(0), F(-3, 4), F(0), F(5)]])
    assert m._int_rows[1] == (6, (0, 3), (3, 4))
    assert_is(block_matrix(2, 0, []), 2, 0, [[], []])


@settings(max_examples=80, deadline=None)
@given(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
                 st.integers(0, 2), st.integers(0, 2)).flatmap(
    lambda s: st.tuples(st.just(s), exact_entries(s[0], s[1]),
                        exact_entries(s[0], s[2]))))
def test_block_matrix_matches_dense_reference(case):
    (r, ca, cb, top, gap), a, b = case
    rows, cols = r + top + 1, ca + gap + cb
    dense = [[F(0)] * cols for _ in range(rows)]
    for i in range(r):
        dense[top + i][:ca] = a[i]
        dense[top + i][ca + gap:] = b[i]
    m = block_matrix(rows, cols, [(from_dense(r, ca, a), top, 0),
                                  (from_dense(r, cb, b), top, ca + gap)])
    assert_is(m, rows, cols, dense)



# --- rows over denominator 1 next to rows over m > 1 --------------------

UNIT_ENTRIES = st.integers(-3, 3).map(F)
SPLIT_ENTRIES = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def mixed_entries(draw, rows, cols):
    """Dense rows, each either all integers, a row over denominator 1,
    or drawn with denominators up to 6, so one matrix mixes rows over
    m = 1 with rows over m > 1 (a drawn row may still be integral)."""
    kinds = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    return [[draw(UNIT_ENTRIES if unit else SPLIT_ENTRIES)
             for _ in range(cols)] for unit in kinds]


def mixed_matrices(rows, cols):
    return mixed_entries(rows, cols).map(
        lambda dense: from_dense(rows, cols, dense))


def dense_sum(terms):
    """sum(sign * dense) over (sign, rows) of one shape."""
    (_, first), *_ = terms
    return [[sum((c * rows[i][j] for c, rows in terms), F(0))
             for j in range(len(first[0]) if first else 0)]
            for i in range(len(first))]


HALF_ROW = [[F(1), F(-2), F(0)], [F(1, 2), F(0), F(3, 2)]]
UNIT_ROWS = [[F(1), F(0), F(-1)], [F(2), F(1), F(0)]]


@settings(max_examples=100, deadline=None)
@given(st.tuples(shapes(3), shapes(3)).flatmap(lambda s: st.tuples(
    st.just(s), mixed_entries(*s[0]), mixed_entries(*s[1]))))
@example((((2, 3), (2, 3)), HALF_ROW, UNIT_ROWS))
@example((((2, 3), (2, 3)), UNIT_ROWS, HALF_ROW))
@example((((2, 3), (2, 3)), UNIT_ROWS, UNIT_ROWS))
def test_mixed_denominators_through_kron_and_integer_rows(case):
    """kron, and from_integer_rows given each row over its own m (with
    zeros to drop, and rows over m > 1 that reduce to m = 1), give the
    dense reference in canonical form."""
    ((ra, ca), (rb, cb)), a, b = case
    dense = [[a[i // rb][j // cb] * b[i % rb][j % cb]
              for j in range(ca * cb)] for i in range(ra * rb)]
    assert_is(kron(from_dense(ra, ca, a), from_dense(rb, cb, b)),
              ra * rb, ca * cb, dense)
    int_rows = []
    for i, row in enumerate(a):
        m = lcm(*(x.denominator for x in row)) * (1 + i % 2)
        int_rows.append((m, {j: int(x * m) for j, x in enumerate(row)}))
    assert_is(Matrix.from_integer_rows(ca, int_rows), ra, ca, a)


@settings(max_examples=100, deadline=None)
@given(shapes(3).flatmap(lambda s: st.tuples(
    st.just(s), st.lists(st.tuples(st.sampled_from([1, -1, 2]),
                                   mixed_entries(*s)), min_size=1,
                         max_size=3))))
@example(((2, 3), [(1, UNIT_ROWS), (-1, HALF_ROW), (2, UNIT_ROWS)]))
@example(((2, 3), [(1, HALF_ROW), (-1, HALF_ROW)]))
def test_mixed_denominators_through_sums(case):
    """signed_sum, streamed one term at a time, and block_matrix, which
    places the same terms side by side and down the diagonal, match the
    dense reference when rows over 1 meet rows over m > 1; stacked on
    top of each other the blocks overlap, and block_matrix refuses them."""
    (r, k), terms = case
    mats = [(c, from_dense(r, k, rows)) for c, rows in terms]
    assert_is(signed_sum(iter(mats)), r, k, dense_sum(terms))
    blocks = [(m, 0, j * k) for j, (_, m) in enumerate(mats)] + \
        [(m, r * (j + 1), j * k) for j, (_, m) in enumerate(mats)]
    dense = [[F(0)] * (k * len(mats)) for _ in range(r * (len(mats) + 1))]
    for j, (_, rows) in enumerate(terms):
        for i in range(r):
            dense[i][j * k:(j + 1) * k] = rows[i]
            dense[r * (j + 1) + i][j * k:(j + 1) * k] = rows[i]
    assert_is(block_matrix(len(dense), k * len(mats), blocks), len(dense),
              k * len(mats), dense)
    if r and k and len(mats) > 1:
        with pytest.raises(ValueError, match="overlap"):
            block_matrix(r + 1, k, [(m, 1, 0) for _, m in mats])


def test_block_matrix_places_blocks_given_in_any_order():
    """Three blocks meet row 0 over denominators 3, 1 and 2, listed right
    to left: the row is their entries left to right over 6."""
    a = Matrix.from_rows([[F(1, 3), 0], [0, 1]])
    b = Matrix.from_rows([[5]])
    c = Matrix.from_rows([[0, F(-1, 2)]])
    m = block_matrix(2, 6, [(c, 0, 4), (b, 0, 3), (a, 0, 0)])
    assert_is(m, 2, 6, [[F(1, 3), 0, 0, 5, 0, F(-1, 2)],
                        [0, 1, 0, 0, 0, 0]])
    assert m._int_rows[0] == (6, (0, 3, 5), (2, 30, -3))


@pytest.mark.parametrize("blocks", [
    [(0, 0), (1, 1)], [(1, 1), (0, 0)], [(0, 0), (0, 1)], [(1, 0), (0, 1)]],
    ids=["corner", "corner-listed-right-first", "same-rows", "one-cell"])
def test_block_matrix_rejects_overlapping_blocks(blocks):
    """Two 2 x 2 blocks whose rectangles share a cell raise, in either
    order, also where both hold zeros there ("one-cell": the shared cell
    is (1, 1), zero in both)."""
    a = Matrix.from_rows([[F(1, 2), 0], [0, 0]])
    with pytest.raises(ValueError, match="overlap"):
        block_matrix(3, 3, [(a, r, c) for r, c in blocks])


@st.composite
def mixed_products(draw):
    """(a, b, c, d): a and c n x k, b and d k x m, their rows mixed."""
    n, k, m = (draw(st.integers(0, 4)) for _ in range(3))
    return tuple(draw(mixed_matrices(*shape))
                 for shape in ((n, k), (k, m), (n, k), (k, m)))


UNIT_A = Matrix.from_rows(UNIT_ROWS)
HALF_B = Matrix.from_rows(HALF_ROW).transpose()


@settings(max_examples=150, deadline=None)
@given(mixed_products())
@example((UNIT_A, UNIT_A.transpose(), UNIT_A, UNIT_A.transpose()))
@example((UNIT_A, HALF_B, UNIT_A, HALF_B))
@example((Matrix.from_rows(HALF_ROW), UNIT_A.transpose(), UNIT_A,
          HALF_B))
def test_mixed_denominators_through_products_and_vanishes(case):
    """@ against the naive Fraction product, and vanishes against the
    built sum, with every factor over 1 (the sums skip the denominator
    pass) or some row over m > 1, dense or sparse."""
    a, b, c, d = case
    for x, y in ((a, b), (c, d)):
        assert_is(x @ y, x.rows, y.cols, naive_product(x, y))
    for terms in ([(1, a, b), (-1, a, b)], [(1, a, b), (-1, c, d)],
                  [(2, a, b), (-1, a.scale(2), b)], [(1, c, d)]):
        total = signed_sum((s, x @ y) for s, x, y in terms)
        assert vanishes(*terms) == total.is_zero()


@settings(max_examples=100, deadline=None)
@given(shapes(5).flatmap(lambda s: st.tuples(
    st.just(s), exact_entries(*s, elements=st.sampled_from(
        [F(0), F(0), F(0), F(1), F(-1, 2)])))))
def test_density_decision_is_cached_per_matrix(case):
    """A right factor is packed when at least a quarter of its entries
    are nonzero: the decision is made once per matrix and kept on it."""
    (r, k), dense = case
    m = from_dense(r, k, dense)
    nonzero = sum(1 for row in dense for x in row if x)
    assert "_packable" not in vars(m)
    assert m._packable == (4 * nonzero >= r * k)
    assert vars(m)["_packable"] == m._packable

@settings(max_examples=100, deadline=None)
@given(shapes().flatmap(lambda s: st.tuples(
    st.just(s), exact_entries(*s), st.randoms(use_true_random=False),
    st.integers(1, 6))))
def test_equality_and_hash_across_constructors(case):
    """Every way of building one matrix gives equal matrices, equal
    hashes and the same canonical rows."""
    (r, k), dense, rnd, scale = case
    int_rows = []
    for row in dense:
        m = lcm(*(x.denominator for x in row)) * scale
        items = [(j, int(x * m)) for j, x in enumerate(row)]
        rnd.shuffle(items)
        int_rows.append((m, dict(items)))
    forms = [from_dense(r, k, dense), Matrix.from_rows(dense) if r else
             Matrix.zero(0, k), Matrix.from_integer_rows(k, int_rows),
             Matrix.from_columns(r, [[p[j] for p in dense] for j in range(k)]),
             Matrix.identity(r) @ from_dense(r, k, dense),
             from_dense(r, k, dense) @ Matrix.identity(k),
             from_dense(r, k, dense).transpose().transpose(),
             from_dense(r, k, dense).scale(F(1, 3)).scale(3)]
    if all(x.denominator == 1 for p in dense for x in p):
        forms.append(Matrix(r, k, tuple(int(x) for p in dense for x in p)))
    for m in forms:
        assert_is(m, r, k, dense)
        assert m == forms[0] and hash(m) == hash(forms[0])
        assert m._int_rows == forms[0]._int_rows
    if any(x for p in dense for x in p):
        assert forms[0] != forms[0].scale(2)


def test_int_and_fraction_entries_build_equal_matrices():
    ints = Matrix(2, 2, (1, 0, -2, 6))
    assert ints == Matrix(2, 2, (F(1), F(0), F(-2), F(6)))
    assert ints == Matrix.from_rows([["1", "0"], ["-2", "6"]])
    assert hash(ints) == hash(Matrix.from_rows([[1, 0], [-2, 6]]))
    assert ints != Matrix(2, 2, (1, 0, -2, 5))
    assert Matrix.zero(2, 3) != Matrix.zero(3, 2)
    with pytest.raises(ValueError):
        Matrix(2, 2, (1, 2, 3))
    with pytest.raises(IndexError):
        ints[0, 2]


# --- rank and rref against Fraction Gauss-Jordan ------------------------

@st.composite
def echelon_cases(draw, max_dim=6):
    """(rows, cols, dense rows) for rank and rref: entries with
    denominators up to 12, numerators up to 2^70 or small integers (so
    rows with a common factor meet pivots sharing it), some zero rows
    and columns, and about half the time a product through an inner
    dimension of at most 2, so of low rank."""
    r, c = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    elements = draw(st.sampled_from([ENTRIES, WIDE_ENTRIES,
                                     st.integers(-4, 4).map(F)]))
    if draw(st.booleans()):
        return r, c, draw(exact_entries(r, c, elements))
    inner = draw(st.integers(1, 2))
    left = draw(exact_entries(r, inner, elements))
    right = draw(exact_entries(inner, c, elements))
    return r, c, [[sum((p[k] * right[k][j] for k in range(inner)), F(0))
                   for j in range(c)] for p in left]


@settings(max_examples=300, deadline=None)
@given(echelon_cases())
@example((2, 2, [[F(2), F(1)], [F(2), F(2)]]))
def test_rref_and_rank_match_gauss_jordan(case):
    r, c, dense = case
    m = from_dense(r, c, dense)
    expected, pivots = ref.rref(dense, c)
    out, got_pivots, rk = rref(m)
    assert_is(out, r, c, expected)
    assert got_pivots == tuple(pivots)
    assert rk == len(pivots) == rank(m)


def test_rref_with_negative_pivots_and_denominators():
    m = Matrix.from_rows([[0, F(-2, 3), 4, 0], [F(-5, 7), 1, 0, 2],
                          [F(-5, 7), F(1, 3), 4, 2], [0, 0, 0, -3]])
    assert rank(m) == 3
    out, pivots, rk = rref(m)
    assert (pivots, rk) == ((0, 1, 3), 3)
    assert_is(out, 4, 4, [[F(1), F(0), F(-42, 5), F(0)],
                          [F(0), F(1), F(-6), F(0)],
                          [F(0), F(0), F(0), F(1)], [F(0)] * 4])


def test_rank_of_a_total_complex_differential():
    """A pinned rank at a size the random cases never reach: d_9 of the
    cyclic bicomplex of two_dim_unital, 1022 x 2046, with the 0/1/-1
    blocks b, -b', Id - t and N.  Its transpose, eliminated in another
    order, has the same rank."""
    d = total_complex(cyclic_bicomplex(two_dim_unital(), 8)).differential(9)
    assert (d.rows, d.cols) == (1022, 2046)
    assert rank(d) == rank(d.transpose()) == 638


# --- maps on subspaces and quotients -------------------------------------

@st.composite
def stable_pairs(draw, max_dim=4):
    """(m, src, tgt) with m mapping src into tgt: tgt spans the images
    of src's vectors and some extra vectors."""
    r, k = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    m = draw(exact_matrices(r, k))
    src = Subspace.from_vectors(k, draw(exact_entries(
        draw(st.integers(0, k)), k)))
    extra = draw(exact_entries(draw(st.integers(0, r)), r))
    tgt = Subspace.from_vectors(r, [m.apply(v) for v in src.basis] + extra)
    return m, src, tgt


@settings(max_examples=100, deadline=None)
@given(stable_pairs())
def test_descend_matches_quotient_reference(case):
    m, src, tgt = case
    q = descend(m, src, tgt)
    assert (q.rows, q.cols) == (m.rows - tgt.dim, m.cols - src.dim)
    assert q.to_rows() == ref.induced_on_quotient(m, src, tgt)


@settings(max_examples=100, deadline=None)
@given(stable_pairs())
def test_restrict_gives_coordinates_in_target(case):
    m, src, tgt = case
    res = restrict(m, src, tgt)
    assert (res.rows, res.cols) == (tgt.dim, src.dim)
    for j, v in enumerate(src.basis):
        image_v = [F(0)] * m.rows
        for c, b in zip(res.col(j), tgt.basis):
            image_v = [x + c * y for x, y in zip(image_v, b)]
        assert tuple(image_v) == m.apply(v)


@st.composite
def descend_cases(draw, max_dim=4):
    """(m, src, tgt): tgt spans the images under m of a drawn share of
    src's basis, and some extra vectors, so m maps src into tgt in some
    cases and not in others."""
    r, k = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    m = draw(matrices(r, k, max_num=3))

    def vectors(n, size):
        return draw(st.lists(st.lists(st.fractions(-3, 3, max_denominator=3),
                                      min_size=n, max_size=n), max_size=size))

    src = Subspace.from_vectors(k, vectors(k, k))
    kept = draw(st.lists(st.booleans(), min_size=src.dim, max_size=src.dim))
    tgt = Subspace.from_vectors(r, [m.apply(v) for v, keep in
                                    zip(src.basis, kept) if keep]
                                + vectors(r, r - 1))
    return m, src, tgt


@settings(max_examples=150, deadline=None)
@given(descend_cases())
def test_descend_matches_column_by_column_reduction(case):
    """descend is each free column of src, as a dense vector, reduced
    modulo tgt by the reference's pivot elimination and read at tgt's
    free columns; it raises exactly when some basis vector of src
    leaves a residual modulo tgt."""
    m, src, tgt = case
    dense = m.to_rows()

    def residual(vec):
        return ref.reduce_mod(tgt.basis, vec)[1]

    def free(sub):
        pivots = ref.rref(sub.basis, sub.ambient_dim)[1]
        return [j for j in range(sub.ambient_dim) if j not in pivots]

    stable = not any(any(residual([sum((x * y for x, y in zip(row, v)), F(0))
                                   for row in dense])) for v in src.basis)
    if not stable:
        with pytest.raises(NotASubspaceError):
            descend(m, src, tgt)
        return
    cols = [residual([row[f] for row in dense]) for f in free(src)]
    assert descend(m, src, tgt).to_rows() == [[c[i] for c in cols]
                                              for i in free(tgt)]


def test_descend_is_one_reduction_without_dense_views(monkeypatch):
    """descend makes one `reduce_mod` product and reads no dense view of
    any matrix: no column, row, vector product or entry list."""
    from homcyc import linalg
    m = Matrix.from_rows([[1, 2, 0], [0, 1, 1], [1, 0, 3]])
    src = Subspace.from_vectors(3, [(F(1), F(0), F(0))])
    tgt = Subspace.from_vectors(3, [(F(1), F(0), F(1))])
    expected = ref.induced_on_quotient(m, src, tgt)
    calls, reduce_mod = [], linalg.reduce_mod
    monkeypatch.setattr(linalg, "reduce_mod",
                        lambda sub, x: calls.append(x) or reduce_mod(sub, x))

    def dense(*_):
        raise AssertionError("dense view read")

    for name in ("col", "row", "apply", "to_rows", "__getitem__"):
        monkeypatch.setattr(Matrix, name, dense)
    monkeypatch.setattr(Matrix, "entries", property(dense))
    q = descend(m, src, tgt)
    monkeypatch.undo()
    assert calls == [m] and q.to_rows() == expected


def test_descend_and_restrict_reject_unstable_subspaces():
    m = Matrix.from_rows([[0, 1], [0, 0]])
    line = Subspace.from_vectors(2, [(F(0), F(1))])
    with pytest.raises(NotASubspaceError):
        descend(m, line, Subspace.zero(2))
    with pytest.raises(NotASubspaceError):
        restrict(m, line, line)
    assert descend(m, line, Subspace.from_vectors(2, [(F(1), F(0))])) \
        == Matrix.zero(1, 1)
    assert line.free_columns() == [0]


# --- subspaces against dense pivot elimination ---------------------------

SPAN_ENTRIES = st.sampled_from([F(1), F(-1), F(2), F(-1, 2), F(3, 4), F(0)])


def dense_rows(rows, cols):
    return st.lists(st.lists(SPAN_ENTRIES, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def subspace_cases(draw, max_dim=5):
    """(n, spanning rows, vectors): the zero space, the full space or the
    span of k drawn rows through an inner dimension of at most n, so
    often dependent and of rank below n, and a drawn vector and a
    combination of the rows to reduce by it."""
    n = draw(st.integers(1, max_dim))
    kind = draw(st.sampled_from(["span", "zero", "full", "span"]))
    if kind == "zero":
        rows = []
    elif kind == "full":
        rows = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    else:
        k, inner = draw(st.integers(1, n + 1)), draw(st.integers(1, n))
        left, right = draw(dense_rows(k, inner)), draw(dense_rows(inner, n))
        rows = [[sum((p[t] * right[t][j] for t in range(inner)), F(0))
                 for j in range(n)] for p in left]
    coeffs = draw(dense_rows(1, len(rows)))[0]
    member = [sum((c * r[j] for c, r in zip(coeffs, rows)), F(0))
              for j in range(n)]
    return n, rows, [draw(dense_rows(1, n))[0], member]


@settings(max_examples=150, deadline=None)
@given(subspace_cases())
def test_subspace_matches_dense_elimination(case):
    n, rows, vectors = case
    sub = Subspace.from_vectors(n, rows)
    basis, pivots = ref.rref(rows, n)
    assert sub.basis == tuple(tuple(b) for b in basis[:len(pivots)])
    assert sub.free_columns() == [j for j in range(n) if j not in pivots]
    for v in vectors:
        coords, residual = ref.reduce_mod(rows, v)
        assert all(residual[p] == 0 for p in sub.pivots)
        assert reduce_mod(sub, Matrix.from_columns(n, [v])).col(0) == \
            tuple(residual[f] for f in sub.free_columns())
        assert sub.contains(v) == (not any(residual))
        if any(residual):
            with pytest.raises(NotASubspaceError):
                sub.coordinates(v)
        else:
            assert sub.coordinates(v) == tuple(coords)
    q = sub.quotient
    assert (q.rows, q.cols) == (n - sub.dim, n)
    assert vanishes((1, q, sub.rows.transpose()))
    assert rank(q) == n - sub.dim


@pytest.mark.parametrize("sub", [Subspace.zero(3), Subspace.full(3),
                                 Subspace.from_vectors(3, [(1, 2, 0)])],
                         ids=["zero", "full", "line"])
def test_subspace_rejects_wrong_length_vectors(sub):
    for vec in [(F(1), F(0)), (F(1), F(0), F(0), F(0))]:
        with pytest.raises(ValueError, match="shape mismatch"):
            reduce_mod(sub, Matrix.from_columns(len(vec), [vec]))
        with pytest.raises(ValueError, match="length"):
            sub.coordinates(vec)
        with pytest.raises(ValueError, match="length"):
            sub.contains(vec)
