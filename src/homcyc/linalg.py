"""Exact sparse linear algebra over the rationals.

Everything downstream (axiom checks, boundary matrices, Betti numbers)
reduces to products, ranks, kernels, images and quotients computed here.
All arithmetic is exact and runs on Python integers.  A `Matrix` stores
only its rows, each as its nonzero entries, integers over one common
denominator (`IntRow`), so a matrix that is ~99% zeros costs its nonzero
entries alone; dense Fraction views (`entries`, `row`, `col`) are
computed on demand and no operation reads them.  Products (`@`, `apply`)
sum integers over the nonzero entries only, packing the rows of a dense
right factor into big integers (Kronecker substitution).  Row reduction
is sparse integer elimination on {column: integer} dicts: `rank` counts
the pivots of the echelon form, and `rref` adds a back-substitution
where a canonical basis is needed.  The RREF is unique, so it does not
depend on the order of elimination.

A `Subspace` is its RREF, a `Matrix` of the nonzero rows (`rows`).  Its
`quotient`, the identity at the free columns minus the RREF entries at
the pivots, maps onto the quotient by the subspace in `free_columns`
coordinates and has the subspace as its kernel.  Membership,
`reduce_mod`, `kernel` and the check that a map sends one subspace into
another are products with it; `restrict` reads m @ src.rows^T at tgt's
pivots, and `descend` reduces m's columns at src's free columns.
Every row sum goes through `_add_row`: `signed_sum` (a stream of
signed matrices, one held at a time), `+`, `-`, `block_matrix`, and
`vanishes`, which tests a signed sum of products for zero and builds no
product matrix.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def scalar_from_string(s: str) -> Fraction:
    """Parse the wire format "p/q" (q omitted when 1)."""
    return Fraction(s)


def scalar_to_string(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# A row in integer form: (m, ks, xs), the entry xs[i] / m in column
# ks[i] for each i.  Canonical: ks ascending, every xs[i] nonzero and m
# the lcm of the reduced denominators (so the row is in lowest terms),
# which makes equal rows equal tuples.
IntRow = tuple[int, tuple[int, ...], tuple[int, ...]]

_ZERO_ROW: IntRow = (1, (), ())


@dataclass(frozen=True, init=False)
class Matrix:
    """Immutable matrix over Q, stored as one canonical `IntRow` per row.

    `Matrix(rows, cols, entries)` takes the entries row-major, as ints
    or Fractions.  `entries`, `row`, `col`, `m[i, j]` and `to_rows` are
    Fraction views computed from the rows on each call; every operation
    works on the rows, so it touches nonzero entries only.
    """

    rows: int
    cols: int
    _int_rows: tuple[IntRow, ...]

    def __init__(self, rows: int, cols: int,
                 entries: Sequence[Fraction | int]):
        if len(entries) != rows * cols:
            raise ValueError(f"entry count {len(entries)} != {rows}x{cols}")
        _init(self, rows, cols, _rows_of(entries[i * cols:(i + 1) * cols]
                                         for i in range(rows)))

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Fraction | int | str]]) -> "Matrix":
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return _matrix(len(rows), ncols, _rows_of(rows))

    @staticmethod
    def from_columns(nrows: int,
                     cols: Sequence[Sequence[Fraction | int]]) -> "Matrix":
        """The nrows x len(cols) matrix whose column j is cols[j]."""
        if any(len(c) != nrows for c in cols):
            raise ValueError(f"column length != {nrows}")
        return _matrix(len(cols), nrows, _rows_of(cols)).transpose()

    @staticmethod
    def from_integer_rows(ncols: int,
                          int_rows: Sequence[tuple[int, dict[int, int]]]
                          ) -> "Matrix":
        """The matrix whose row i holds x / m in column k for each k: x of
        int_rows[i] = (m, {k: x}), m > 0; zero x are dropped."""
        out = []
        for m, row in int_rows:
            ks = sorted(k for k, x in row.items() if x)
            out.append(_lowest(m, tuple(ks), tuple(row[k] for k in ks)))
        return _matrix(len(out), ncols, tuple(out))

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return _matrix(rows, cols, (_ZERO_ROW,) * rows)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return _matrix(n, n, tuple((1, (i,), (1,)) for i in range(n)))

    @cached_property
    def _int_cols(self) -> tuple[IntRow, ...]:
        """The integer form of the columns: the rows of the transpose."""
        dens = [1] * self.cols
        for m, ks, _ in self._int_rows:
            if m != 1:
                for k in ks:
                    dens[k] = lcm(dens[k], m)
        idx: list[list[int]] = [[] for _ in range(self.cols)]
        vals: list[list[int]] = [[] for _ in range(self.cols)]
        for i, (m, ks, xs) in enumerate(self._int_rows):
            for k, x in zip(ks, xs):
                idx[k].append(i)
                vals[k].append(x * (dens[k] // m))
        return tuple(_lowest(dn, tuple(i), tuple(v))
                     for dn, i, v in zip(dens, idx, vals))

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.row(i)[j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return _dense(self._int_rows[i], self.cols)

    def col(self, j: int) -> tuple[Fraction, ...]:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} out of range for {self.cols} columns")
        return _dense(self._int_cols[j], self.rows)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        """All entries, row-major."""
        return tuple(x for r in self._int_rows for x in _dense(r, self.cols))

    def to_rows(self) -> list[list[Fraction]]:
        return [list(_dense(r, self.cols)) for r in self._int_rows]

    def transpose(self) -> "Matrix":
        return _matrix(self.cols, self.rows, self._int_cols)

    def __add__(self, other: "Matrix") -> "Matrix":
        return signed_sum([(1, self), (1, other)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return signed_sum([(1, self), (-1, other)])

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c: Fraction | int) -> "Matrix":
        c = Fraction(c)
        return Matrix.from_integer_rows(self.cols, [
            (m * c.denominator, {k: x * c.numerator for k, x in zip(ks, xs)})
            for m, ks, xs in self._int_rows])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch in @: {self.rows}x{self.cols} @ "
                f"{other.rows}x{other.cols}")
        return Matrix.from_integer_rows(other.cols, _product(
            self._int_rows, other._int_rows, other.cols))

    def apply(self, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Matrix-vector product (vec as a column of coordinates): the
        columns of self at the nonzero coordinates, combined."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        [(m, sums)] = _product([_integer_terms(enumerate(vec))],
                               self._int_cols, self.rows)
        return _dense((m, sums.keys(), sums.values()), self.rows)

    def is_zero(self) -> bool:
        return not any(ks for _, ks, _ in self._int_rows)


def _init(m: Matrix, rows: int, cols: int,
          int_rows: tuple[IntRow, ...]) -> None:
    object.__setattr__(m, "rows", rows)
    object.__setattr__(m, "cols", cols)
    object.__setattr__(m, "_int_rows", int_rows)


def _matrix(rows: int, cols: int, int_rows: tuple[IntRow, ...]) -> Matrix:
    """The matrix with these canonical rows, taken as they are."""
    out = object.__new__(Matrix)
    _init(out, rows, cols, int_rows)
    return out


def _rows_of(vectors: Iterable[Sequence[Fraction | int | str]]
             ) -> tuple[IntRow, ...]:
    """The canonical rows of dense vectors of Fractions, ints or strings."""
    return tuple(_integer_terms(enumerate(
        x if type(x) is Fraction or type(x) is int else Fraction(x)
        for x in v)) for v in vectors)


def _dense(row: IntRow, n: int) -> tuple[Fraction, ...]:
    """The n entries of an integer row, as Fractions."""
    m, ks, xs = row
    out = [ZERO] * n
    for k, x in zip(ks, xs):
        out[k] = Fraction(x, m)
    return tuple(out)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """The Kronecker product a (x) b, a's indices most significant."""
    if b.cols == 1 and b._int_rows == ((1, (0,), (1,)),):
        return a  # b is the 1 x 1 identity
    rows = []
    for ma, ka, xa in a._int_rows:
        offsets = [i * b.cols for i in ka]
        for mb, kb, xb in b._int_rows:
            rows.append(_lowest(ma * mb,
                                tuple(i + j for i in offsets for j in kb),
                                tuple(x * y for x in xa for y in xb)))
    return _matrix(a.rows * b.rows, a.cols * b.cols, tuple(rows))


def permute_columns(m: Matrix, perm: Sequence[int]) -> Matrix:
    """m with its column k moved to column perm[k], perm a permutation."""
    return Matrix.from_integer_rows(m.cols, [
        (dn, {perm[k]: x for k, x in zip(ks, xs)})
        for dn, ks, xs in m._int_rows])


def signed_sum(terms: Iterable[tuple[int, Matrix]]) -> Matrix:
    """sum(sign * m) over one or more (sign, m) terms, all of one shape.

    Each term is added row by row into running integer sums (`_add_row`)
    as it arrives, and then let go: a generator of terms keeps one of
    them alive at a time.
    """
    shape = None
    for sign, m in terms:
        if shape is None:
            shape = (m.rows, m.cols)
            dens, sums = [1] * m.rows, [{} for _ in range(m.rows)]
        elif shape != (m.rows, m.cols):
            raise ValueError("shape mismatch in +")
        for i, (dn, ks, xs) in enumerate(m._int_rows):
            dens[i] = _add_row(sums[i], dens[i], dn, ks, xs, sign)
        del m
    return Matrix.from_integer_rows(shape[1], list(zip(dens, sums)))


def _add_row(acc: dict[int, int], den: int, m: int, ks, xs, c: int) -> int:
    """acc / den + c * xs / m (xs[i] in column ks[i]), written into acc
    in place; returns the denominator of the sum, lcm(den, m)."""
    if m != den:
        common = lcm(den, m)
        for k in acc:
            acc[k] *= common // den
        c *= common // m
        den = common
    get = acc.get
    for k, x in zip(ks, xs):
        acc[k] = get(k, 0) + c * x
    return den


def block_matrix(rows: int, cols: int,
                 blocks: Sequence[tuple[Matrix, int, int]]) -> Matrix:
    """rows x cols matrix with each (block, row offset, col offset) placed
    in it and zeros elsewhere, added up by `_add_row`."""
    dens, sums = [1] * rows, [{} for _ in range(rows)]
    for block, roff, coff in blocks:
        for i, (m, ks, xs) in enumerate(block._int_rows, roff):
            dens[i] = _add_row(sums[i], dens[i], m, [coff + k for k in ks],
                               xs, 1)
    return Matrix.from_integer_rows(cols, list(zip(dens, sums)))


def _integer_terms(pairs: Iterable[tuple[int, Fraction | int]]) -> IntRow:
    """The `IntRow` of the nonzero x among the (k, x) pairs, k ascending:
    m is the lcm of their denominators and each x is written as an
    integer over m."""
    terms = [(k, x) for k, x in pairs if x]
    m = 1
    for _, x in terms:
        d = x.denominator
        if d != 1:
            m = m // gcd(m, d) * d
    return m, tuple(k for k, _ in terms), \
        tuple(x.numerator * (m // x.denominator) for _, x in terms)


def _lowest(m: int, ks: tuple[int, ...], xs: tuple[int, ...]) -> IntRow:
    """The row xs / m with gcd(m, every x) divided out: its `IntRow`,
    whose m is the lcm of the reduced denominators."""
    g = gcd(m, *xs)
    if g == 1:
        return m, ks, xs
    return m // g, ks, tuple(x // g for x in xs)


def _product(left: Sequence[IntRow], right: Sequence[IntRow],
             ncols: int) -> list[tuple[int, dict[int, int]]]:
    """The rows of L @ R, exactly, from the integer rows of L and R, as
    (denominator, {column: integer sum}) with zero sums allowed.

    R is brought to one common denominator dn and each row of L keeps
    its own m, so an output row is a set of integer sums over m * dn.
    Only nonzero entries are multiplied: into a dict per output row, or,
    when R is dense and L has several rows, by `_packed_sums`.  A packed
    row of R costs one slot per column, zeros included, so packing is
    kept to R with at least a quarter of its entries nonzero.
    """
    dn = lcm(*(m for m, ks, _ in right if ks))
    rows = [(ks, xs if m == dn else tuple(x * (dn // m) for x in xs))
            for m, ks, xs in right]
    sums = None
    if len(left) > 1 and \
            4 * sum(len(ks) for ks, _ in rows) >= ncols * len(rows):
        sums = _packed_sums(left, rows, ncols)
    if sums is None:
        sums = []
        for _, ks, xs in left:
            acc: dict[int, int] = {}
            get = acc.get
            for k, x in zip(ks, xs):
                rk, rx = rows[k]
                for j, y in zip(rk, rx):
                    acc[j] = get(j, 0) + x * y
            sums.append(acc)
    return [(m * dn, acc) for (m, _, _), acc in zip(left, sums)]


def vanishes(*terms: tuple[int, Matrix, Matrix]) -> bool:
    """Whether sum(sign * (a @ b)) over the (sign, a, b) terms is exactly
    the zero matrix; an empty sum vanishes.

    Each product comes from `_product` as integer sums over one
    denominator per row; row by row they are added up by `_add_row`,
    and no product `Matrix` is built.
    Every identity check between products is a call to this: lhs = rhs
    is `vanishes((1, *lhs), (-1, *rhs))`.
    """
    shape, signs, prods = None, [], []
    for sign, a, b in terms:
        if a.cols != b.rows:
            raise ValueError(
                f"shape mismatch in @: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
        if shape not in (None, (a.rows, b.cols)):
            raise ValueError("shape mismatch in +")
        shape = (a.rows, b.cols)
        signs.append(sign)
        prods.append(_product(a._int_rows, b._int_rows, b.cols))
    opposite = len(signs) == 2 and signs[0] == -signs[1]
    for row in zip(*prods):
        if opposite and row[0] == row[1]:
            continue  # equal sums over one denominator cancel
        acc, den = {}, 1
        for sign, (dn, sums) in zip(signs, row):
            den = _add_row(acc, den, dn, sums.keys(), sums.values(), sign)
        if any(acc.values()):
            return False
    return True


_HALF = 1 << 63


def _packed_sums(left: Sequence[IntRow],
                 rows: list[tuple[tuple[int, ...], tuple[int, ...]]],
                 ncols: int) -> list[dict[int, int]] | None:
    """The integer sums of L @ R by Kronecker substitution, or None when
    an entry of the product might not fit in 63 bits.

    Row k of R becomes one integer with R[k][j] in its 64-bit slot j, so
    a row of the product is an integer combination of those, and its
    entries are read back from the slots, each offset by 2^63 to make it
    nonnegative.  Every step is exact integer arithmetic.
    """
    big = max((abs(x) for _, _, xs in left for x in xs), default=1) * \
        max((abs(y) for _, ys in rows for y in ys), default=0) * \
        max(1, *(len(ks) for _, ks, _ in left))
    if big >= _HALF:
        return None
    # in native byte order an array of slots is one integer, slot 0 at
    # the low end on little-endian hosts and at the high end otherwise
    order = sys.byteorder
    base = int.from_bytes(array("Q", [_HALF]) * ncols, order)
    packed = []
    for ks, ys in rows:
        slots = array("Q", [_HALF]) * ncols
        for j, y in zip(ks, ys):
            slots[j] = y + _HALF
        packed.append(int.from_bytes(slots, order) - base)
    out = []
    for _, ks, xs in left:
        slots = array("Q", (sum(x * packed[k] for k, x in zip(ks, xs)) + base)
                      .to_bytes(8 * ncols, order))
        out.append({j: v - _HALF for j, v in enumerate(slots) if v != _HALF})
    return out


def _echelon(m: Matrix) -> dict[int, dict[int, int]]:
    """Integer row echelon form of m, as {pivot column: row}.  Each row
    of m, a {column: integer} dict (a multiple of the row, which keeps
    the row space), is cleared at its lowest column against the pivot
    row there until there is none, then divided by its content, signed
    to make its pivot entry positive, and kept as that column's pivot
    row.  Rows that reach zero drop out."""
    pivots: dict[int, dict[int, int]] = {}
    for _, ks, xs in m._int_rows:
        row = dict(zip(ks, xs))
        while row:
            c = min(row)
            if c not in pivots:
                g = gcd(*row.values()) * (1 if row[c] > 0 else -1)
                pivots[c] = {k: x // g for k, x in row.items()}
                break
            _clear(row, pivots[c], c)
    return pivots


def _clear(row: dict[int, int], piv: dict[int, int], c: int) -> None:
    """row := a * row - b * piv in place, zeros dropped, for the least
    a > 0 and b that make column c of row zero."""
    g = gcd(piv[c], row[c])
    a, b = piv[c] // g, row[c] // g
    if a < 0:
        a, b = -a, -b
    if a != 1:
        for k in row:
            row[k] *= a
    for k, y in piv.items():
        x = row.get(k, 0) - b * y
        if x:
            row[k] = x
        else:
            del row[k]


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...], int]:
    """Reduced row-echelon form, pivot columns, rank: `_echelon`, then
    back-substitution from the highest pivot down, which keeps each
    pivot entry positive, then each row over its pivot entry.  The RREF
    of a matrix is unique, so it does not depend on the order of
    elimination."""
    pivots = _echelon(m)
    order = sorted(pivots)
    rows = [pivots[p] for p in order]
    for i in range(len(order) - 1, 0, -1):
        p, piv = order[i], rows[i]
        for row in rows[:i]:
            if p in row:
                _clear(row, piv, p)
    out = [(row[p], row) for p, row in zip(order, rows)]
    out += [(1, {})] * (m.rows - len(out))
    return Matrix.from_integer_rows(m.cols, out), tuple(order), len(order)


def rank(m: Matrix) -> int:
    """The number of pivots of `_echelon`, with no back-substitution."""
    return len(_echelon(m))


@dataclass(frozen=True)
class Subspace:
    """Subspace S of Q^ambient_dim, stored as its RREF: `rows` holds the
    nonzero rows, so equal subspaces have identical representations, and
    `basis` is their dense Fraction view, computed on each call."""

    rows: Matrix

    @property
    def ambient_dim(self) -> int:
        return self.rows.cols

    @property
    def dim(self) -> int:
        return self.rows.rows

    @property
    def basis(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(_dense(r, self.ambient_dim) for r in self.rows._int_rows)

    @staticmethod
    def from_vectors(ambient_dim: int,
                     vectors: Iterable[Sequence[Fraction]]) -> "Subspace":
        vecs = list(vectors)
        if any(len(v) != ambient_dim for v in vecs):
            raise ValueError("vector length != ambient_dim")
        return _row_space(_matrix(len(vecs), ambient_dim, _rows_of(vecs)))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(Matrix.zero(0, ambient_dim))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(Matrix.identity(ambient_dim))

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """The pivot column of each row, ascending."""
        return tuple(ks[0] for _, ks, _ in self.rows._int_rows)

    def free_columns(self) -> list[int]:
        """The coordinates off the pivots: a complement's basis, and the
        coordinates of the quotient by this space."""
        pivots = set(self.pivots)
        return [j for j in range(self.ambient_dim) if j not in pivots]

    @cached_property
    def quotient(self) -> Matrix:
        """The map Q^ambient_dim -> Q^ambient_dim / S in `free_columns`
        coordinates: row f is e_f - sum_i rows[i][f] e_(pivot i).  Its
        kernel is exactly S, and it is the identity on the free
        coordinates."""
        cols = self.rows._int_cols
        out = []
        for f in self.free_columns():
            dn, ks, xs = cols[f]
            row = {self.pivots[i]: -x for i, x in zip(ks, xs)}
            row[f] = dn
            out.append((dn, row))
        return Matrix.from_integer_rows(self.ambient_dim, out)

    def contains(self, vec: Sequence[Fraction]) -> bool:
        return not any(self.quotient.apply(vec))

    def contains_subspace(self, other: "Subspace") -> bool:
        return vanishes((1, self.quotient, other.rows.transpose()))

    def coordinates(self, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Coordinates of vec in the RREF basis, which are its entries at
        the pivots; raises if vec is not a member."""
        if not self.contains(vec):
            raise NotASubspaceError("vector not in subspace")
        return tuple(vec[p] for p in self.pivots)


class NotASubspaceError(ValueError):
    pass


def reduce_mod(sub: Subspace, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Canonical representative of vec modulo sub: `sub.quotient` of vec
    at the free columns, zero at the pivots."""
    out = [ZERO] * sub.ambient_dim
    for f, x in zip(sub.free_columns(), sub.quotient.apply(vec)):
        out[f] = x
    return tuple(out)


def _row_space(m: Matrix) -> Subspace:
    r, _, rk = rref(m)
    return Subspace(_matrix(rk, m.cols, r._int_rows[:rk]))


def kernel(m: Matrix) -> Subspace:
    """Null space {x : m x = 0}: the row space of the quotient map by
    m's row space, whose row f is the vector with 1 at free column f and
    minus column f of the RREF at the pivots."""
    return _row_space(_row_space(m).quotient)


def image(m: Matrix) -> Subspace:
    """Column space, RREF-normalized."""
    return _row_space(m.transpose())


def maps_into(m: Matrix, src: Subspace, tgt: Subspace) -> bool:
    """Whether m maps src into tgt: tgt's quotient map kills m on every
    basis vector of src, one vanishing product."""
    return vanishes((1, tgt.quotient @ m, src.rows.transpose()))


def restrict(m: Matrix, src: Subspace, tgt: Subspace) -> Matrix:
    """m on src, into tgt: column j holds the coordinates in tgt of m
    applied to basis vector j of src, the entries of m @ src.rows^T at
    tgt's pivots.  Raises NotASubspaceError unless m maps src into tgt."""
    if not maps_into(m, src, tgt):
        raise NotASubspaceError("the map does not send src into tgt")
    images = m @ src.rows.transpose()
    return _matrix(tgt.dim, src.dim,
                   tuple(images._int_rows[p] for p in tgt.pivots))


def descend(m: Matrix, src: Subspace, tgt: Subspace) -> Matrix:
    """The map Q^cols / src -> Q^rows / tgt induced by m, in the
    `free_columns` coordinates of both quotients: column j is m's column
    at the j-th free coordinate of src, reduced modulo tgt and read at
    the free coordinates of tgt.  Raises NotASubspaceError unless m
    maps src into tgt."""
    if not maps_into(m, src, tgt):
        raise NotASubspaceError("the map does not send src into tgt")
    free = tgt.free_columns()
    cols = []
    for f in src.free_columns():
        w = reduce_mod(tgt, m.col(f))
        cols.append([w[j] for j in free])
    return Matrix.from_columns(len(free), cols)


def quotient_dim(sub: Subspace, sup: Subspace) -> int:
    """dim(sup / sub); raises NotASubspaceError unless sub is inside sup."""
    if sub.ambient_dim != sup.ambient_dim:
        raise NotASubspaceError("ambient dimensions differ")
    if not sup.contains_subspace(sub):
        raise NotASubspaceError("first argument is not contained in second")
    return sup.dim - sub.dim


def solve_homogeneous(constraints: Sequence[Sequence[Fraction]],
                      ambient_dim: int) -> Subspace:
    """Common null space of a list of linear functionals on Q^ambient_dim."""
    if not constraints:
        return Subspace.full(ambient_dim)
    m = Matrix.from_rows(constraints)
    if m.cols != ambient_dim:
        raise ValueError("constraint length != ambient_dim")
    return kernel(m)
