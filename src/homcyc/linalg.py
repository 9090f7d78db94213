"""Exact sparse linear algebra over the rationals.

Everything downstream (axiom checks, boundary matrices, Betti numbers)
reduces to products, ranks, kernels, images and quotients computed here.
All arithmetic is exact and runs on Python integers.  A `Matrix` stores
only its rows, each as its nonzero entries, integers over one common
denominator (`IntRow`), so a matrix that is ~99% zeros costs its nonzero
entries alone; dense Fraction views (`entries`, `row`, `col`) are
computed on demand and no operation reads them; a row over 1 skips the
gcd pass.  Products (`@`, `apply`) and `vanishes`, which tests a signed
sum of products for zero and builds no product, sum integers over the
nonzero entries only, row by row (`_sums`).  A dense right factor, one
with at least a quarter of its entries nonzero (decided once per
matrix), is instead packed by Kronecker substitution, each row
one big integer with an entry in each 16-, 32- or 64-bit slot: once per
matrix and slot width, kept on the matrix with the slot bound's numbers
(`_norms`) until `drop_packings`, and used by every product and check
it enters.  The slots are the narrowest that hold the bound on the sum,
so `vanishes` decides a row on one integer, and `@` reads the row's
slots back.  Row reduction is sparse integer elimination on {column:
integer} dicts: `rank` counts the pivots of the echelon form, and
`rref` adds a back-substitution where a canonical basis is needed.
The RREF is unique, so it does not depend on the order of elimination.

A `Subspace` is its RREF, a `Matrix` of the nonzero rows (`rows`).  Its
`quotient`, the identity at the free columns minus the RREF entries at
the pivots, maps onto the quotient by the subspace in `free_columns`
coordinates and has the subspace as its kernel.  Membership,
`reduce_mod`, `kernel` and the check that a map sends one subspace into
another are products with it; `restrict` reads m @ src.rows^T at tgt's
pivots, and `descend` reduces m's columns at src's free columns.
Sums of matrices go through `_add_rows`: `signed_sum` (a stream of
signed matrices, one held at a time), `+`, `-` and `block_matrix`.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .records import cached, record

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


@record
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
        vars(self).update(rows=rows, cols=cols, _int_rows=_rows_of(
            entries[i * cols:(i + 1) * cols] for i in range(rows)))

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
            ks = sorted([k for k, x in row.items() if x])
            out.append(_lowest(m, tuple(ks), tuple([row[k] for k in ks])))
        return _matrix(len(out), ncols, tuple(out))

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return _matrix(rows, cols, (_ZERO_ROW,) * rows)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return _matrix(n, n, tuple((1, (i,), (1,)) for i in range(n)))

    @cached
    def _int_cols(self) -> tuple[IntRow, ...]:
        """The integer form of the columns: the rows of the transpose,
        read over `_dn` and each put in lowest terms."""
        idx = [[] for _ in range(self.cols)]
        vals = [[] for _ in range(self.cols)]
        for i, (m, ks, xs) in enumerate(self._int_rows):
            s = self._dn // m
            for k, x in zip(ks, xs):
                idx[k].append(i)
                vals[k].append(x * s)
        return tuple(_lowest(self._dn, tuple(i), tuple(v))
                     for i, v in zip(idx, vals))

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return self.row(ij[0])[ij[1]]

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
        return Matrix.from_integer_rows(other.cols, [
            (den, acc) for den, _, acc in _sums([(1, self, other)], True)])

    def apply(self, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Matrix-vector product (vec as a column of coordinates): the
        columns of self at the nonzero coordinates, combined."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        m, ks, xs = _integer_terms(enumerate(vec))
        sums = _row_sums({}, 1, ks, xs, self._int_cols, self._dn)
        return _dense((m * self._dn, sums.keys(), sums.values()), self.rows)

    @cached
    def _dn(self) -> int:
        """The common denominator of the rows (a zero row's is 1)."""
        return lcm(*{m for m, _, _ in self._int_rows})

    @cached
    def _norms(self) -> tuple[int, int]:
        """(l1, top): the largest l1 norm of an integer row, and at
        least 1, and the largest |integer| of a row.  Over the common
        denominator D of its row, an entry of sign * (a @ b) is at most
        D * |sign| * a's l1 * b's top, and so is an entry of b over its
        own common denominator."""
        return max((sum(map(abs, xs)) for *_, xs in self._int_rows),
                   default=0) or 1, max((max(map(abs, xs)) for *_, xs in
                                         self._int_rows if xs), default=0)

    @cached
    def _packable(self) -> bool:
        """Whether a quarter of the entries or more are nonzero."""
        return 4 * sum(len(ks) for _, ks, _ in self._int_rows) >= \
            self.rows * self.cols

    def is_zero(self) -> bool:
        return not any(ks for _, ks, _ in self._int_rows)


def _matrix(rows: int, cols: int, int_rows: tuple[IntRow, ...]) -> Matrix:
    """The matrix with these canonical rows, taken as they are."""
    out = object.__new__(Matrix)
    vars(out).update(rows=rows, cols=cols, _int_rows=int_rows)
    return out


def _rows_of(vectors: Iterable[Sequence[Fraction | int | str]]
             ) -> tuple[IntRow, ...]:
    """The canonical rows of dense vectors of Fractions, ints or strings."""
    return tuple(_integer_terms(enumerate(
        x if type(x) in (Fraction, int) else Fraction(x)
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
                                tuple([i + j for i in offsets for j in kb]),
                                tuple([x * y for x in xa for y in xb])))
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
        _add_rows(dens, sums, m._int_rows, sign)
        del m
    return Matrix.from_integer_rows(shape[1], list(zip(dens, sums)))


def _add_rows(dens, sums, rows, c, roff=0):
    """sums[i] / dens[i] += c * xs / m in place for each row xs / m of
    rows, the first at i = roff, rescaling sums[i] unless m = dens[i]."""
    for i, (m, ks, xs) in enumerate(rows, roff):
        s, acc = c, sums[i]
        if m != dens[i]:
            common = lcm(dens[i], m)
            for k in acc:
                acc[k] *= common // dens[i]
            s *= common // m
            dens[i] = common
        get = acc.get
        for k, x in zip(ks, xs):
            acc[k] = get(k, 0) + s * x


def block_matrix(rows: int, cols: int,
                 blocks: Sequence[tuple[Matrix, int, int]]) -> Matrix:
    """rows x cols matrix with each (block, row offset, col offset) placed
    in it and zeros elsewhere, added up by `_add_rows`."""
    dens, sums = [1] * rows, [{} for _ in range(rows)]
    for block, roff, coff in blocks:
        _add_rows(dens, sums, [(m, [coff + k for k in ks], xs)
                               for m, ks, xs in block._int_rows], 1, roff)
    return Matrix.from_integer_rows(cols, list(zip(dens, sums)))


def _integer_terms(pairs: Iterable[tuple[int, Fraction | int]]) -> IntRow:
    """The `IntRow` of the nonzero x among the (k, x) pairs, k ascending:
    m is the lcm of their denominators and each x is written as an
    integer over m."""
    terms = [(k, x) for k, x in pairs if x]
    m = lcm(*{x.denominator for _, x in terms})
    return m, tuple(k for k, _ in terms), \
        tuple(x.numerator * (m // x.denominator) for _, x in terms)


def _lowest(m: int, ks: tuple[int, ...], xs: tuple[int, ...]) -> IntRow:
    """The row xs / m with gcd(m, every x) divided out: its `IntRow`,
    whose m is the lcm of the reduced denominators."""
    if m == 1 or (g := gcd(m, *xs)) == 1:
        return m, ks, xs
    return m // g, ks, tuple([x // g for x in xs])


# slot width in bits -> typecode of an unsigned array item of that width
_SLOTS = {16: "H", 32: "I", 64: "Q"}


def _row_sums(acc, c, ks, xs, rows, dn):
    """acc plus c times the row xs (xs[i] in column ks[i]) @ the rows, each
    taken over dn, a multiple of its denominator; summed into acc in place
    over nonzero entries only."""
    get = acc.get
    for k, x in zip(ks, xs):
        m, rk, rx = rows[k]
        x *= c * (dn // m)
        for j, y in zip(rk, rx):
            acc[j] = get(j, 0) + x * y
    return acc


def _packing(b: Matrix, w: int):
    """(base, packed): b's rows by Kronecker substitution, made once per
    slot width w and kept on b, in its `_packs`.  Row k is the integer
    sum_j y_j 2^(w j), y_j its entry in column j over `b._dn`: the array
    of unsigned w-bit slots y_j + 2^(w - 1), read as one integer in
    native byte order (slot 0 at the low end on little-endian hosts and
    at the high end otherwise), minus base, the integer of the offsets
    2^(w - 1) alone."""
    packs = vars(b).setdefault("_packs", {})
    if w not in packs:
        offsets = array(_SLOTS[w], [1 << (w - 1)]) * b.cols
        base, packed = int.from_bytes(offsets, sys.byteorder), []
        for m, ks, ys in b._int_rows:
            slots, s = offsets[:], b._dn // m
            for j, y in zip(ks, ys):
                slots[j] += y * s
            packed.append(int.from_bytes(slots, sys.byteorder) - base)
        packs[w] = base, packed
    return packs[w]


def drop_packings(ms: Iterable[Matrix]) -> None:
    """Drop the packed rows that `_packing` keeps on each of ms."""
    for m in ms:
        vars(m).pop("_packs", None)


def _sums(terms, read=False):
    """Row by row, sum(sign * (a @ b)) over the (sign, a, b) terms, all
    of one shape, exactly: (D, total, acc) for row i, over D, the row's
    common denominator.

    Term t adds sign * D / (m * dn) times the row xs / m of a @ b's rows
    over dn, `b._dn`: sign alone, with no division, when every a and b
    has unit denominators.  The row is summed over nonzero entries only
    into acc, {column: integer}, and total is 0, unless a has several rows
    and some b is dense, with at least a quarter of its entries nonzero.
    Then max D times |sign| * a's l1 * b's top (`Matrix._norms`), summed
    over the terms, bounds every entry of the sum, and of each b, and
    picks the narrowest `_SLOTS` width w with bound < 2^(w - 1); past 63
    bits there is none.  With w every b is packed (`_packing`), and the
    row is total, one integer combination of the packed rows: each
    w-bit slot holds one entry, so total is zero exactly when the row
    is.  With `read`, acc holds the slots read back.
    """
    shape = None
    for sign, a, b in terms:
        if a.cols != b.rows:
            raise ValueError(
                f"shape mismatch in @: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
        if shape not in (None, (a.rows, b.cols)):
            raise ValueError("shape mismatch in +")
        shape = (a.rows, b.cols)
    if shape is None:
        return
    unit = all(a._dn == b._dn == 1 for _, a, b in terms)
    dens = [1] * shape[0] if unit else list(map(lcm, *(
        [m * b._dn for m, _, _ in a._int_rows] for _, a, b in terms)))
    w = shape[0] > 1 and any(b._packable for *_, b in terms) and next(
        (w for w in _SLOTS if max(dens) * sum(
            abs(s) * a._norms[0] * b._norms[1] for s, a, b in terms)
         < 1 << (w - 1)), 0)
    terms = [(sign, a._int_rows, b._int_rows, b._dn, w and _packing(b, w))
             for sign, a, b in terms]
    for i, D in enumerate(dens):
        total, acc = 0, {}
        for sign, left, rows, dn, packed in terms:
            m, ks, xs = left[i]
            c = sign if unit else sign * (D // (m * dn))
            if w:
                total += c * sum(map(mul, xs, map(packed[1].__getitem__, ks)))
            else:
                _row_sums(acc, c, ks, xs, rows, dn)
        if w and read:  # every b has the same columns, so the same base
            half = 1 << (w - 1)
            acc = {j: v - half for j, v in enumerate(array(_SLOTS[w], (
                total + packed[0]).to_bytes(w // 8 * shape[1], sys.byteorder)))
                if v != half}
        yield D, total, acc


def vanishes(*terms: tuple[int, Matrix, Matrix]) -> bool:
    """Whether sum(sign * (a @ b)) over the (sign, a, b) terms is exactly
    the zero matrix; an empty sum vanishes.  No product is built: each
    row of the sum comes from `_sums` and is tested as it comes, as one
    integer of packed slots when some b is dense (each b packed once,
    at the narrowest slot width that holds the sum, and kept), else as
    one {column: integer} dict.  Every identity check between products
    is a call to this: lhs = rhs is `vanishes((1, *lhs), (-1, *rhs))`.
    """
    return not any(total or any(acc.values())
                   for _, total, acc in _sums(terms))


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


def _clear(row, piv, c):
    """row := a * row - b * piv in place, zeros dropped, for the least
    a > 0 and b that make column c of row zero; piv[c] > 0."""
    g = gcd(piv[c], row[c])
    a, b = piv[c] // g, row[c] // g
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


@record
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

    @cached
    def pivots(self) -> tuple[int, ...]:
        """The pivot column of each row, ascending."""
        return tuple(ks[0] for _, ks, _ in self.rows._int_rows)

    def free_columns(self) -> list[int]:
        """The coordinates off the pivots: a complement's basis, and the
        coordinates of the quotient by this space."""
        pivots = set(self.pivots)
        return [j for j in range(self.ambient_dim) if j not in pivots]

    @cached
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
    tgt's pivots.  Raises NotASubspaceError unless tgt.quotient kills it."""
    images = m @ src.rows.transpose()
    if not vanishes((1, tgt.quotient, images)):
        raise NotASubspaceError("the map does not send src into tgt")
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
    if not vanishes((1, sup.quotient, sub.rows.transpose())):
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
