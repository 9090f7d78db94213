"""Exact sparse linear algebra over the rationals.

Everything downstream (axiom checks, boundary matrices, Betti numbers)
reduces to products, ranks, kernels, images and quotients computed here.
All arithmetic is exact and runs on Python integers.  A `Matrix` stores
only its rows, each as its nonzero entries, integers over one common
denominator (`IntRow`), so a matrix that is ~99% zeros costs its nonzero
entries alone; dense Fraction views (`entries`, `row`, `col`) are
computed on demand and no operation reads them; a row over 1 skips the
gcd pass.  Products (`@`, `apply`) are plain sparse row sums: integers
summed over the nonzero entries only, row by row (`_row_sums`).
`vanishes`, which tests a signed sum of products for zero and builds
no product, sums the same way, unless a right factor is dense, with at
least a quarter of its entries nonzero (decided once per matrix).  Only
`vanishes` then packs that factor by Kronecker substitution, each row
one big integer with an entry in each 16-, 32- or 64-bit slot: once per
matrix and slot width, kept on the matrix with the slot bound's numbers
(`_norms`) until `drop_packings`, and used by every check it enters.
The slots are the narrowest that hold the bound on the sum, so a row
is decided on one integer.  A Kronecker product keeps its innermost
factors (`kron`), and each of its packed rows is one product of their
packed rows, each factor packed at the width that puts its entries'
products in their slots; every face but delta_n, and every tensor
power, is one.  Any other row is packed by one shift sum.  Row
reduction is sparse integer elimination on {column: integer} dicts,
the rows taken bottom-up (`_echelon`): `rank` counts the pivots of the
echelon form, and `rref` adds a back-substitution where a canonical
basis is needed; the RREF is unique, whatever the order.

A `Subspace` is its RREF, a `Matrix` of the nonzero rows (`rows`).  Its
`quotient`, the identity at the free columns minus the RREF entries at
the pivots, maps onto the quotient by the subspace in `free_columns`
coordinates and has the subspace as its kernel.  Membership and
`kernel` are products with it, and `reduce_mod(sub, m)` is the one
product `sub.quotient @ m`: every column of m modulo sub at once.  The
check that m maps src into tgt is that product vanishing on src's
basis; `restrict` reads m @ src.rows^T at tgt's pivots, and `descend`
reads the columns of `reduce_mod(tgt, m)` at src's free columns.
Sums of matrices go through `signed_sum` (a stream of signed
matrices, one held at a time), as `+` and `-` do; `block_matrix`
places disjoint blocks side by side and sums nothing, rescaling a row
only where the denominators differ.  Nothing is summed either where
the rows are written directly: `scale` (and `-m`) is a Kronecker
product by a 1 x 1 matrix, `permute_columns` moves and sorts each
row's (column, entry) pairs, a `signed_permutation` (the identity among
them) holds one entry per row, and `power_sum` writes a weighted sum of
its powers (Id - t, N) row by row.  `swap_slots` moves a first slot back.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from .errors import NotASubspaceError
from .records import cached, record

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


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
            raise ValueError(f"vector length != {nrows}")
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
        return signed_permutation(range(n), 1)

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
        return tuple(x for r in self.to_rows() for x in r)

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
        return kron(Matrix(1, 1, [c]), self)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        _shape(self, other)
        rows, dn = other._int_rows, other._dn
        return Matrix.from_integer_rows(other.cols, [
            (m * dn, _row_sums({}, 1, ks, xs, rows, dn))
            for m, ks, xs in self._int_rows])

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
    """The Kronecker product a (x) b, a's indices most significant.
    Where `vanishes` may pack it (`_packable`) and a is not 1 x 1, it
    keeps its `_factors`: a's, or a itself, then b's, or b itself, so a
    product holds its innermost factors alone.  A product's density is
    its factors', so each factor of a packable product is packable."""
    if b.cols == 1 and b._int_rows == ((1, (0,), (1,)),):
        return a  # b is the 1 x 1 identity
    w = b.cols
    out = _matrix(a.rows * b.rows, a.cols * w, tuple([
        _lowest(ma * mb, tuple([i * w + j for i in ka for j in kb]),
                tuple([x * y for x in xa for y in xb]))
        for ma, ka, xa in a._int_rows for mb, kb, xb in b._int_rows]))
    if a.rows * a.cols != 1 and out._packable:
        vars(out)["_factors"] = vars(a).get("_factors", (a,)) + \
            vars(b).get("_factors", (b,))
    return out


def permute_columns(m: Matrix, perm: Sequence[int]) -> Matrix:
    """m with its column k moved to column perm[k], perm a permutation."""
    return _matrix(m.rows, m.cols, tuple([
        (dn, *zip(*sorted(zip(map(perm.__getitem__, ks), xs)))) if ks
        else _ZERO_ROW for dn, ks, xs in m._int_rows]))


def signed_permutation(cols: Sequence[int], sign: int) -> Matrix:
    """The square matrix whose row r holds sign, 1 or -1, at column
    cols[r], cols a permutation."""
    return _matrix(len(cols), len(cols),
                   tuple([(1, (c,), (sign,)) for c in cols]))


def swap_slots(p: int, q: int) -> list[int]:
    """The index map of Q^p (x) Q^q -> Q^q (x) Q^p: a * q + b -> b * p + a."""
    return [k % q * p + k // q for k in range(p * q)]


def power_sum(t: Matrix, weights: Sequence[int]) -> Matrix:
    """sum_k weights[k] t^k, row by row, walking t's columns; ValueError
    unless t is a signed permutation, one 1 or -1 over 1 in each row."""
    step = [(ks[0], xs[0]) for m, ks, xs in t._int_rows
            if m == 1 and xs in ((1,), (-1,))]
    if len(step) != t.rows or t.rows != t.cols:
        raise ValueError("not a signed permutation")
    rows = []
    for r in range(t.rows):
        acc, c, s = {}, r, 1
        for w in weights:
            acc[c] = acc.get(c, 0) + s * w
            c, x = step[c]
            s *= x
        rows.append((1, acc))
    return Matrix.from_integer_rows(t.cols, rows)


def signed_sum(terms: Iterable[tuple[int, Matrix]]) -> Matrix:
    """sum(sign * m) over one or more (sign, m) terms, all of one shape.

    Each term is added row by row into running integer sums as it
    arrives, sums[i] / dens[i] += sign * xs / m for each row xs / m,
    rescaling sums[i] unless m = dens[i], and then let go: a generator
    of terms keeps one of them alive at a time.
    """
    shape = None
    for sign, mat in terms:
        if shape is None:
            shape = (mat.rows, mat.cols)
            dens, sums = [1] * mat.rows, [{} for _ in range(mat.rows)]
        elif shape != (mat.rows, mat.cols):
            raise ValueError("shape mismatch in +")
        for i, (m, ks, xs) in enumerate(mat._int_rows):
            s, acc = sign, sums[i]
            if m != dens[i]:
                common = lcm(dens[i], m)
                for k in acc:
                    acc[k] *= common // dens[i]
                s *= common // m
                dens[i] = common
            get = acc.get
            for k, x in zip(ks, xs):
                acc[k] = get(k, 0) + s * x
        del mat
    return Matrix.from_integer_rows(shape[1], list(zip(dens, sums)))


def block_matrix(rows: int, cols: int,
                 blocks: Sequence[tuple[Matrix, int, int]]) -> Matrix:
    """rows x cols matrix with each (block, row offset, col offset) placed
    in it and zeros elsewhere.  Nothing is summed: taken left to right,
    each block's rows are appended to the rows they meet, over the lcm
    of the denominators; a block that overlaps one to its left raises
    ValueError."""
    out, ends = [_ZERO_ROW] * rows, [0] * rows
    for b, roff, coff in sorted(blocks, key=lambda x: x[2]):
        for i, (m, ks, xs) in enumerate(b._int_rows, roff):
            dn, left, ys = out[i]
            if ends[i] > coff:
                raise ValueError("blocks overlap")
            ends[i], d = coff + b.cols, lcm(dn, m)
            out[i] = d, left + tuple([coff + k for k in ks]), ys + xs \
                if dn == m else tuple([y * (d // dn) for y in ys] +
                                      [x * (d // m) for x in xs])
    return _matrix(rows, cols, tuple(out))


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


def _packing(b: Matrix, w: int) -> list[int]:
    """b's rows packed for `vanishes`: row k is sum_j y_j 2^(w j), y_j
    its entry in column j over `b._dn`; kept on b, in its `_packs`, once
    per slot width w.  b is the Kronecker product of its `_factors` f_1,
    ..., f_k (of itself alone when it has none), and its row r is the
    product over i of row r_i of f_i, packed by one shift sum at width
    w * (f_(i+1).cols * ... * f_k.cols): that puts the product of their
    entries in the slot of its column.  Over the factors' denominators
    this is e = (f_1._dn * ... * f_k._dn) / b._dn times the entry over
    b's, so the row is divided by e.  No factor's packing is kept."""
    packs = vars(b).setdefault("_packs", {})
    if w not in packs:
        factors, rows, cols = vars(b).get("_factors", (b,)), None, b.cols
        for f in factors:
            cols //= f.cols or 1  # a factor without columns zeroes b
            s = w * cols
            right = [f._dn // m * sum(y << s * j for j, y in zip(ks, ys))
                     for m, ks, ys in f._int_rows]
            rows = right if rows is None else \
                [x * y for x in rows for y in right]
        e = prod(f._dn for f in factors) // b._dn
        packs[w] = rows if e == 1 else [x // e for x in rows]
    return packs[w]


def drop_packings(ms: Iterable[Matrix]) -> None:
    """Drop the packed rows that `_packing` keeps on each of ms."""
    for m in ms:
        vars(m).pop("_packs", None)


def _shape(a: Matrix, b: Matrix) -> tuple[int, int]:
    """The shape of a @ b; raises ValueError unless a.cols == b.rows."""
    if a.cols != b.rows:
        raise ValueError(
            f"shape mismatch in @: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    return a.rows, b.cols


def vanishes(*terms: tuple[int, Matrix, Matrix]) -> bool:
    """Whether sum(sign * (a @ b)) over the (sign, a, b) terms, all of
    one shape, is exactly the zero matrix; an empty sum vanishes.  No
    product is built: row i of the sum is taken at its common
    denominator D, term t adding sign * D / (m * dn) times a's row xs / m
    @ b's rows over dn = `b._dn` (sign alone when every factor is over
    1), and the first nonzero row decides.  A row is summed into one
    {column: integer} dict (`_row_sums`), unless a has several rows and
    some b is dense, a quarter or more of it nonzero.  Then max D times
    |sign| * a's l1 * b's top (`Matrix._norms`), summed over the terms,
    bounds every entry of the sum and of each b.  If a slot width w of
    16, 32 or 64 bits has bound < 2^(w - 1), the narrowest packs every b
    (`_packing`), and the row is one integer combination of packed rows,
    with one entry in each w-bit slot: zero exactly when the row is.
    Every identity check between products is a call to this: lhs = rhs
    is `vanishes((1, *lhs), (-1, *rhs))`.
    """
    shape = None
    for _, a, b in terms:
        if shape not in (None, ab := _shape(a, b)):
            raise ValueError("shape mismatch in +")
        shape = ab
    if shape is None:
        return True
    unit = all(a._dn == b._dn == 1 for _, a, b in terms)
    dens = [1] * shape[0] if unit else list(map(lcm, *(
        [m * b._dn for m, _, _ in a._int_rows] for _, a, b in terms)))
    w = shape[0] > 1 and any(b._packable for *_, b in terms) and next(
        (w for w in (16, 32, 64) if max(dens) * sum(
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
                total += c * sum(map(mul, xs, map(packed.__getitem__, ks)))
            else:
                _row_sums(acc, c, ks, xs, rows, dn)
        if total or any(acc.values()):
            return False
    return True


def _echelon(m: Matrix) -> dict[int, dict[int, int]]:
    """Integer row echelon form of m, as {pivot column: row}.  Each row
    of m, a {column: integer} dict (a multiple of the row, which keeps
    the row space), is cleared at its lowest column against the pivot
    row there until there is none, then divided by its content, signed
    to make its pivot entry positive, and kept as that column's pivot
    row.  Rows that reach zero drop out.

    The rows are taken bottom-up: the echelon form's row space is the
    same in any order, and on the boundary maps built here this order
    clears far less (elimination order sets the work and the fill-in,
    as in Markowitz, 1957).  On d_10 of the total complex of
    `two_dim_unital`'s cyclic bicomplex (2046 x 4094) `_clear` runs
    16,301 times, not 853,599, at the same fill (13,307 pivot-row
    nonzeros, not 13,417); on `matrix_2x2`'s d_7 (21844 x 87380) the
    pivot rows hold 220,006 nonzeros, not 854,401."""
    pivots: dict[int, dict[int, int]] = {}
    for _, ks, xs in reversed(m._int_rows):
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
    pivot entry positive, then each row over its pivot entry.  Each
    pivot row clears only the other pivot columns it holds, highest
    first, against rows already reduced; a reduced row holds no other
    pivot column, so clearing adds none.  The RREF of a matrix is
    unique, so it does not depend on the order of elimination."""
    pivots = _echelon(m)
    order = sorted(pivots)
    for p in reversed(order):
        row = pivots[p]
        for q in sorted(row.keys() & pivots.keys(), reverse=True)[:-1]:
            _clear(row, pivots[q], q)
    out = [(pivots[p][p], pivots[p]) for p in order]
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
        return tuple(map(tuple, self.rows.to_rows()))

    @staticmethod
    def from_vectors(ambient_dim: int,
                     vectors: Iterable[Sequence[Fraction]]) -> "Subspace":
        return _row_space(Matrix.from_columns(ambient_dim,
                                              list(vectors)).transpose())

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


def reduce_mod(sub: Subspace, m: Matrix) -> Matrix:
    """m's columns modulo sub, in sub's `free_columns` coordinates:
    `sub.quotient @ m`, one sparse product.  Column j holds the entries
    at the free columns of the canonical representative of m's column j,
    which is zero at sub's pivots; it is zero exactly when that column
    lies in sub."""
    return sub.quotient @ m


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
    `free_columns` coordinates of both quotients: the columns of
    `reduce_mod(tgt, m)` at src's free columns, read as rows of its
    transpose.  Raises NotASubspaceError unless that product kills
    src's basis, that is unless m maps src into tgt."""
    reduced = reduce_mod(tgt, m)
    if not vanishes((1, reduced, src.rows.transpose())):
        raise NotASubspaceError("the map does not send src into tgt")
    free = src.free_columns()
    return _matrix(len(free), reduced.rows, tuple(
        reduced._int_cols[f] for f in free)).transpose()


def quotient_dim(sub: Subspace, sup: Subspace) -> int:
    """dim(sup / sub); raises NotASubspaceError unless sub is inside sup."""
    if sub.ambient_dim != sup.ambient_dim:
        raise NotASubspaceError("ambient dimensions differ")
    if not vanishes((1, sup.quotient, sub.rows.transpose())):
        raise NotASubspaceError("first argument is not contained in second")
    return sup.dim - sub.dim
