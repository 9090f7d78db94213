"""Exact dense linear algebra over the rationals.

Everything downstream (axiom checks, boundary matrices, Betti numbers)
reduces to products, ranks, kernels, images and quotients computed here.
All arithmetic is exact: entries are ``fractions.Fraction`` values, but
the heavy loops run on Python integers.  Each `Matrix` keeps, beside
its dense entries, the integer form of its rows: per row, its nonzero
entries as integers over one common denominator (`_integer_terms`).
That form is computed at most once, or handed over by the builder
(`Matrix.from_integer_rows`, which the Hochschild face kernel uses), so
a matrix that is ~99% zeros is never scanned entry by entry again.
Products (`@` and `apply`) read it, sum integers over the nonzero
entries only and build one Fraction per nonzero output entry; when the
right factor is dense they pack each of its rows into one big integer
(Kronecker substitution).  Row reduction is fraction-free (Bareiss) on
the same integer rows.  Betti numbers need only ranks, which `rank`
reads off that echelon form with no further pass.  `rref` adds a
Fraction back-substitution and runs only where a canonical basis is
needed: homology representatives, induced maps and subspaces.  Pivoting
is deterministic (first nonzero entry in (row, col) order) so bases are
reproducible across runs; `reduce_mod` and `Subspace.coordinates`
update only the nonzero positions of each basis vector.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
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
# ks[i] for each i, every xs[i] nonzero and m the lcm of the reduced
# denominators (so the row is in lowest terms).  Two flat tuples keep it
# small: a matrix holds this form beside its dense entries.
IntRow = tuple[int, tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix with Fraction entries, row-major.

    Alongside the dense `entries`, a matrix keeps the integer form of its
    rows (`_int_rows`, one `IntRow` per row), computed at most once or
    handed over by whoever built the matrix.  Products, `apply`, `rank`
    and `rref` read that form, so they touch nonzero entries only.
    """

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"entry count {len(self.entries)} != {self.rows}x{self.cols}"
            )

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Fraction | int | str]]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(x if type(x) is Fraction else Fraction(x) for x in r)
        return Matrix(nrows, ncols, tuple(flat))

    @staticmethod
    def from_integer_rows(ncols: int,
                          int_rows: Sequence[tuple[int, dict[int, int]]]
                          ) -> "Matrix":
        """The matrix whose row i holds x / m in column k for each k: x of
        int_rows[i] = (m, {k: x}), m > 0; zero x are dropped.  The rows
        are kept, in lowest terms, as the matrix's integer form."""
        rows = [_lowest(m, tuple(k for k, x in row.items() if x),
                        tuple(x for x in row.values() if x))
                for m, row in int_rows]
        flat = [ZERO] * (len(rows) * ncols)
        memo: dict[tuple[int, int], Fraction] = {}
        for i, (m, ks, xs) in enumerate(rows):
            base = i * ncols
            for k, x in zip(ks, xs):
                f = memo.get((x, m))
                if f is None:
                    f = memo[x, m] = Fraction(x, m)
                flat[base + k] = f
        out = Matrix(len(rows), ncols, tuple(flat))
        out.__dict__["_int_rows"] = rows
        return out

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, (ZERO,) * (rows * cols))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, tuple(ONE if i == j else ZERO
                                  for i in range(n) for j in range(n)))

    @cached_property
    def _int_rows(self) -> list[IntRow]:
        e, c = self.entries, self.cols
        return [_integer_terms(enumerate(e[i * c:(i + 1) * c]))
                for i in range(self.rows)]

    @cached_property
    def _int_cols(self) -> list[IntRow]:
        """The integer form of the columns: the rows of the transpose."""
        cols: list[list[tuple[int, int, int]]] = [[] for _ in range(self.cols)]
        for i, (m, ks, xs) in enumerate(self._int_rows):
            for k, x in zip(ks, xs):
                cols[k].append((i, x, m))
        out = []
        for col in cols:
            dn = lcm(*(m for _, _, m in col))
            out.append(_lowest(dn, tuple(i for i, _, _ in col),
                               tuple(x * (dn // m) for _, x, m in col)))
        return out

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple[Fraction, ...]:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} out of range for {self.cols} columns")
        return self.entries[j::self.cols]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        e, c = self.entries, self.cols
        out = Matrix(self.cols, self.rows,
                     tuple(chain.from_iterable(e[j::c] for j in range(c))))
        if "_int_rows" in self.__dict__:
            out.__dict__["_int_rows"] = self._int_cols
            out.__dict__["_int_cols"] = self._int_rows
        return out

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in +")
        return Matrix(self.rows, self.cols,
                      tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in -")
        return Matrix(self.rows, self.cols,
                      tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        out = Matrix(self.rows, self.cols, tuple(-a for a in self.entries))
        if "_int_rows" in self.__dict__:
            out.__dict__["_int_rows"] = [(m, ks, tuple(-x for x in xs))
                                         for m, ks, xs in self._int_rows]
        return out

    def scale(self, c: Fraction | int) -> "Matrix":
        c = Fraction(c)
        return Matrix(self.rows, self.cols, tuple(c * a for a in self.entries))

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
        out = [ZERO] * self.rows
        for k, x in sums.items():
            if x:
                out[k] = Fraction(x, m)
        return tuple(out)

    def is_zero(self) -> bool:
        if "_int_rows" in self.__dict__:
            return not any(ks for _, ks, _ in self._int_rows)
        return all(not a for a in self.entries)


def _integer_terms(pairs: Iterable[tuple[int, Fraction]]) -> IntRow:
    """The `IntRow` of the nonzero x among the (k, x) pairs: m is the lcm
    of their denominators and each x is written as an integer over m."""
    terms = [(k, x) for k, x in pairs if x]
    m = 1
    for _, x in terms:
        d = x.denominator
        if d != 1:
            m = m // gcd(m, d) * d
    ks = tuple(k for k, _ in terms)
    if m == 1:
        return m, ks, tuple(x.numerator for _, x in terms)
    return m, ks, tuple(x.numerator * (m // x.denominator) for _, x in terms)


def _lowest(m: int, ks: tuple[int, ...], xs: tuple[int, ...]) -> IntRow:
    """The row xs / m with gcd(m, every x) divided out: its `IntRow`,
    whose m is the lcm of the reduced denominators."""
    if not xs:
        return 1, ks, xs
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


def _integer_rows(m: Matrix) -> list[list[int]]:
    """Dense integer rows, each row scaled by its own m; rank is unchanged."""
    out = []
    for _, ks, xs in m._int_rows:
        row = [0] * m.cols
        for k, x in zip(ks, xs):
            row[k] = x
        out.append(row)
    return out


def _bareiss_echelon(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form. Returns (echelon rows, pivot cols).

    Pivot choice is deterministic: scan columns left to right, take the
    first row (top to bottom) with a nonzero entry.
    """
    pivots: list[int] = []
    r = 0
    prev = 1
    nrows = len(rows)
    for c in range(ncols):
        sel = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        piv = rows[r][c]
        fr = rows[r]
        for i in range(r + 1, nrows):
            fi = rows[i]
            fac = fi[c]
            for j in range(c + 1, ncols):
                q, rem = divmod(piv * fi[j] - fac * fr[j], prev)
                if rem:
                    raise ArithmeticError(
                        "Bareiss exact-division invariant broken")
                fi[j] = q
            fi[c] = 0
        prev = piv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...], int]:
    """Reduced row-echelon form, pivot columns, rank."""
    if m.rows == 0 or m.cols == 0:
        return m, (), 0
    rows, pivots = _bareiss_echelon(_integer_rows(m), m.cols)
    rank = len(pivots)
    # back-substitute with exact rationals
    frows: list[list[Fraction]] = [[Fraction(x) for x in r] for r in rows]
    for k in range(rank - 1, -1, -1):
        c = pivots[k]
        piv = frows[k][c]
        frows[k] = [x / piv for x in frows[k]]
        for i in range(k):
            f = frows[i][c]
            if f:
                frows[i] = [a - f * b for a, b in zip(frows[i], frows[k])]
    flat = [x for r in frows for x in r]
    flat.extend([ZERO] * ((m.rows - rank) * m.cols))
    return Matrix(m.rows, m.cols, tuple(flat)), tuple(pivots), rank


def rank(m: Matrix) -> int:
    """Rank from the fraction-free echelon form, without back-substitution."""
    if m.rows == 0 or m.cols == 0:
        return 0
    return len(_bareiss_echelon(_integer_rows(m), m.cols)[1])


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^ambient_dim given by an RREF-normalized basis.

    Basis vectors are the nonzero rows of an RREF matrix, so two equal
    subspaces have identical representations.
    """

    ambient_dim: int
    basis: tuple[tuple[Fraction, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @staticmethod
    def from_vectors(ambient_dim: int,
                     vectors: Iterable[Sequence[Fraction]]) -> "Subspace":
        vecs = [tuple(Fraction(x) for x in v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("vector length != ambient_dim")
        if not vecs:
            return Subspace(ambient_dim, ())
        r, _, rk = rref(Matrix(len(vecs), ambient_dim,
                               tuple(x for v in vecs for x in v)))
        return Subspace(ambient_dim, tuple(r.row(i) for i in range(rk)))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        ident = Matrix.identity(ambient_dim)
        return Subspace(ambient_dim, tuple(ident.row(i) for i in range(ambient_dim)))

    def contains(self, vec: Sequence[Fraction]) -> bool:
        if len(vec) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        residual = reduce_mod(self, vec)
        return not any(residual)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    @cached_property
    def _pivot_terms(self) -> list[tuple[int, list[tuple[int, Fraction]]]]:
        """Per basis vector, its pivot column and its nonzero entries."""
        out = []
        for bvec in self.basis:
            terms = [(j, x) for j, x in enumerate(bvec) if x]
            out.append((terms[0][0], terms))
        return out

    def coordinates(self, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Coordinates of vec in the RREF basis; raises if not a member."""
        coords, residual = _eliminate(self, vec)
        if any(residual):
            raise NotASubspaceError("vector not in subspace")
        return tuple(coords)


class NotASubspaceError(ValueError):
    pass


def _eliminate(sub: Subspace, vec: Sequence[Fraction]
               ) -> tuple[list[Fraction], list[Fraction]]:
    """RREF pivot elimination of vec by sub's basis: the coefficient taken
    of each basis vector, and the residual.  Each basis vector updates
    only its own nonzero positions, in place."""
    coords = []
    residual = list(vec)
    for p, terms in sub._pivot_terms:
        c = residual[p]
        coords.append(c)
        if c:
            for j, x in terms:
                residual[j] -= c * x
    return coords, residual


def reduce_mod(sub: Subspace, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Canonical representative of vec modulo sub (RREF pivot elimination)."""
    return tuple(_eliminate(sub, vec)[1])


def kernel(m: Matrix) -> Subspace:
    """Null space {x : m x = 0}."""
    r, pivots, rk = rref(m)
    free = [j for j in range(m.cols) if j not in pivots]
    vecs = []
    for f in free:
        v = [ZERO] * m.cols
        v[f] = ONE
        for k, p in enumerate(pivots):
            v[p] = -r[k, f]
        vecs.append(tuple(v))
    return Subspace.from_vectors(m.cols, vecs)


def image(m: Matrix) -> Subspace:
    """Column space, RREF-normalized."""
    return Subspace.from_vectors(m.rows,
                                 [m.col(j) for j in range(m.cols)])


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
