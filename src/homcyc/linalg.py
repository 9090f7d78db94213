"""Exact dense linear algebra over the rationals.

Everything downstream (axiom checks, boundary matrices, Betti numbers)
reduces to products, ranks, kernels, images and quotients computed here.
All arithmetic is exact: entries are ``fractions.Fraction`` values, but
the heavy loops run on Python integers.  `_integer_terms` writes a row
as its nonzero entries over one common denominator; products (`@` and
`apply`) sum those integers and build one Fraction per nonzero output
entry, and row reduction is fraction-free (Bareiss) on the same
integer-scaled rows.  Betti numbers need only ranks, which `rank` reads
off that echelon form with no further pass.  `rref` adds a Fraction
back-substitution and runs only where a canonical basis is needed:
homology representatives, induced maps and subspaces.  Pivoting is
deterministic (first nonzero entry in (row, col) order) so bases are
reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix with Fraction entries, row-major."""

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
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, (ZERO,) * (rows * cols))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, tuple(ONE if i == j else ZERO
                                  for i in range(n) for j in range(n)))

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      tuple(self.entries[i * self.cols + j]
                            for j in range(self.cols) for i in range(self.rows)))

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
        return Matrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c: Fraction | int) -> "Matrix":
        c = Fraction(c)
        return Matrix(self.rows, self.cols, tuple(c * a for a in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch in @: {self.rows}x{self.cols} @ "
                f"{other.rows}x{other.cols}")
        right = {k: _integer_terms(enumerate(other.row(k)))
                 for k in range(other.rows)}
        return Matrix(self.rows, other.cols, tuple(_product(
            (self.row(i) for i in range(self.rows)), right, other.cols)))

    def apply(self, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Matrix-vector product (vec as a column of coordinates): the
        columns of self at the nonzero coordinates, combined."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        e, c = self.entries, self.cols
        right = {k: _integer_terms(enumerate(e[k::c]))
                 for k, v in enumerate(vec) if v}
        return tuple(_product((vec,), right, self.rows))

    def is_zero(self) -> bool:
        return all(not a for a in self.entries)


def _integer_terms(pairs: Iterable[tuple[int, Fraction]]
                   ) -> tuple[int, list[tuple[int, int]]]:
    """(m, [(k, m * x) for each nonzero x]) from (k, x) pairs, m the lcm
    of the denominators: the entries as integers over m."""
    terms = [(k, x) for k, x in pairs if x]
    m = 1
    for _, x in terms:
        d = x.denominator
        if d != 1:
            m = m // gcd(m, d) * d
    if m == 1:
        return 1, [(k, x.numerator) for k, x in terms]
    return m, [(k, x.numerator * (m // x.denominator)) for k, x in terms]


def _product(left_rows: Iterable[Sequence[Fraction]],
             right: dict[int, tuple[int, list[tuple[int, int]]]],
             ncols: int) -> list[Fraction]:
    """Row-major entries of L @ R, exactly, on integers.

    `right[k]` is `_integer_terms` of row k of R (rows not in `right` are
    zero).  R is brought to one common denominator dn, each row of L to
    its own m, and an output entry is its integer sum over m * dn: one
    Fraction per nonzero entry, no Fraction arithmetic.
    """
    dn = lcm(*(m for m, _ in right.values()))
    rows = {k: terms if m == dn else [(j, x * (dn // m)) for j, x in terms]
            for k, (m, terms) in right.items() if terms}
    ks = list(rows)
    out: list[Fraction] = []
    for row in left_rows:
        m, terms = _integer_terms(zip(ks, map(row.__getitem__, ks)))
        acc = [0] * ncols
        for k, x in terms:
            for j, y in rows[k]:
                acc[j] += x * y
        den = m * dn
        out.extend(Fraction(v, den) if v else ZERO for v in acc)
    return out


def _integer_rows(m: Matrix) -> list[list[int]]:
    """Scale each row by the lcm of its denominators; rank is unchanged."""
    out = []
    for i in range(m.rows):
        row = [0] * m.cols
        for k, x in _integer_terms(enumerate(m.row(i)))[1]:
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

    def coordinates(self, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Coordinates of vec in the RREF basis; raises if not a member."""
        coords = []
        residual = list(vec)
        for bvec in self.basis:
            p = next(j for j, x in enumerate(bvec) if x)
            c = residual[p]
            coords.append(c)
            if c:
                residual = [a - c * b for a, b in zip(residual, bvec)]
        if any(residual):
            raise NotASubspaceError("vector not in subspace")
        return tuple(coords)


class NotASubspaceError(ValueError):
    pass


def reduce_mod(sub: Subspace, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Canonical representative of vec modulo sub (RREF pivot elimination)."""
    residual = list(vec)
    for bvec in sub.basis:
        p = next(j for j, x in enumerate(bvec) if x)
        c = residual[p]
        if c:
            residual = [a - c * b for a, b in zip(residual, bvec)]
    return tuple(residual)


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
