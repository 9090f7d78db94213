"""Chain-level operators: face maps, b, b', t, N, theta, and cofaces.

Basis conventions.  The degree-n chain space is V (x) A^{(x)n} with basis
tensors enumerated big-endian: index = v * d^n + sum_k i_k * d^(n-k), so
the coefficient slot is most significant.  For the regular bimodule this
identifies C_n(A) with A^{(x)(n+1)} where a_0 occupies the coefficient
slot.  Cochains A^{(x)n} -> W use the same (w, i_1..i_n) enumeration;
with W = (regular)* this makes the identification of a cochain with a
functional on A^{(x)(n+1)} the identity on coordinates, so the cyclic
operators on cochains are plain transposes of the chain-level ones.

One integer kernel builds every face-type operator.  `_Faces` writes
alpha's columns, mu, beta and the action columns of one (algebra,
coefficients) pair as sparse integer vectors over one common
denominator D.  A face term in degree n is a tensor product of n of
these vectors, so every column of a face, of b and of b' is a set of
integers over D^n, which the matrix keeps as its integer rows (see
`linalg`).  The cochain coefficients are a `Bimodule` tagged `dual`, and
a coface is a face of its transposed coefficient data, transposed: each
row of the coboundary is a face column.  The face data of a bimodule are
built once and kept on it.  t is a signed permutation, and N and theta
are weighted sums of its powers, written down directly.

The (co)simplicial identities are checked degree by degree.  All faces
(or cofaces) of one degree come from one pass of the kernel, which
shares the alpha prefixes and suffixes of each tensor among them, and a
checked build hands each degree's list on to the check of the degree
above, so every degree's faces are built once per build and kept no
longer.  Each identity is one `linalg.vanishes` call, which sums the two
products' integer rows and builds no product matrix.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from math import lcm
from typing import Iterator, Sequence

from .algebra import HomAlgebra
from .coefficients import (Bimodule, regular_bimodule,
                           validate_homology_coefficients)
from .complexes import ChainComplex
from .linalg import Matrix, vanishes

SparseVector = list[tuple[int, int]]


class CoefficientHypothesisError(ValueError):
    """The bimodule does not satisfy the extra homology-theorem hypotheses."""


class IdentityViolationError(ValueError):
    """A chain-level identity asserted by the theory fails: either the
    input algebra is malformed or the construction has a bug."""


def chain_dim(A: HomAlgebra, V, n: int) -> int:
    return V.dim * A.dim ** n


def _kron(a: SparseVector, b: SparseVector, size_b: int) -> SparseVector:
    """a (x) b for sparse vectors, a's index most significant."""
    return [(i * size_b + j, x * y) for i, x in a for j, y in b]


class _Faces:
    """alpha's columns, mu, beta and the action columns of one (algebra,
    coefficients) pair as sparse integer vectors over one denominator D:
    beta[v] = beta(e_v), left[v][a] = e_a . e_v, right[v][a] = e_v . e_a."""

    def __init__(self, A: HomAlgebra, beta, left, right):
        alpha = [A.alpha.col(j) for j in range(A.dim)]
        mu = [list(row) for row in A.mu]
        vecs = [*alpha, *beta] + [u for rows in (mu, left, right)
                                  for row in rows for u in row]
        D = lcm(*(x.denominator for u in vecs for x in u))

        def sparse(u: Sequence[Fraction]) -> SparseVector:
            return [(k, x.numerator * (D // x.denominator))
                    for k, x in enumerate(u) if x]

        self.d, self.m, self.D = A.dim, len(beta), D
        self.alpha = [sparse(u) for u in alpha]
        self.mu = [[sparse(u) for u in row] for row in mu]
        self.beta = [sparse(u) for u in beta]
        self.left = [[sparse(u) for u in row] for row in left]
        self.right = [[sparse(u) for u in row] for row in right]

    @staticmethod
    def of(A: HomAlgebra, V: Bimodule) -> "_Faces":
        """The face data of V; for a dual bimodule, of its transposed
        coefficient data, whose faces are its cofaces transposed.  Built
        once per bimodule instance and kept on it when A is V's algebra:
        V is immutable, so its face data never change."""
        faces = vars(V).get("_faces") if A is V.algebra else None
        if faces is None:
            vec = Matrix.row if V.dual else Matrix.col
            left, right = (V.right, V.left) if V.dual else (V.left, V.right)
            faces = _Faces(A, [vec(V.beta, v) for v in range(V.dim)],
                           *([[vec(act[a], v) for a in range(A.dim)]
                              for v in range(V.dim)] for act in (left, right)))
            if A is V.algebra:
                vars(V)["_faces"] = faces
        return faces

    def _terms(self, n: int, faces: Sequence[int]
               ) -> Iterator[list[SparseVector]]:
        """Per basis tensor of C_n, in index order, the column of each
        face delta_i, i in `faces`, as a sparse vector whose entries are
        x / D^n.  Prefixes and suffixes of alpha factors are built once
        per tensor and shared by the faces."""
        for i in faces:
            if not 0 <= i <= n or n < 1:
                raise IndexError(f"face index {i} out of range for degree {n}")
        d, alpha, mu = self.d, self.alpha, self.mu
        hi = max(faces, default=0)
        lo = min(faces, default=n)
        for v in range(self.m):
            beta, left, right = self.beta[v], self.left[v], self.right[v]
            for idx in iproduct(range(d), repeat=n):
                # pre[k]: alpha(e_idx[0]) (x) ... (x) alpha(e_idx[k-1]);
                # suf[k]: alpha(e_idx[k]) (x) ... (x) alpha(e_idx[n-1])
                pre = [[(0, 1)]]
                for k in range(hi - 1):
                    pre.append(_kron(pre[k], alpha[idx[k]], d))
                suf = {n: [(0, 1)]}
                for k in range(n - 1, lo, -1):
                    suf[k] = _kron(alpha[idx[k]], suf[k + 1], d ** (n - 1 - k))
                out = []
                for i in faces:
                    if i == 0:
                        out.append(_kron(right[idx[0]], suf[1], d ** (n - 1)))
                    elif i == n:
                        out.append(_kron(left[idx[-1]], pre[n - 1],
                                         d ** (n - 1)))
                    else:
                        out.append(_kron(
                            _kron(_kron(beta, pre[i - 1], d ** (i - 1)),
                                  mu[idx[i - 1]][idx[i]], d),
                            suf[i + 1], d ** (n - 1 - i)))
                yield out

    def _matrix(self, n: int, cols: list[tuple[int, dict[int, int]]],
                transpose: bool) -> Matrix:
        """The map C_n -> C_{n-1} with these columns, or its transpose."""
        out = Matrix.from_integer_rows(self.m * self.d ** (n - 1), cols)
        return out if transpose else out.transpose()

    def matrix(self, n: int, faces: Sequence[tuple[int, int]], *,
               transpose: bool = False) -> Matrix:
        """The signed face sum over the (i, sign) pairs in `faces`,
        C_n -> C_{n-1}, or with `transpose` its transpose, whose rows
        are the face columns."""
        signs = [sign for _, sign in faces]
        den = self.D ** n
        cols = []
        for parts in self._terms(n, [i for i, _ in faces]):
            acc: dict[int, int] = {}
            for sign, terms in zip(signs, parts):
                for k, x in terms:
                    acc[k] = acc.get(k, 0) + sign * x
            cols.append((den, acc))
        return self._matrix(n, cols, transpose)

    def each(self, n: int, *, transpose: bool = False) -> list[Matrix]:
        """Every face delta_0, ..., delta_n at degree n (or with
        `transpose` their transposes), from one pass of `_terms`."""
        den = self.D ** n
        cols: list[list[tuple[int, dict[int, int]]]] = \
            [[] for _ in range(n + 1)]
        for parts in self._terms(n, range(n + 1)):
            for out, terms in zip(cols, parts):
                out.append((den, dict(terms)))
        return [self._matrix(n, c, transpose) for c in cols]


def _alternating(k: int) -> list[tuple[int, int]]:
    return [(i, -1 if i % 2 else 1) for i in range(k)]


def face_map(A: HomAlgebra, V: Bimodule, n: int, i: int | None = None
             ) -> Matrix | list[Matrix]:
    """Matrix of the i-th face C_n(A, V) -> C_{n-1}(A, V); with i
    omitted, the list of all n + 1 faces, built in one pass."""
    if i is None:
        return _Faces.of(A, V).each(n)
    return _Faces.of(A, V).matrix(n, [(i, 1)])


def hochschild_b(A: HomAlgebra, V: Bimodule, n: int) -> Matrix:
    """Alternating sum of faces, C_n -> C_{n-1}, built in one pass."""
    return _Faces.of(A, V).matrix(n, _alternating(n + 1))


def b_prime(A: HomAlgebra, n: int) -> Matrix:
    """b' on C_n(A) = A^{(x)(n+1)}: faces 0..n-1 of the regular bimodule,
    all but the wrap-around one."""
    return _Faces.of(A, regular_bimodule(A)).matrix(n, _alternating(n))


def _rotation_sum(A: HomAlgebra, n: int, weights: Sequence[int]) -> Matrix:
    """sum_k weights[k] t^k on A^{(x)(n+1)}.  t^k is a signed
    permutation: row r holds sign^k at the k-fold inverse rotation of r."""
    d = A.dim
    size, top = d ** (n + 1), d ** n
    sign = -1 if n % 2 else 1
    rows = []
    for r in range(size):
        acc: dict[int, int] = {}
        c, s = r, 1
        for w in weights:
            if w:
                acc[c] = acc.get(c, 0) + s * w
            c, s = c % top * d + c // top, s * sign
        rows.append((1, acc))
    return Matrix.from_integer_rows(size, rows)


def cyclic_t(A: HomAlgebra, n: int) -> Matrix:
    """Signed cyclic rotation on A^{(x)(n+1)}: sign (-1)^n, last slot to front."""
    return _rotation_sum(A, n, (0, 1))


def norm_N(A: HomAlgebra, n: int) -> Matrix:
    """N = Id + t + ... + t^n on A^{(x)(n+1)}."""
    return _rotation_sum(A, n, (1,) * (n + 1))


def homotopy_theta(A: HomAlgebra, n: int) -> Matrix:
    """Row-contracting homotopy: theta = sum_{i=0}^{n} (n+1-i) t^i.

    These weights satisfy N + theta(Id - t) = (n+1) Id exactly.
    """
    return _rotation_sum(A, n, range(n + 1, 0, -1))


def check_presimplicial(A: HomAlgebra, V: Bimodule, n: int,
                        lower: list[Matrix] | None = None) -> list[Matrix]:
    """delta_i delta_j = delta_{j-1} delta_i for i < j at degree n, each
    pair one `vanishes` call.  `lower` is `face_map(A, V, n - 1)` when
    the caller has it from the degree below; the faces of degree n are
    returned, for the degree above."""
    faces_n = face_map(A, V, n)
    if n >= 2:
        faces_m = face_map(A, V, n - 1) if lower is None else lower
        for j in range(1, n + 1):
            for i in range(j):
                if not vanishes((1, faces_m[i], faces_n[j]),
                                (-1, faces_m[j - 1], faces_n[i])):
                    raise IdentityViolationError(
                        f"presimplicial identity fails at n={n}, i={i}, j={j}")
    return faces_n


def build_hochschild_homology_complex(A: HomAlgebra, V: Bimodule,
                                      n_max: int, *,
                                      check_identities: bool = True) -> ChainComplex:
    """The complex (C_*(A, V), b) truncated at n_max.

    The homology hypotheses on V are checked once per bimodule instance,
    and the verdict is kept on it: V is immutable, so a bimodule that
    fails them raises on every build."""
    verdict = vars(V).get("_homology_hypotheses")
    if verdict is None:
        verdict = validate_homology_coefficients(V)
        vars(V)["_homology_hypotheses"] = verdict
    ok, bad = verdict
    if not ok:
        raise CoefficientHypothesisError(
            "coefficients violate the homology hypotheses: " + str(bad[0]))
    dims = {n: chain_dim(A, V, n) for n in range(n_max + 1)}
    diffs = {n: hochschild_b(A, V, n) for n in range(1, n_max + 1)}
    C = ChainComplex(dims=dims, diffs=diffs, orientation="homological")
    C.check_d_squared()
    if check_identities:
        faces = None
        for n in range(2, n_max + 1):
            faces = check_presimplicial(A, V, n, faces)
    return C


def coface_map(A: HomAlgebra, W: Bimodule, n: int, i: int | None = None
               ) -> Matrix | list[Matrix]:
    """Matrix of the i-th coface C^n(A, W) -> C^{n+1}(A, W); with i
    omitted, the list of all n + 2 cofaces, built in one pass."""
    if i is None:
        return _Faces.of(A, W).each(n + 1, transpose=True)
    if not 0 <= i <= n + 1:
        raise IndexError(f"coface index {i} out of range for degree {n}")
    return _Faces.of(A, W).matrix(n + 1, [(i, 1)], transpose=True)


def cochain_b(A: HomAlgebra, W: Bimodule, n: int) -> Matrix:
    """Coboundary C^n(A, W) -> C^{n+1}(A, W), alternating sum of cofaces."""
    return _Faces.of(A, W).matrix(n + 1, _alternating(n + 2), transpose=True)


def check_precosimplicial(A: HomAlgebra, W: Bimodule, n: int,
                          lower: list[Matrix] | None = None) -> list[Matrix]:
    """delta_i delta_j = delta_j delta_{i-1} for j < i on C^n, each pair
    one `vanishes` call.  `lower` is `coface_map(A, W, n)` when the
    caller has it from the degree below; the cofaces of degree n + 1 are
    returned, for the degree above."""
    low = coface_map(A, W, n) if lower is None else lower
    high = coface_map(A, W, n + 1)
    for i in range(1, n + 3):
        for j in range(min(i, n + 2)):
            if not vanishes((1, high[i], low[j]), (-1, high[j], low[i - 1])):
                raise IdentityViolationError(
                    f"pre-cosimplicial identity fails at n={n}, i={i}, j={j}")
    return high


def build_hochschild_cohomology_complex(A: HomAlgebra, W: Bimodule,
                                        n_max: int, *,
                                        check_identities: bool = True
                                        ) -> ChainComplex:
    """The cochain complex (C^*(A, W), b) truncated at n_max.

    With `check_identities`, the pre-cosimplicial identities are checked
    in every degree n <= n_max - 2, whose cofaces stay in the window.
    """
    dims = {n: chain_dim(A, W, n) for n in range(n_max + 1)}
    diffs = {n: cochain_b(A, W, n) for n in range(n_max)}
    C = ChainComplex(dims=dims, diffs=diffs, orientation="cohomological")
    C.check_d_squared()
    if check_identities:
        cofaces = None
        for n in range(n_max - 1):
            cofaces = check_precosimplicial(A, W, n, cofaces)
    return C


def tensor_label(A: HomAlgebra, n: int, index: int) -> str:
    """The label ``e1⊗e1⊗e2`` of basis tensor `index` in degree n, with
    coefficients in A or its dual: n + 1 slots, the coefficient's the
    most significant."""
    names = []
    for _ in range(n + 1):
        index, slot = divmod(index, A.dim)
        names.append(A.basis_names[slot])
    return "⊗".join(reversed(names))
