"""Chain-level operators: face maps, b, b', t, N, theta, and cofaces.

Basis conventions.  The degree-n chain space is V (x) A^{(x)n} with basis
tensors enumerated big-endian: index = v * d^n + sum_k i_k * d^(n-k), so
the coefficient slot is most significant.  For the regular bimodule this
identifies C_n(A) with A^{(x)(n+1)} where a_0 occupies the coefficient
slot.  Cochains A^{(x)n} -> W use the same (w, i_1..i_n) enumeration;
with W = (regular)* this makes the identification of a cochain with a
functional on A^{(x)(n+1)} the identity on coordinates, so the cyclic
operators on cochains are plain transposes of the chain-level ones.

Every face is a Kronecker product (`linalg.kron`) of the structure
matrices.  With L: A (x) V -> V and R: V (x) A -> V the actions, beta
the coefficient map (`coefficients.chain_data`), mu the product and
alpha^k the k-th tensor power of alpha, on C_n(A, V):

    delta_0 = R (x) alpha^(n-1)
    delta_i = beta (x) alpha^(i-1) (x) mu (x) alpha^(n-1-i),  0 < i < n
    delta_n = L (x) alpha^(n-1), read with the last input slot first

b and b' are signed sums of faces, each added into `linalg.signed_sum`
as it is built, so one face is alive at a time.  A dual `Bimodule`
(the cochain coefficients) has its transposed data as chain data: a
coface is a face of those, transposed, and the coboundary their signed
sum, transposed.  t is a signed permutation, and N and theta are
weighted sums of its powers.  Every operator raises IndexError outside
its degrees.

A checked build hands each degree's faces (or cofaces) on to the
check of the (co)simplicial identities in the degree above, so they are
built once per build; each identity is one `linalg.vanishes` call.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator, Sequence

from .algebra import HomAlgebra
from .coefficients import (Bimodule, chain_data, regular_bimodule,
                           validate_homology_coefficients)
from .complexes import ChainComplex
from .linalg import Matrix, kron, permute_columns, signed_sum, vanishes


class CoefficientHypothesisError(ValueError):
    """The bimodule does not satisfy the extra homology-theorem hypotheses."""


class IdentityViolationError(ValueError):
    """A chain-level identity asserted by the theory fails: either the
    input algebra is malformed or the construction has a bug."""


def chain_dim(A: HomAlgebra, V, n: int) -> int:
    return V.dim * A.dim ** n


def _faces(A: HomAlgebra, V: Bimodule, n: int,
           faces: Sequence[tuple[int, int]]) -> Iterator[tuple[int, Matrix]]:
    """(sign, delta_i) on C_n(A, V) for each (i, sign) in `faces`, built
    when asked for; IndexError unless n >= 1 and every 0 <= i <= n."""
    if n < 1 or not all(0 <= i <= n for i, _ in faces):
        raise IndexError(f"no faces {[i for i, _ in faces]} in degree {n}")
    L, R, beta = chain_data(V)
    d, m, top = A.dim, V.dim, A.dim ** (n - 1)
    power = list(accumulate([A.alpha] * (n - 1), kron,
                            initial=Matrix.identity(1)))  # alpha^(x)k

    def face(i: int) -> Matrix:
        if i == 0:
            return kron(R, power[n - 1])
        if i < n:
            return kron(kron(kron(beta, power[i - 1]), A.product_matrix),
                        power[n - 1 - i])
        # input (a, v, rest) of L (x) alpha^(n-1) is tensor (v, rest, a)
        return permute_columns(kron(L, power[n - 1]), [
            (k // top % m * top + k % top) * d + k // (top * m)
            for k in range(m * d * top)])

    return ((sign, face(i)) for i, sign in faces)


def _alternating(k: int) -> list[tuple[int, int]]:
    return [(i, -1 if i % 2 else 1) for i in range(k)]


def face_map(A: HomAlgebra, V: Bimodule, n: int, i: int | None = None
             ) -> Matrix | list[Matrix]:
    """Matrix of the i-th face C_n(A, V) -> C_{n-1}(A, V); with i
    omitted, the list of all n + 1 faces."""
    faces = [f for _, f in _faces(A, V, n, _alternating(n + 1)
                                  if i is None else [(i, 1)])]
    return faces if i is None else faces[0]


def hochschild_b(A: HomAlgebra, V: Bimodule, n: int) -> Matrix:
    """Alternating sum of faces, C_n -> C_{n-1}."""
    return signed_sum(_faces(A, V, n, _alternating(n + 1)))


def b_prime(A: HomAlgebra, n: int) -> Matrix:
    """b' on C_n(A) = A^{(x)(n+1)}: faces 0..n-1 of the regular bimodule,
    all but the wrap-around one."""
    return signed_sum(_faces(A, regular_bimodule(A), n, _alternating(n)))


def _rotation_sum(A: HomAlgebra, n: int, weights: Sequence[int]) -> Matrix:
    """sum_k weights[k] t^k on A^{(x)(n+1)}.  t^k is a signed
    permutation: row r holds sign^k at the k-fold inverse rotation of r."""
    if n < 0:
        raise IndexError(f"no chain space in degree {n}")
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
    fails them raises on every build.  The ChainComplex checks b o b = 0;
    `check_identities` then checks the presimplicial identities."""
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
    if check_identities:
        faces = None
        for n in range(2, n_max + 1):
            faces = check_presimplicial(A, V, n, faces)
    return C


def coface_map(A: HomAlgebra, W: Bimodule, n: int, i: int | None = None
               ) -> Matrix | list[Matrix]:
    """Matrix of the i-th coface C^n(A, W) -> C^{n+1}(A, W); with i
    omitted, the list of all n + 2 cofaces: the faces of degree n + 1
    of W's chain data (`chain_data`), transposed."""
    faces = _alternating(n + 2) if i is None else [(i, 1)]
    cofaces = [f.transpose() for _, f in _faces(A, W, n + 1, faces)]
    return cofaces if i is None else cofaces[0]


def cochain_b(A: HomAlgebra, W: Bimodule, n: int) -> Matrix:
    """Coboundary C^n(A, W) -> C^{n+1}(A, W), alternating sum of cofaces."""
    return signed_sum(_faces(A, W, n + 1, _alternating(n + 2))).transpose()


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

    The ChainComplex checks b o b = 0; then `check_identities` checks
    the pre-cosimplicial identities in every degree n <= n_max - 2,
    whose cofaces stay in the window.
    """
    dims = {n: chain_dim(A, W, n) for n in range(n_max + 1)}
    diffs = {n: cochain_b(A, W, n) for n in range(n_max)}
    C = ChainComplex(dims=dims, diffs=diffs, orientation="cohomological")
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
