"""Chain-level operators: face maps, b, b', t, N, theta, and cofaces.

Basis conventions.  The degree-n chain space is V (x) A^{(x)n} with basis
tensors enumerated big-endian: index = v * d^n + sum_k i_k * d^(n-k), so
the coefficient slot is most significant.  For the regular bimodule this
identifies C_n(A) with A^{(x)(n+1)} where a_0 occupies the coefficient
slot.  Cochains A^{(x)n} -> W use the same (w, i_1..i_n) enumeration;
with W = (regular)* this makes the identification of a cochain with a
functional on A^{(x)(n+1)} the identity on coordinates, so the cyclic
operators on cochains are plain transposes of the chain-level ones.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from typing import Iterator, Sequence

from .algebra import HomAlgebra
from .coefficients import Bimodule, DualBimodule, validate_homology_coefficients
from .complexes import ChainComplex
from .linalg import Matrix, ZERO, ONE


class CoefficientHypothesisError(ValueError):
    """The bimodule does not satisfy the extra homology-theorem hypotheses."""


class IdentityViolationError(ValueError):
    """A chain-level identity asserted by the theory fails: either the
    input algebra is malformed or the construction has a bug."""


def chain_dim(A: HomAlgebra, V, n: int) -> int:
    return V.dim * A.dim ** n


def _tensor_terms(parts: Sequence[Sequence[Fraction]]) -> list[tuple[int, Fraction]]:
    """(index, coefficient) pairs of a pure tensor's nonzero coordinates,
    first factor most significant; only nonzero entries are multiplied."""
    terms = [(0, ONE)]
    for p in parts:
        size = len(p)
        nonzero = [(j, x) for j, x in enumerate(p) if x]
        terms = [(i * size + j, c * x) for i, c in terms for j, x in nonzero]
    return terms


def _tensor_column(parts: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    """Dense coordinates of a pure tensor, first factor most significant."""
    size = 1
    for p in parts:
        size *= len(p)
    col = [ZERO] * size
    for i, c in _tensor_terms(parts):
        col[i] = c
    return col


def _alpha_columns(A: HomAlgebra) -> list[tuple[Fraction, ...]]:
    return [A.alpha.col(j) for j in range(A.dim)]


def _face_columns(A: HomAlgebra, V: Bimodule, n: int,
                  faces: Sequence[tuple[int, int]]) -> Iterator[list[Fraction]]:
    """Per basis tensor of C_n(A, V), in index order, the dense column of
    sum(sign * delta_i) over the (i, sign) pairs in `faces`, sign = +-1."""
    for i, _ in faces:
        if not 0 <= i <= n or n < 1:
            raise IndexError(f"face index {i} out of range for degree {n}")
    d, m = A.dim, V.dim
    acols = _alpha_columns(A)
    rows_dim = m * d ** (n - 1)
    for v in range(m):
        vvec = tuple(ONE if k == v else ZERO for k in range(m))
        bv = V.beta.apply(vvec)
        right = [V.right_action(vvec, A.basis_vector(a)) for a in range(d)]
        left = [V.left_action(A.basis_vector(a), vvec) for a in range(d)]
        for idx in iproduct(range(d), repeat=n):
            col = [ZERO] * rows_dim
            for i, sign in faces:
                if i == 0:
                    parts = [right[idx[0]]] + [acols[j] for j in idx[1:]]
                elif i == n:
                    parts = [left[idx[-1]]] + [acols[j] for j in idx[:-1]]
                else:
                    parts = [bv] + [acols[j] for j in idx[:i - 1]] + \
                        [A.mu[idx[i - 1]][idx[i]]] + \
                        [acols[j] for j in idx[i + 1:]]
                for k, c in _tensor_terms(parts):
                    col[k] += c if sign > 0 else -c
            yield col


def _matrix_of_columns(cols: list[list[Fraction]], rows: int) -> Matrix:
    return Matrix.from_rows(cols).transpose() if cols else \
        Matrix.zero(rows, 0)


def face_map(A: HomAlgebra, V: Bimodule, n: int, i: int) -> Matrix:
    """Matrix of the i-th face C_n(A, V) -> C_{n-1}(A, V)."""
    return _matrix_of_columns(list(_face_columns(A, V, n, [(i, 1)])),
                              chain_dim(A, V, n - 1))


def hochschild_b(A: HomAlgebra, V: Bimodule, n: int) -> Matrix:
    """Alternating sum of faces, C_n -> C_{n-1}, built in one pass."""
    faces = [(i, 1 if i % 2 == 0 else -1) for i in range(n + 1)]
    return _matrix_of_columns(list(_face_columns(A, V, n, faces)),
                              chain_dim(A, V, n - 1))


def b_prime(A: HomAlgebra, n: int) -> Matrix:
    """b' on C_n(A) = A^{(x)(n+1)}: all faces except the wrap-around one."""
    d = A.dim
    acols = _alpha_columns(A)
    cols = []
    for idx in iproduct(range(d), repeat=n + 1):
        acc = [ZERO] * d ** n
        for i in range(n):
            merged = A.mu[idx[i]][idx[i + 1]]
            parts = [acols[j] for j in idx[:i]] + [merged] + \
                [acols[j] for j in idx[i + 2:]]
            for k, c in _tensor_terms(parts):
                acc[k] += c if i % 2 == 0 else -c
        cols.append(acc)
    return Matrix.from_rows(cols).transpose()


def cyclic_t(A: HomAlgebra, n: int) -> Matrix:
    """Signed cyclic rotation on A^{(x)(n+1)}: sign (-1)^n, last slot to front."""
    d = A.dim
    size = d ** (n + 1)
    sign = ONE if n % 2 == 0 else -ONE
    entries = [[ZERO] * size for _ in range(size)]
    for col_idx, idx in enumerate(iproduct(range(d), repeat=n + 1)):
        rotated = (idx[-1],) + idx[:-1]
        row_idx = 0
        for j in rotated:
            row_idx = row_idx * d + j
        entries[row_idx][col_idx] = sign
    return Matrix.from_rows(entries)


def norm_N(A: HomAlgebra, n: int) -> Matrix:
    """N = Id + t + ... + t^n on A^{(x)(n+1)}."""
    t = cyclic_t(A, n)
    size = t.rows
    total = Matrix.identity(size)
    power = Matrix.identity(size)
    for _ in range(n):
        power = t @ power
        total = total + power
    return total


def homotopy_theta(A: HomAlgebra, n: int) -> Matrix:
    """Row-contracting homotopy: theta = sum_{i=0}^{n} (n+1-i) t^i.

    These weights satisfy N + theta(Id - t) = (n+1) Id exactly.
    """
    t = cyclic_t(A, n)
    size = t.rows
    total = Matrix.identity(size).scale(n + 1)
    power = Matrix.identity(size)
    for i in range(1, n + 1):
        power = t @ power
        total = total + power.scale(n + 1 - i)
    return total


def check_presimplicial(A: HomAlgebra, V: Bimodule, n: int) -> None:
    """delta_i delta_j = delta_{j-1} delta_i for i < j at degree n."""
    faces_n = [face_map(A, V, n, i) for i in range(n + 1)]
    faces_m = [face_map(A, V, n - 1, i) for i in range(n)] if n >= 2 else []
    for j in range(1, n + 1):
        for i in range(j):
            if n >= 2:
                lhs = faces_m[i] @ faces_n[j]
                rhs = faces_m[j - 1] @ faces_n[i]
                if lhs != rhs:
                    raise IdentityViolationError(
                        f"presimplicial identity fails at n={n}, i={i}, j={j}")


def build_hochschild_homology_complex(A: HomAlgebra, V: Bimodule,
                                      n_max: int, *,
                                      check_identities: bool = True) -> ChainComplex:
    """The complex (C_*(A, V), b) truncated at n_max."""
    ok, bad = validate_homology_coefficients(V)
    if not ok:
        raise CoefficientHypothesisError(
            "coefficients violate the homology hypotheses: " + str(bad[0]))
    dims = {n: chain_dim(A, V, n) for n in range(n_max + 1)}
    diffs = {n: hochschild_b(A, V, n) for n in range(1, n_max + 1)}
    C = ChainComplex(dims=dims, diffs=diffs, orientation="homological")
    C.check_d_squared()
    if check_identities:
        for n in range(2, n_max + 1):
            check_presimplicial(A, V, n)
    return C


def coface_map(A: HomAlgebra, W: DualBimodule, n: int, i: int) -> Matrix:
    """Matrix of the i-th coface C^n(A, W) -> C^{n+1}(A, W)."""
    if not 0 <= i <= n + 1:
        raise IndexError(f"coface index {i} out of range for degree {n}")
    d, m = A.dim, W.dim
    acols = _alpha_columns(A)
    src = m * d ** n
    tgt = m * d ** (n + 1)
    entries = [[ZERO] * src for _ in range(tgt)]
    basis_w = [tuple(ONE if k == w else ZERO for k in range(m))
               for w in range(m)]
    for col, (w, idx) in enumerate(
            ((w, idx) for w in range(m)
             for idx in iproduct(range(d), repeat=n))):
        # evaluate delta_i(phi_{w,idx}) on every input basis tensor
        for trow, jdx in enumerate(iproduct(range(d), repeat=n + 1)):
            if i == 0:
                coeff = ONE
                for k in range(n):
                    coeff *= acols[jdx[k + 1]][idx[k]]
                    if not coeff:
                        break
                if not coeff:
                    continue
                wvec = W.left_action(A.basis_vector(jdx[0]), basis_w[w])
            elif i == n + 1:
                coeff = ONE
                for k in range(n):
                    coeff *= acols[jdx[k]][idx[k]]
                    if not coeff:
                        break
                if not coeff:
                    continue
                wvec = W.right_action(basis_w[w], A.basis_vector(jdx[-1]))
            else:
                coeff = ONE
                for k in range(1, n + 1):
                    if k < i:
                        slot = acols[jdx[k - 1]]
                    elif k == i:
                        slot = A.mu[jdx[i - 1]][jdx[i]]
                    else:
                        slot = acols[jdx[k]]
                    coeff *= slot[idx[k - 1]]
                    if not coeff:
                        break
                if not coeff:
                    continue
                wvec = W.beta.apply(basis_w[w])
            for wr in range(m):
                if wvec[wr]:
                    entries[wr * d ** (n + 1) + trow][col] += coeff * wvec[wr]
    return Matrix.from_rows(entries)


def cochain_b(A: HomAlgebra, W: DualBimodule, n: int) -> Matrix:
    """Coboundary C^n(A, W) -> C^{n+1}(A, W), alternating sum of cofaces."""
    total = None
    for i in range(n + 2):
        f = coface_map(A, W, n, i)
        f = f if i % 2 == 0 else -f
        total = f if total is None else total + f
    return total


def check_precosimplicial(A: HomAlgebra, W: DualBimodule, n: int) -> None:
    """delta_i delta_j = delta_j delta_{i-1} for j < i on C^n."""
    low = [coface_map(A, W, n, i) for i in range(n + 2)]
    high = [coface_map(A, W, n + 1, i) for i in range(n + 3)]
    for i in range(1, n + 3):
        for j in range(min(i, n + 2)):
            lhs = high[i] @ low[j]
            rhs = high[j] @ low[i - 1]
            if lhs != rhs:
                raise IdentityViolationError(
                    f"pre-cosimplicial identity fails at n={n}, i={i}, j={j}")


def build_hochschild_cohomology_complex(A: HomAlgebra, W: DualBimodule,
                                        n_max: int) -> ChainComplex:
    """The cochain complex (C^*(A, W), b) truncated at n_max."""
    dims = {n: chain_dim(A, W, n) for n in range(n_max + 1)}
    diffs = {n: cochain_b(A, W, n) for n in range(n_max)}
    C = ChainComplex(dims=dims, diffs=diffs, orientation="cohomological")
    C.check_d_squared()
    return C


def tensor_label(A: HomAlgebra, V, n: int, index: int,
                 coefficient_names: Sequence[str] | None = None) -> str:
    """Human-readable label like ``e1(x)e1(x)e2`` for a basis tensor."""
    d = A.dim
    tensor_part = index % d ** n
    v = index // d ** n
    slots = []
    rem = tensor_part
    for k in range(n):
        power = d ** (n - 1 - k)
        slots.append(rem // power)
        rem %= power
    names = coefficient_names if coefficient_names is not None else \
        (V.algebra.basis_names if hasattr(V, "algebra") else A.basis_names)
    parts = [str(names[v])] + [A.basis_names[s] for s in slots]
    return "⊗".join(parts)
