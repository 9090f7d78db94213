"""Chain-level operators: face maps, b, b', t, N, theta, and cofaces;
the complexes they build, and the HH and HH-co reports.

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

A face applies alpha to every slot it does not multiply, so b' obeys the
twisted bar recursion (Loday, Cyclic Homology, 1.1), with b'(A) that of
the regular bimodule (R = mu, beta = alpha):

    b'_n(V) = R (x) alpha^(n-1) - beta (x) b'_{n-1}(A)
    b_n(V) = b'_n(V) + (-1)^n delta_n

b and b' are built by it (two products and delta_n per degree, not n + 1
faces) unless the caller holds the list of faces.  A dual `Bimodule`
(the cochain coefficients) has its transposed data as chain data: a
coface is a face of those, transposed, and the cochain complex their
chain complex, transposed (Loday, 1.5).  t is a signed permutation, N
and theta weighted sums of its powers.  Operators raise IndexError
outside their degrees.

Both builders run one loop over chain data.  Checked, it builds each
degree's faces once for b and the presimplicial identities they enter,
holding at most two degrees' lists; each identity is one
`linalg.vanishes` call.  Pre-cosimplicial pair (i, j) on C^n is
presimplicial pair (j, i) of W's faces in degree n + 2, transposed.  A
failing identity is raised only after the ChainComplex has checked
d o d.  A degree's faces are the right factors of its own checks only,
so their packed rows are dropped (`linalg.drop_packings`) after them.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import accumulate

from .algebra import HomAlgebra
from .coefficients import (Bimodule, chain_data, dualize_bimodule,
                           regular_bimodule, validate_homology_coefficients)
from .complexes import ChainComplex, HomologyReport, report_for_complex
from .errors import IdentityViolationError
from .linalg import (Matrix, drop_packings, kron, permute_columns,
                     signed_sum, vanishes)


class CoefficientHypothesisError(ValueError):
    """The bimodule does not satisfy the extra homology-theorem hypotheses."""


def _faces(A: HomAlgebra, V: Bimodule, n: int,
           which: Sequence[int]) -> Iterator[Matrix]:
    """delta_i on C_n(A, V) for each i in `which`, built when asked for;
    IndexError unless n >= 1 and every 0 <= i <= n."""
    if n < 1 or not all(0 <= i <= n for i in which):
        raise IndexError(f"no faces {list(which)} in degree {n}")
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

    return (face(i) for i in which)


def face_map(A: HomAlgebra, V: Bimodule, n: int, i: int | None = None
             ) -> Matrix | list[Matrix]:
    """Matrix of the i-th face C_n(A, V) -> C_{n-1}(A, V); with i
    omitted, the list of all n + 1 faces."""
    faces = list(_faces(A, V, n, range(n + 1) if i is None else [i]))
    return faces if i is None else faces[0]


def tensor_power_matrix(m: Matrix, k: int) -> Matrix:
    """Kronecker power m^{(x)k}, big-endian slot order."""
    return list(accumulate([m] * k, kron, initial=Matrix.identity(1)))[-1]


def _prime(A: HomAlgebra, R: Matrix, beta: Matrix, n: int,
           lower: Matrix | None) -> Matrix:
    """b'_n of the chain data R and beta: R (x) alpha^(n-1) - beta (x)
    b'_{n-1}(A), with `lower` as b'_{n-1}(A) when it is held."""
    if n < 1:
        raise IndexError(f"no b' in degree {n}")
    return R if n == 1 else signed_sum([
        (1, kron(R, tensor_power_matrix(A.alpha, n - 1))),
        (-1, kron(beta, b_prime(A, n - 1) if lower is None else lower))])


def hochschild_b(A: HomAlgebra, V: Bimodule, n: int,
                 faces: list[Matrix] | None = None) -> Matrix:
    """b = sum_i (-1)^i delta_i, C_n -> C_{n-1}: the sum of `faces`,
    `face_map(A, V, n)`, when the caller holds it, else the last b of
    `bar_differentials(A, V, n)`."""
    if faces is not None:
        return signed_sum(((-1) ** i, f) for i, f in enumerate(faces))
    return list(bar_differentials(A, V, n))[-1][1]  # IndexError if n < 1


def b_prime(A: HomAlgebra, n: int, lower: Matrix | None = None) -> Matrix:
    """b' on C_n(A) = A^{(x)(n+1)}, the sum of the regular bimodule's
    faces but the wrap-around one: mu (x) alpha^(n-1) - alpha (x)
    b'_{n-1}, from `lower`, b'_{n-1}, when the caller holds it."""
    return _prime(A, A.product_matrix, A.alpha, n, lower)


def bar_differentials(A: HomAlgebra, V: Bimodule, top: int
                      ) -> Iterator[tuple[Matrix, Matrix]]:
    """(b'_n(V), b_n(V)) for n = 1..top by the recursion, b'_n(A) held
    from each degree to the next.  When V's R and beta are mu and alpha,
    as for the regular bimodule and its dual, b'_n(V) is b'_n(A)."""
    _, R, beta = chain_data(V)
    shared, lower = (R, beta) == (A.product_matrix, A.alpha), None
    for n in range(1, top + 1):
        prime = b_prime(A, n, lower) if shared else \
            _prime(A, R, beta, n, lower)
        yield prime, signed_sum([(1, prime),
                                 ((-1) ** n, *_faces(A, V, n, [n]))])
        lower = prime if shared or n == top else b_prime(A, n, lower)


def _rotation_sum(A: HomAlgebra, n: int, weights: Sequence[int]) -> Matrix:
    """sum_k weights[k] t^k on A^{(x)(n+1)}.  t^k is a signed
    permutation: row r holds sign^k at the k-fold inverse rotation of r."""
    if n < 0:
        raise IndexError(f"no chain space in degree {n}")
    d, size, top = A.dim, A.dim ** (n + 1), A.dim ** n
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
                        lower: list[Matrix] | None = None,
                        upper: list[Matrix] | None = None) -> None:
    """delta_i delta_j = delta_{j-1} delta_i for i < j at degree n, each
    pair one `vanishes` call.  `lower` and `upper` are `face_map(A, V,
    n - 1)` and `face_map(A, V, n)` when the caller holds them."""
    faces_n = face_map(A, V, n) if upper is None else upper
    if n >= 2:
        faces_m = face_map(A, V, n - 1) if lower is None else lower
        for j in range(1, n + 1):
            for i in range(j):
                if not vanishes((1, faces_m[i], faces_n[j]),
                                (-1, faces_m[j - 1], faces_n[i])):
                    raise IdentityViolationError(
                        f"presimplicial identity fails at n={n}, i={i}, j={j}")


def _first_violation(found: IdentityViolationError | None, check, *args
                     ) -> IdentityViolationError | None:
    """`found`, or else the IdentityViolationError that check(*args)
    raises, if any; once one is found no later check runs."""
    if found is None:
        try:
            check(*args)
        except IdentityViolationError as err:
            return err
    return found


def _differentials(A: HomAlgebra, V: Bimodule, top: int, checked: bool,
                   faces: list[Matrix] | None = None) -> tuple[
                       dict[int, Matrix], IdentityViolationError | None]:
    """{n: b_n} of V's chain data, n = 1..top, and, when `checked`, the
    first presimplicial identity that fails.  Checked, each degree's faces
    (degree 1's are `faces` when given) serve b and the identities they
    enter; unchecked, b is built by the recursion."""
    if not checked:
        return {n: b for n, (_, b) in enumerate(
            bar_differentials(A, V, top), 1)}, None
    diffs, failure = {}, None
    for n in range(1, top + 1):
        lower, faces = faces, faces if n == 1 and faces else face_map(A, V, n)
        failure = _first_violation(failure, check_presimplicial, A, V, n,
                                   lower, faces)
        del lower
        drop_packings(faces)
        diffs[n] = hochschild_b(A, V, n, faces)
    return diffs, failure


def build_hochschild_homology_complex(A: HomAlgebra, V: Bimodule,
                                      n_max: int, *,
                                      check_identities: bool = True) -> ChainComplex:
    """The complex (C_*(A, V), b) truncated at n_max.

    The homology hypotheses on V are checked once per bimodule instance,
    and the verdict is kept on it: V is immutable, so a bimodule that
    fails them raises on every build.  The ChainComplex checks b o b = 0;
    `check_identities` then raises the first presimplicial identity that
    fails, degree by degree."""
    if "_homology_hypotheses" not in vars(V):
        vars(V)["_homology_hypotheses"] = validate_homology_coefficients(V)
    ok, bad = vars(V)["_homology_hypotheses"]
    if not ok:
        raise CoefficientHypothesisError(
            "coefficients violate the homology hypotheses: " + str(bad[0]))
    diffs, failure = _differentials(A, V, n_max, check_identities)
    C = ChainComplex(dims={n: V.dim * A.dim ** n for n in range(n_max + 1)},
                     diffs=diffs, orientation="homological")
    if failure is not None:
        raise failure
    return C


def coface_map(A: HomAlgebra, W: Bimodule, n: int, i: int | None = None
               ) -> Matrix | list[Matrix]:
    """Matrix of the i-th coface C^n(A, W) -> C^{n+1}(A, W); with i
    omitted, the list of all n + 2 cofaces: the faces of degree n + 1
    of W's chain data (`chain_data`), transposed."""
    if i is None:
        return [f.transpose() for f in face_map(A, W, n + 1)]
    return face_map(A, W, n + 1, i).transpose()


def cochain_b(A: HomAlgebra, W: Bimodule, n: int,
              b: Matrix | None = None) -> Matrix:
    """Coboundary C^n(A, W) -> C^{n+1}(A, W), alternating sum of cofaces:
    W's b of degree n + 1, `b` when the caller holds it, transposed."""
    return (hochschild_b(A, W, n + 1) if b is None else b).transpose()


def build_hochschild_cohomology_complex(A: HomAlgebra, W: Bimodule,
                                        n_max: int, *,
                                        check_identities: bool = True
                                        ) -> ChainComplex:
    """The cochain complex (C^*(A, W), b) truncated at n_max: W's chain
    complex transposed, b_{n+1} out of C^n.  Raises BoundarySquareError
    unless b o b = 0; then, with `check_identities`, the first failing
    presimplicial identity of W's faces in degrees up to n_max, which
    hold the pre-cosimplicial identities of degrees up to n_max - 2."""
    # degree 1's faces are degree 0's cofaces transposed back, so that
    # every checked hhco build calls `coface_map`, a span perfbench requires
    bs, failure = _differentials(A, W, n_max, check_identities, [
        c.transpose() for c in coface_map(A, W, 0)]
        if check_identities and n_max >= 1 else None)
    C = ChainComplex(dims={n: W.dim * A.dim ** n for n in range(n_max + 1)},
                     diffs={n - 1: cochain_b(A, W, n - 1, bs.pop(n))
                            for n in range(1, n_max + 1)},
                     orientation="cohomological")
    if failure is not None:
        raise failure
    return C


def hochschild_homology(A: HomAlgebra, n_max: int, *,
                        representatives: bool = False) -> HomologyReport:
    """HH of A with coefficients in the regular bimodule."""
    V = regular_bimodule(A)
    C = build_hochschild_homology_complex(A, V, n_max + 1)
    return report_for_complex(C, range(n_max + 1), theory="HH",
                              algebra_name=A.name, coefficient_name=V.name,
                              representatives=representatives)


def hochschild_cohomology(A: HomAlgebra, n_max: int, *,
                          representatives: bool = False) -> HomologyReport:
    """Hochschild cohomology of A with coefficients in (regular)*."""
    W = dualize_bimodule(regular_bimodule(A))
    C = build_hochschild_cohomology_complex(A, W, n_max + 1)
    return report_for_complex(C, range(n_max + 1), theory="HH-co",
                              algebra_name=A.name, coefficient_name=W.name,
                              representatives=representatives)


def tensor_label(A: HomAlgebra, n: int, index: int) -> str:
    """The label ``e1⊗e1⊗e2`` of basis tensor `index` in degree n, with
    coefficients in A or its dual: n + 1 slots, the coefficient's the
    most significant."""
    return "⊗".join(A.basis_names[index // A.dim ** k % A.dim]
                    for k in range(n, -1, -1))
