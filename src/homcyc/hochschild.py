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

A face applies alpha to every slot it does not multiply, so the
regular bimodule's b' obeys the twisted bar recursion (Loday, Cyclic
Homology, 1.1):

    b'_n = mu (x) alpha^(n-1) - alpha (x) b'_{n-1}
    b_n = b'_n + (-1)^n delta_n

`bar_differentials` builds b' and b of the regular bimodule by it (two
products and delta_n per degree, not n + 1 faces), reading alpha^k from
one list (`_powers`) as the face lists do; the cyclic bicomplex and the
induced maps read it.  Any other b is the signed sum of its faces.  A dual
`Bimodule` (the cochain coefficients) has its transposed data as chain
data: a coface is a face of those, transposed, and the cochain complex
their chain complex, transposed (Loday, 1.5).  t (`cyclic_t`) is the
one rotation, the signed permutation that moves a tensor's first slot
to the back (`linalg.swap_slots`, which also orders delta_n's and R's
inputs); N, theta and `cyclic`'s Id - t are `linalg.power_sum`s of it.
Operators raise IndexError outside their degrees.

Both builders check every identity: one loop over chain data builds
each degree's faces once for b and the presimplicial identities they
enter, holding at most two degrees' lists; each identity is one
`linalg.vanishes` call.  Degree 1's faces come from `face_map`; in
degree n >= 2 only delta_{n-1} and delta_n are built from the structure
maps, and delta_i for i <= n - 2 is delta_i of degree n - 1 (x) alpha
(`_face_lists`).  By the mixed-product rule, pair (n, i, j) with
j <= n - 2 is then pair (n - 1, i, j) (x) alpha o alpha: it vanishes
when that pair does, and the build stops at the first pair that does
not.  So a build evaluates only the 2n - 1 pairs that delta_{n-1} or
delta_n enters, and the first failure it names is the one the full
check of every pair would name; `check_presimplicial` called on its
own evaluates all n(n + 1)/2.  Pre-cosimplicial pair (i, j) on C^n is
presimplicial pair (j, i) of W's faces in degree n + 2, transposed.  A
failing identity is raised only after the ChainComplex has checked
d o d.  A degree's faces are the right factors of its own checks only,
so their packed rows are dropped (`linalg.drop_packings`) after them.
A checked build sums b from the n + 1 faces it holds anyway, and b'
stays on the left recursion: a three-term recurrence for b, and b' read
off the face lists, both measured slower.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import accumulate

from .algebra import HomAlgebra, refuse
from .coefficients import (Bimodule, chain_data, dualize_bimodule,
                           regular_bimodule, validate_homology_coefficients)
from .complexes import ChainComplex, HomologyReport, report_for_complex
from .errors import CoefficientHypothesisError, IdentityViolationError
from .linalg import (Matrix, drop_packings, kron, permute_columns,
                     power_sum, signed_permutation, signed_sum, swap_slots,
                     vanishes)


def _powers(m: Matrix, k: int) -> list[Matrix]:
    """[m^{(x)j} for j = 0..k], each one Kronecker product from the last:
    the one running list of tensor powers, of alpha, f or alpha^T."""
    return list(accumulate([m] * k, kron, initial=Matrix.identity(1)))


def _faces(A: HomAlgebra, V: Bimodule, n: int, which: Sequence[int],
           power: Sequence[Matrix]) -> Iterator[Matrix]:
    """delta_i on C_n(A, V) for each i in `which`, built when asked for
    from `power`, which holds alpha^(x)k at k for k = 0..n - 1;
    IndexError unless n >= 1 and every 0 <= i <= n."""
    if n < 1 or not all(0 <= i <= n for i in which):
        raise IndexError(f"no faces {list(which)} in degree {n}")
    L, R, beta = chain_data(V)

    def face(i: int) -> Matrix:
        if i == 0:
            return kron(R, power[n - 1])
        if i < n:
            return kron(kron(kron(beta, power[i - 1]), A.product_matrix),
                        power[n - 1 - i])
        # input (a, v, rest) of L (x) alpha^(n-1) is tensor (v, rest, a)
        return permute_columns(kron(L, power[n - 1]),
                               swap_slots(A.dim, V.dim * A.dim ** (n - 1)))

    return (face(i) for i in which)


def face_map(A: HomAlgebra, V: Bimodule, n: int, i: int | None = None
             ) -> Matrix | list[Matrix]:
    """Matrix of the i-th face C_n(A, V) -> C_{n-1}(A, V); with i
    omitted, the list of all n + 1 faces."""
    faces = list(_faces(A, V, n, range(n + 1) if i is None else [i],
                        _powers(A.alpha, n - 1)))
    return faces if i is None else faces[0]


def tensor_power_matrix(m: Matrix, k: int) -> Matrix:
    """Kronecker power m^{(x)k}, big-endian slot order."""
    return _powers(m, k)[-1]


def hochschild_b(A: HomAlgebra, V: Bimodule, n: int,
                 faces: list[Matrix] | None = None) -> Matrix:
    """b = sum_i (-1)^i delta_i, C_n -> C_{n-1}, over `faces` when the
    caller holds them, else over V's faces, each built as the sum reaches
    it and dropped once added."""
    if faces is None:
        faces = _faces(A, V, n, range(n + 1), _powers(A.alpha, n - 1))
    return signed_sum(((-1) ** i, f) for i, f in enumerate(faces))


def b_prime(A: HomAlgebra, n: int,
            lower: tuple[Matrix, Matrix] | None = None) -> Matrix:
    """b' on C_n(A) = A^{(x)(n+1)}, the sum of the regular bimodule's
    faces but the wrap-around one: mu in degree 1, else mu (x)
    alpha^(n-1) - alpha (x) b'_{n-1}.  `lower` is the pair (b'_{n-1},
    alpha^(x)(n-1)) when the caller holds it, as the bar recursion
    does; else both are built."""
    if n < 1:
        raise IndexError(f"no b' in degree {n}")
    if n == 1:
        return A.product_matrix
    if lower is None:
        lower = b_prime(A, n - 1), tensor_power_matrix(A.alpha, n - 1)
    return signed_sum([(1, kron(A.product_matrix, lower[1])),
                       (-1, kron(A.alpha, lower[0]))])


def bar_differentials(A: HomAlgebra, top: int
                      ) -> Iterator[tuple[Matrix, Matrix]]:
    """(b'_n, b_n) of the regular bimodule for n = 1..top by the
    recursion, holding b'_n from each degree to the next and every
    alpha^(x)k (`_powers`), which b' and delta_n read."""
    V, prime, power = regular_bimodule(A), None, _powers(A.alpha, top - 1)
    for n in range(1, top + 1):
        prime = b_prime(A, n, None if n == 1 else (prime, power[n - 1]))
        yield prime, signed_sum([(1, prime),
                                 ((-1) ** n, *_faces(A, V, n, [n], power))])


def cyclic_t(A: HomAlgebra, n: int) -> Matrix:
    """Signed cyclic rotation on A^{(x)(n+1)}: sign (-1)^n, last slot to
    front; a signed permutation, row r holding the sign at r with its
    first slot moved to the back (`swap_slots`)."""
    if n < 0:
        raise IndexError(f"no chain space in degree {n}")
    return signed_permutation(swap_slots(A.dim, A.dim ** n),
                              -1 if n % 2 else 1)


def norm_N(A: HomAlgebra, n: int) -> Matrix:
    """N = Id + t + ... + t^n on A^{(x)(n+1)}."""
    return power_sum(cyclic_t(A, n), (1,) * (n + 1))


def homotopy_theta(A: HomAlgebra, n: int) -> Matrix:
    """Row-contracting homotopy: theta = sum_{i=0}^{n} (n+1-i) t^i.

    These weights satisfy N + theta(Id - t) = (n+1) Id exactly.
    """
    return power_sum(cyclic_t(A, n), range(n + 1, 0, -1))


def check_presimplicial(A: HomAlgebra, V: Bimodule, n: int,
                        lower: list[Matrix] | None = None,
                        upper: list[Matrix] | None = None) -> None:
    """delta_i delta_j = delta_{j-1} delta_i for i < j at degree n, each
    pair one `vanishes` call, j ascending, then i.  Called on its own it
    builds `face_map(A, V, n - 1)` and `face_map(A, V, n)` and evaluates
    all n(n + 1)/2 pairs; a build passes its own faces as `lower` and
    `upper` (`_face_lists`), having checked degree n - 1, and evaluates
    the 2n - 1 pairs that delta_{n-1} or delta_n enters."""
    faces_n = face_map(A, V, n) if upper is None else upper
    if n >= 2:
        faces_m = face_map(A, V, n - 1) if lower is None else lower
        for j in range(1 if lower is None else n - 1, n + 1):
            for i in range(j):
                if not vanishes((1, faces_m[i], faces_n[j]),
                                (-1, faces_m[j - 1], faces_n[i])):
                    raise IdentityViolationError(
                        f"presimplicial identity fails at n={n}, i={i}, j={j}")


def _face_lists(A: HomAlgebra, V: Bimodule, top: int,
                faces: list[Matrix] | None = None) -> Iterator[list[Matrix]]:
    """The faces of C_n(A, V), one list per degree n = 1..top: degree
    1's are `faces` when given, else `face_map`'s; in degree n >= 2,
    delta_i of degree n - 1 (x) alpha for i <= n - 2, then delta_{n-1}
    and delta_n from the structure maps."""
    power = _powers(A.alpha, top - 1)
    for n in range(1, top + 1):
        if n > 1:
            faces = [kron(f, A.alpha) for f in faces[:-1]] + \
                list(_faces(A, V, n, [n - 1, n], power))
        elif faces is None:
            faces = face_map(A, V, 1)
        yield faces


def _differentials(A: HomAlgebra, V: Bimodule, top: int,
                   faces: list[Matrix] | None = None) -> tuple[
                       dict[int, Matrix], IdentityViolationError | None]:
    """{n: b_n} of V's chain data, n = 1..top, and the first
    presimplicial identity that fails.  Each degree's faces
    (`_face_lists`, from `faces` in degree 1 when given) serve b and
    the identities they enter; the pairs they inherit from the degree
    below are decided there (`check_presimplicial`)."""
    diffs, failure, lower = {}, None, None
    for n, upper in enumerate(_face_lists(A, V, top, faces), 1):
        if failure is None:  # no check runs after the first that fails
            try:
                check_presimplicial(A, V, n, lower, upper)
            except IdentityViolationError as err:
                failure = err
        lower = upper  # degree n - 1's faces go before b is summed
        drop_packings(upper)
        diffs[n] = hochschild_b(A, V, n, upper)
    return diffs, failure


def require_homology_hypotheses(V: Bimodule) -> None:
    """Raise CoefficientHypothesisError unless V satisfies the homology
    hypotheses (`validate_homology_coefficients`), checked once per
    bimodule instance with the verdict kept on it."""
    if "_homology_hypotheses" not in vars(V):
        vars(V)["_homology_hypotheses"] = validate_homology_coefficients(V)
    refuse(vars(V)["_homology_hypotheses"][1], CoefficientHypothesisError,
           "coefficients violate the homology hypotheses")


def build_hochschild_homology_complex(A: HomAlgebra, V: Bimodule,
                                      n_max: int) -> ChainComplex:
    """The complex (C_*(A, V), b) truncated at n_max.

    The homology hypotheses on V are checked once per bimodule instance,
    and the verdict is kept on it: V is immutable, so a bimodule that
    fails them raises on every build.  The ChainComplex checks b o b = 0;
    then the first presimplicial identity that fails is raised, degree
    by degree."""
    require_homology_hypotheses(V)
    diffs, failure = _differentials(A, V, n_max)
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
                                        n_max: int) -> ChainComplex:
    """The cochain complex (C^*(A, W), b) truncated at n_max: W's chain
    complex transposed, b_{n+1} out of C^n.  Raises BoundarySquareError
    unless b o b = 0; then the first failing
    presimplicial identity of W's faces in degrees up to n_max, which
    hold the pre-cosimplicial identities of degrees up to n_max - 2."""
    # degree 1's faces are degree 0's cofaces transposed back, so that
    # every checked hhco build calls `coface_map`, a span perfbench requires
    bs, failure = _differentials(A, W, n_max, [
        c.transpose() for c in coface_map(A, W, 0)] if n_max >= 1 else None)
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
