"""Cyclic and periodic (co)homology: quotient/invariant method and the
bicomplex method, plus the comparison and functoriality machinery.
`hochschild_homology` and `hochschild_cohomology` live in `hochschild`
and are re-exported here.

Cochain-level operators are transposes of the chain-level ones: the
basis conventions in `hochschild` make the identification of a cochain
with coefficients in (regular)* and a functional on A^{(x)(n+1)} the
identity on coordinates.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (AlgebraMorphism, HomAlgebra, alpha_is_idempotent,
                      find_unit, is_associative, validate_morphism)
from .coefficients import dualize_bimodule, regular_bimodule
from .complexes import (Bicomplex, ChainComplex, HomologyReport, homology,
                        homology_classes, quotient_complex,
                        report_for_complex, representative_space,
                        sub_complex, total_complex)
from .errors import BoundarySquareError
from .hochschild import (IdentityViolationError, bar_differentials,
                         build_hochschild_cohomology_complex,
                         build_hochschild_homology_complex, cyclic_t,
                         hochschild_b, hochschild_cohomology,
                         hochschild_homology, norm_N, tensor_power_matrix)
from .linalg import (Matrix, NotASubspaceError, Subspace, descend, image,
                     kron, kernel, maps_into, restrict, vanishes)
from .records import Field, record


def _one_minus_t(A: HomAlgebra, n: int) -> Matrix:
    """Id - t_n on A^{(x)(n+1)}."""
    return Matrix.identity(A.dim ** (n + 1)) - cyclic_t(A, n)


def lambda_quotient_subspaces(A: HomAlgebra, n_max: int) -> dict[int, Subspace]:
    """Per degree, im(Id - t_n) inside A^{(x)(n+1)}."""
    return {n: image(_one_minus_t(A, n)) for n in range(n_max + 1)}


def cyclic_invariant_subspaces(A: HomAlgebra, n_max: int) -> dict[int, Subspace]:
    """Per degree, the cyclic cochains ker(Id - t_n^T) in A^{(x)(n+1)}*."""
    return {n: kernel(_one_minus_t(A, n).transpose())
            for n in range(n_max + 1)}


def cyclic_homology_lambda(A: HomAlgebra, n_max: int, *,
                           representatives: bool = False) -> HomologyReport:
    """Homology of C_*(A) / im(Id - t), the cyclic-coinvariants complex."""
    V = regular_bimodule(A)
    C = build_hochschild_homology_complex(A, V, n_max + 1,
                                          check_identities=False)
    subs = lambda_quotient_subspaces(A, n_max + 1)
    Q = quotient_complex(C, subs)  # raises NotStableError if the lemma fails
    return report_for_complex(Q, range(n_max + 1), theory="HC-lambda",
                              algebra_name=A.name, coefficient_name=V.name,
                              representatives=representatives)


def cyclic_cohomology_lambda(A: HomAlgebra, n_max: int, *,
                             representatives: bool = False) -> HomologyReport:
    """Cohomology of the cyclic-invariant subcomplex ker(Id - t)."""
    W = dualize_bimodule(regular_bimodule(A))
    C = build_hochschild_cohomology_complex(A, W, n_max + 1,
                                            check_identities=False)
    S = sub_complex(C, cyclic_invariant_subspaces(A, n_max + 1))
    return report_for_complex(S, range(n_max + 1), theory="HC-co-lambda",
                              algebra_name=A.name, coefficient_name=W.name,
                              representatives=representatives)


def cyclic_bicomplex(A: HomAlgebra, n_max: int) -> Bicomplex:
    """The first-quadrant cyclic bicomplex, homological grading.

    Cells: p, q >= 0, p + q <= n_max + 1, which is exact for total
    degrees <= n_max.  Columns alternate b and -b'; rows alternate
    (Id - t) and N by column parity.
    """
    top = n_max + 1
    cells = {(p, q): A.dim ** (q + 1)
             for p in range(top + 1) for q in range(top + 1 - p)}
    # each operator once per row q that uses it; b'_q from b'_{q-1}
    b, minus_bp = {}, {}
    for q, (bp, b[q]) in enumerate(
            bar_differentials(A, regular_bimodule(A), top), 1):
        if q < top:
            minus_bp[q] = -bp
    one_minus_t = {q: _one_minus_t(A, q) for q in range(top)}
    N = {q: norm_N(A, q) for q in range(top - 1)}
    return Bicomplex(cell_dims=cells, orientation="homological", vertical={
        (p, q): minus_bp[q] if p % 2 else b[q] for p, q in cells if q},
        horizontal={(p, q): one_minus_t[q] if p % 2 else N[q]
                    for p, q in cells if p})


def cyclic_homology_bicomplex(A: HomAlgebra, n_max: int) -> HomologyReport:
    """Total homology of the first-quadrant cyclic bicomplex."""
    T = total_complex(cyclic_bicomplex(A, n_max))
    return report_for_complex(T, range(n_max + 1), theory="HC-bicomplex",
                              algebra_name=A.name,
                              coefficient_name=f"{A.name}-regular")


def cocyclic_bicomplex(A: HomAlgebra, n_max: int) -> Bicomplex:
    """The cocyclic bicomplex: `cyclic_bicomplex` with every map
    transposed and every arrow reversed (Loday, Cyclic Homology, 2.1).

    The chain map out of (p, q) into (p, q-1), resp. (p-1, q), becomes
    the cochain map out of (p, q-1), resp. (p-1, q), into (p, q).  A map
    shared along a row is transposed once and stays shared.
    """
    B = cyclic_bicomplex(A, n_max)
    maps = {id(m): m for m in [*B.vertical.values(), *B.horizontal.values()]}
    tr = {k: m.transpose() for k, m in maps.items()}
    return Bicomplex(
        cell_dims=B.cell_dims,
        vertical={(p, q - 1): tr[id(m)] for (p, q), m in B.vertical.items()},
        horizontal={(p - 1, q): tr[id(m)]
                    for (p, q), m in B.horizontal.items()},
        orientation="cohomological")


def cyclic_cohomology_bicomplex(A: HomAlgebra, n_max: int) -> HomologyReport:
    """Total cohomology of the first-quadrant cocyclic bicomplex."""
    T = total_complex(cocyclic_bicomplex(A, n_max))
    return report_for_complex(T, range(n_max + 1), theory="HC-co-bicomplex",
                              algebra_name=A.name,
                              coefficient_name=f"{A.name}-coregular")


@record
class CyclicReport:
    """Cross-checked Betti numbers from both constructions.

    Over the rationals the two must agree; a mismatch is a hard failure,
    surfaced by `require_agreement`.
    """

    algebra_name: str
    degrees: tuple[int, ...]
    betti_lambda: dict[int, int]
    betti_bicomplex: dict[int, int]
    cohomology: bool = False

    @property
    def agreement(self) -> dict[int, bool]:
        return {n: self.betti_lambda[n] == self.betti_bicomplex[n]
                for n in self.degrees}

    def require_agreement(self) -> None:
        bad = [n for n, ok in self.agreement.items() if not ok]
        if bad:
            raise IdentityViolationError(
                f"lambda/bicomplex Betti mismatch in degrees {bad} "
                f"for {self.algebra_name}")

    def to_json_dict(self) -> dict:
        return {
            "algebra": self.algebra_name,
            "cohomology": self.cohomology,
            "degrees": list(self.degrees),
            "betti_lambda": {str(n): self.betti_lambda[n] for n in self.degrees},
            "betti_bicomplex": {str(n): self.betti_bicomplex[n]
                                for n in self.degrees},
            "agreement": {str(n): self.agreement[n] for n in self.degrees},
        }


def cyclic_homology_both(A: HomAlgebra, n_max: int) -> CyclicReport:
    return CyclicReport(A.name, tuple(range(n_max + 1)),
                        dict(cyclic_homology_lambda(A, n_max).betti),
                        dict(cyclic_homology_bicomplex(A, n_max).betti))


def cyclic_cohomology_both(A: HomAlgebra, n_max: int) -> CyclicReport:
    return CyclicReport(A.name, tuple(range(n_max + 1)),
                        dict(cyclic_cohomology_lambda(A, n_max).betti),
                        dict(cyclic_cohomology_bicomplex(A, n_max).betti),
                        cohomology=True)


@record
class PeriodicReport:
    """Window-truncated periodic Betti numbers with stabilization flags.

    The two-sided bicomplex truncated P columns left of zero is, for even
    P >= 0, the first-quadrant one shifted by P columns, so degree n of
    the window-P truncation is HC_{n+P}.  One HC tower is computed up to
    degree n_max + P + 2 and sliced: `betti[n]` is HC_{n+P} and
    `betti_wider[n]` is HC_{n+P+2}.  The periodic groups are the limit
    of that tower; a degree is trusted only when the two slices agree.
    """

    algebra_name: str
    window: int
    degrees: tuple[int, ...]
    betti: dict[int, int]
    betti_wider: dict[int, int]
    cohomology: bool = False

    @property
    def stabilized(self) -> dict[int, bool]:
        return {n: self.betti[n] == self.betti_wider[n] for n in self.degrees}

    def parity_classes(self) -> dict[int, set[int]]:
        """Stabilized Betti values grouped by degree parity."""
        out: dict[int, set[int]] = {0: set(), 1: set()}
        for n in self.degrees:
            if self.stabilized[n]:
                out[n % 2].add(self.betti[n])
        return out

    def to_json_dict(self) -> dict:
        return {
            "algebra": self.algebra_name,
            "cohomology": self.cohomology,
            "window": self.window,
            "degrees": list(self.degrees),
            "betti": {str(n): self.betti[n] for n in self.degrees},
            "betti_wider_window": {str(n): self.betti_wider[n]
                                   for n in self.degrees},
            "stabilized": {str(n): self.stabilized[n] for n in self.degrees},
        }


def _periodic_report(A: HomAlgebra, n_max: int, window: int,
                     cohomology: bool) -> PeriodicReport:
    if window < 0 or window % 2:
        raise ValueError("window must be even and >= 0: an odd column shift "
                         "flips the b/-b' and (Id-t)/N parities, and a "
                         "negative one indexes HC below degree 0")
    build = cocyclic_bicomplex if cohomology else cyclic_bicomplex
    T = total_complex(build(A, n_max + window + 2))
    degrees = tuple(range(n_max + 1))
    hc = {k: homology(T, k, representatives=False)[0]
          for k in sorted({n + window + s for n in degrees for s in (0, 2)})}
    return PeriodicReport(A.name, window, degrees,
                          {n: hc[n + window] for n in degrees},
                          {n: hc[n + window + 2] for n in degrees},
                          cohomology=cohomology)


def periodic_homology(A: HomAlgebra, n_max: int, *,
                      window: int = 2) -> PeriodicReport:
    return _periodic_report(A, n_max, window, cohomology=False)


def periodic_cohomology(A: HomAlgebra, n_max: int, *,
                        window: int = 2) -> PeriodicReport:
    return _periodic_report(A, n_max, window, cohomology=True)


# ---------------------------------------------------------------------------
# Connes (b, B) machinery -- experimental: the chain identities are
# asserted but not proved by the theory in the Hom setting, so the
# computed outcome on each input is reported, never assumed.

@record
class ConnesBBReport:
    algebra_name: str
    degrees: tuple[int, ...]
    b_squared_zero: bool
    bB_anticommute: bool
    betti: dict[int, int] = Field(default_factory=dict)
    betti_cyclic: dict[int, int] = Field(default_factory=dict)

    @property
    def identities_hold(self) -> bool:
        return self.b_squared_zero and self.bB_anticommute

    @property
    def matches_cyclic(self) -> bool | None:
        if not self.identities_hold:
            return None
        return all(self.betti[n] == self.betti_cyclic[n] for n in self.degrees)


def extra_degeneracy(A: HomAlgebra, unit: tuple[Fraction, ...],
                     n: int) -> Matrix:
    """s: C_n -> C_{n+1}, a_0(x)...(x)a_n -> 1(x)a_0(x)...(x)a_n.

    Its matrix is unit (x) Id, that is (unsigned rotation) o (append
    unit); the unsigned reading of the rotation makes the associative
    specialization reproduce the classical extra degeneracy.
    """
    return kron(Matrix.from_columns(A.dim, [unit]),
                Matrix.identity(A.dim ** (n + 1)))


def connes_boundary(A: HomAlgebra, unit: tuple[Fraction, ...], n: int) -> Matrix:
    """B = (Id - t_{n+1}) s N : C_n -> C_{n+1}."""
    return _one_minus_t(A, n + 1) @ extra_degeneracy(A, unit, n) @ norm_N(A, n)


def connes_bB_report(A: HomAlgebra, n_max: int) -> ConnesBBReport:
    unit = find_unit(A)
    if unit is None:
        raise ValueError("(b,B) machinery requires a unital algebra")
    bmaps = {n: b for n, (_, b) in enumerate(
        bar_differentials(A, regular_bimodule(A), n_max + 1), 1)}
    Bmaps = {n: connes_boundary(A, unit, n) for n in range(0, n_max + 2)}
    degrees = tuple(range(n_max + 1))

    def flags(squares, anticommutes):
        # B_{n+1} B_n = 0 and b_{n+1} B_n + B_{n-1} b_n = 0 on C_n
        return (all(vanishes((1, Bmaps[n + 1], Bmaps[n])) for n in squares),
                all(vanishes((1, bmaps[n + 1], Bmaps[n]), *(
                    [(1, Bmaps[n - 1], bmaps[n])] if n >= 1 else []))
                    for n in anticommutes))

    # Loday's (b, B)-bicomplex: cell (p, q), 0 <= p <= q, is C_{q-p}, with
    # b down the columns and B along the rows, so Tot_n = (+)_p C_{n-2p}.
    # `total_complex` checks its squares: B^2 = 0 on C_n for n <= n_max - 3
    # and bB + Bb = 0 for n < n_max.  The rest are checked here first, and
    # both flags are evaluated in full only when a check fails.
    if not all(flags(range(max(n_max - 2, 0), n_max + 1), [n_max])):
        return ConnesBBReport(A.name, degrees, *flags(degrees, degrees))
    cells = {(p, q): A.dim ** (q - p + 1) for q in range(n_max + 2)
             for p in range(q + 1) if p + q <= n_max + 1}
    try:
        T = total_complex(Bicomplex(
            cell_dims=cells,
            vertical={(p, q): bmaps[q - p] for p, q in cells if q > p},
            horizontal={(p, q): Bmaps[q - p] for p, q in cells if p > 0}))
    except BoundarySquareError:
        b2, anti = flags(degrees, degrees)
        if b2 and anti:  # b^2 or d^2 failed, which neither flag records
            raise
        return ConnesBBReport(A.name, degrees, b2, anti)
    betti = {n: homology(T, n, representatives=False)[0] for n in degrees}
    return ConnesBBReport(A.name, degrees, True, True, betti, dict(
        cyclic_homology_bicomplex(A, n_max).betti))


# ---------------------------------------------------------------------------
# Functoriality

class ChainMapError(ValueError):
    pass


def _homology_matrix(C_src: ChainComplex, C_tgt: ChainComplex,
                     maps: dict[int, Matrix], n: int) -> Matrix:
    """Matrix of the induced map on degree-n homology classes: the
    target's quotient by its boundaries after the chain map, restricted
    to the source representatives, read in the target classes."""
    B_tgt, H_tgt = homology_classes(C_tgt, n)
    return restrict(B_tgt.quotient @ maps[n], representative_space(C_src, n),
                    H_tgt)


def induced_map_on_homology(f: AlgebraMorphism, theory: str, n: int) -> Matrix:
    """Induced map HH_n or HC_n of the source into the target.

    The chain map a_0(x)...(x)a_n -> f(a_0)(x)...(x)f(a_n) is verified
    to commute with b (and, for HC, to descend to the lambda quotients)
    before representatives are pushed through.
    """
    ok, bad = validate_morphism(f)
    if not ok:
        raise ChainMapError("not a morphism of Hom-algebras: " + str(bad[0]))
    A, Bg = f.source, f.target
    CA, CB = (build_hochschild_homology_complex(
        X, regular_bimodule(X), n + 1, check_identities=False) for X in (A, Bg))
    tmaps = {k: tensor_power_matrix(f.matrix, k + 1) for k in range(n + 2)}
    for k in range(1, n + 2):
        if not vanishes((1, tmaps[k - 1], CA.differential(k)),
                        (-1, CB.differential(k), tmaps[k])):
            raise ChainMapError(f"chain map fails to commute with b at degree {k}")
    if theory == "HH":
        return _homology_matrix(CA, CB, tmaps, n)
    if theory != "HC":
        raise ValueError("theory must be 'HH' or 'HC'")
    subsA, subsB = (lambda_quotient_subspaces(X, n + 1) for X in (A, Bg))
    QA, QB = quotient_complex(CA, subsA), quotient_complex(CB, subsB)
    qmaps = {}
    for k in range(n + 2):
        # the tensor-power map commutes with t, hence with Id - t
        try:
            qmaps[k] = descend(tmaps[k], subsA[k], subsB[k])
        except NotASubspaceError as exc:
            raise ChainMapError(f"chain map does not descend to lambda "
                                f"quotient at {k}") from exc
    return _homology_matrix(QA, QB, qmaps, n)


# ---------------------------------------------------------------------------
# The comparison map from the cyclic cochain complex of an associative
# algebra to that of its twist by an idempotent endomorphism.

def xi_map(assoc: HomAlgebra, twisted: HomAlgebra, n: int) -> Matrix:
    """phi -> phi o alpha^{(x)(n+1)} on cyclic cochains.

    `assoc` must be associative with alpha = Id; `twisted` its twist by
    an idempotent algebra endomorphism.  Verified to commute with the
    coboundaries and to preserve cyclicity.
    """
    if not is_associative(assoc) or assoc.alpha != Matrix.identity(assoc.dim):
        raise ValueError("source must be associative with alpha = Id")
    if not alpha_is_idempotent(twisted):
        raise ValueError("twist endomorphism must be idempotent")
    alpha = twisted.alpha
    xi_n, xi_next = (tensor_power_matrix(alpha, k).transpose()
                     for k in (n + 1, n + 2))
    b_src = hochschild_b(assoc, regular_bimodule(assoc), n + 1).transpose()
    b_tgt = hochschild_b(twisted, regular_bimodule(twisted), n + 1).transpose()
    if not vanishes((1, b_tgt, xi_n), (-1, xi_next, b_src)):
        raise IdentityViolationError("xi fails to commute with the coboundary")
    cyc = cyclic_invariant_subspaces(assoc, n)[n]
    if not maps_into(xi_n, cyc, cyc):
        raise IdentityViolationError("xi does not preserve cyclicity")
    return xi_n


def xi_induced_on_cyclic_cohomology(assoc: HomAlgebra, twisted: HomAlgebra,
                                    n: int) -> Matrix:
    """Matrix of the map HC^n(A) -> HC^n(A_alpha) induced by xi."""
    CA, CT = (build_hochschild_cohomology_complex(
        X, dualize_bimodule(regular_bimodule(X)), n + 1,
        check_identities=False) for X in (assoc, twisted))
    subs = cyclic_invariant_subspaces(assoc, n + 1)
    SA = sub_complex(CA, subs)
    ST = sub_complex(CT, subs)  # t is product-independent: same subspaces
    maps = {k: restrict(tensor_power_matrix(twisted.alpha, k + 1).transpose(),
                        subs[k], subs[k]) for k in range(n + 2)}
    for k in range(n + 1):
        if not vanishes((1, maps[k + 1], SA.differential(k)),
                        (-1, ST.differential(k), maps[k])):
            raise IdentityViolationError(
                f"restricted xi fails to commute at degree {k}")
    return _homology_matrix(SA, ST, maps, n)
