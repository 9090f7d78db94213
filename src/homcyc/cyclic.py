"""Cyclic and periodic (co)homology: quotient/invariant method and the
bicomplex method, plus the comparison and functoriality machinery.
`hochschild_homology` and `hochschild_cohomology` live in `hochschild`
and are re-exported here.

Cochain-level operators are transposes of the chain-level ones: the
basis conventions in `hochschild` make the identification of a cochain
with coefficients in (regular)* and a functional on A^{(x)(n+1)} the
identity on coordinates.  The one rotation is t (`hochschild.cyclic_t`),
and N and Id - t are `linalg.power_sum`s of it.

The λ side has one construction, `_lambda_side`: it builds one
(co)cyclic bicomplex and reads b (or b^T) from column 0 as the
Hochschild complex, and the row maps Id - t (or their transposes) for
the λ subspaces, so a `both` request builds b, b', t and N each once;
only Id - t in the top degree, which no row holds, is built apart.
The λ methods and the map xi induces on HC-co read it too.
"""

from __future__ import annotations

from .algebra import (AlgebraMorphism, HomAlgebra, alpha_is_idempotent,
                      is_associative, validate_morphism)
from .coefficients import dualize_bimodule, regular_bimodule
from .complexes import (Bicomplex, ChainComplex, HomologyReport, homology,
                        homology_classes, quotient_complex,
                        report_for_complex, representative_space,
                        sub_complex, text_table, total_complex)
from .hochschild import (IdentityViolationError, _powers, bar_differentials,
                         cyclic_t, hochschild_b, hochschild_cohomology,
                         hochschild_homology, norm_N,
                         require_homology_hypotheses)
from .linalg import (Matrix, NotASubspaceError, Subspace, descend, image,
                     kernel, power_sum, reduce_mod, restrict, vanishes)
from .records import cached, record


def _one_minus_t(A: HomAlgebra, n: int) -> Matrix:
    """Id - t_n on A^{(x)(n+1)}: t (`cyclic_t`) is a signed permutation,
    so Id - t is written row by row (`power_sum`)."""
    return power_sum(cyclic_t(A, n), (1, -1))


def one_minus_t(A: HomAlgebra, n_max: int) -> dict[int, Matrix]:
    """{n: Id - t_n on A^{(x)(n+1)}} for n = 0..n_max."""
    return {n: _one_minus_t(A, n) for n in range(n_max + 1)}


def lambda_quotient_subspaces(maps: dict[int, Matrix]) -> dict[int, Subspace]:
    """Per degree n, im(Id - t_n) inside A^{(x)(n+1)}, from the maps
    {n: Id - t_n}: `one_minus_t`, or the cyclic bicomplex's rows."""
    return {n: image(m) for n, m in maps.items()}


def _lambda_report(A: HomAlgebra, n_max: int, representatives: bool,
                   cohomology: bool) -> HomologyReport:
    # only the λ complex is kept: the bicomplex and subspaces go at once
    lam, V = _lambda_side(A, n_max, cohomology)[1], regular_bimodule(A)
    return report_for_complex(
        lam, range(n_max + 1),
        theory="HC-co-lambda" if cohomology else "HC-lambda",
        algebra_name=A.name,
        coefficient_name=(dualize_bimodule(V) if cohomology else V).name,
        representatives=representatives)


def cyclic_homology_lambda(A: HomAlgebra, n_max: int, *,
                           representatives: bool = False) -> HomologyReport:
    """Homology of C_*(A) / im(Id - t), the cyclic-coinvariants complex."""
    return _lambda_report(A, n_max, representatives, cohomology=False)


def cyclic_cohomology_lambda(A: HomAlgebra, n_max: int, *,
                             representatives: bool = False) -> HomologyReport:
    """Cohomology of the cyclic-invariant subcomplex ker(Id - t)."""
    return _lambda_report(A, n_max, representatives, cohomology=True)


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
    for q, (bp, b[q]) in enumerate(bar_differentials(A, top), 1):
        if q < top:
            minus_bp[q] = -bp
    rows = one_minus_t(A, top - 1)
    N = {q: norm_N(A, q) for q in range(top - 1)}
    return Bicomplex(cell_dims=cells, orientation="homological", vertical={
        (p, q): minus_bp[q] if p % 2 else b[q] for p, q in cells if q},
        horizontal={(p, q): rows[q] if p % 2 else N[q]
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

    @cached
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

    def to_text(self) -> str:
        kind = "cohomology" if self.cohomology else "homology"
        return text_table(
            f"cyclic {kind} of {self.algebra_name} (lambda vs bicomplex)",
            [("degree", 8), ("lambda", 8), ("bicomplex", 10), ("agree", 6)],
            [(n, self.betti_lambda[n], self.betti_bicomplex[n],
              "yes" if self.agreement[n] else "NO") for n in self.degrees])


def _lambda_side(A: HomAlgebra, n_max: int, cohomology: bool) -> tuple[
        Bicomplex, ChainComplex, dict[int, Subspace]]:
    """(B, the λ complex, its subspaces) in degrees 0..n_max + 1, B the
    (co)cyclic bicomplex of A.  The λ complex is the Hochschild complex
    of B's column 0, b, over the images of its row maps Id - t, or for
    cochains b^T on the kernels of (Id - t)^T; only Id - t in degree
    n_max + 1, which B does not hold, is built apart.  First, as for a
    Hochschild build, the regular bimodule's homology hypotheses are
    checked, or for cochains that A* is a dual bimodule."""
    V, top = regular_bimodule(A), n_max + 1
    if cohomology:
        dualize_bimodule(V)
        B = cocyclic_bicomplex(A, n_max)
        rows = {q: B.horizontal[(0, q)] for q in range(top)}
        rows[top] = _one_minus_t(A, top).transpose()
    else:
        require_homology_hypotheses(V)
        B = cyclic_bicomplex(A, n_max)
        rows = {q: B.horizontal[(1, q)] for q in range(top)}
        rows[top] = _one_minus_t(A, top)
    column = ChainComplex(
        dims={q: dim for (p, q), dim in B.cell_dims.items() if not p},
        diffs={q: m for (p, q), m in B.vertical.items() if not p},
        orientation=B.orientation)
    if cohomology:
        subs = {n: kernel(m) for n, m in rows.items()}
        return B, sub_complex(column, subs), subs
    subs = lambda_quotient_subspaces(rows)
    return B, quotient_complex(column, subs), subs


def _both(A: HomAlgebra, n_max: int, cohomology: bool) -> CyclicReport:
    """The Betti numbers of the λ complex against those of the total
    complex of the same bicomplex.  The λ side is built first, so a
    failure there is raised before B's squares are checked, and it is
    let go, subspaces and all, before the total complex is built, so
    the two are not held at once."""
    degrees = tuple(range(n_max + 1))
    B, lam = _lambda_side(A, n_max, cohomology)[:2]
    betti_lambda = {n: homology(lam, n, representatives=False)[0]
                    for n in degrees}
    del lam
    T = total_complex(B)
    return CyclicReport(A.name, degrees, betti_lambda, {
        n: homology(T, n, representatives=False)[0] for n in degrees},
        cohomology=cohomology)


def cyclic_homology_both(A: HomAlgebra, n_max: int) -> CyclicReport:
    """HC by both constructions from one cyclic bicomplex (`_lambda_side`)."""
    return _both(A, n_max, cohomology=False)


def cyclic_cohomology_both(A: HomAlgebra, n_max: int) -> CyclicReport:
    """HC-co by both constructions from one cocyclic bicomplex
    (`_lambda_side`).  A* must be a dual bimodule (`dualize_bimodule`),
    as for the λ method."""
    return _both(A, n_max, cohomology=True)


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

    @cached
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

    def to_text(self) -> str:
        kind = "cohomology" if self.cohomology else "homology"
        return text_table(
            f"periodic cyclic {kind} of {self.algebra_name} "
            f"(window {self.window} vs {self.window + 2})",
            [("degree", 8), ("betti", 6), ("wider", 6), ("stable", 7)],
            [(n, self.betti[n], self.betti_wider[n],
              "yes" if self.stabilized[n] else "no") for n in self.degrees])


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
# Functoriality

class ChainMapError(ValueError):
    pass


def _homology_matrix(C_src: ChainComplex, C_tgt: ChainComplex,
                     maps: dict[int, Matrix], n: int) -> Matrix:
    """Matrix of the induced map on degree-n homology classes: the
    target's quotient by its boundaries after the chain map, restricted
    to the source representatives, read in the target classes."""
    B_tgt, H_tgt = homology_classes(C_tgt, n)
    return restrict(reduce_mod(B_tgt, maps[n]),
                    representative_space(C_src, n), H_tgt)


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
    for X in (A, Bg):
        require_homology_hypotheses(regular_bimodule(X))
    CA, CB = (ChainComplex(
        dims={k: X.dim ** (k + 1) for k in range(n + 2)},
        diffs={k: b for k, (_, b) in enumerate(bar_differentials(X, n + 1), 1)},
        orientation="homological") for X in (A, Bg))
    # f^{(x)(k+1)} for k = 0..n+1, each one product from the last
    tmaps = dict(enumerate(_powers(f.matrix, n + 2)[1:]))
    for k in range(1, n + 2):
        if not vanishes((1, tmaps[k - 1], CA.differential(k)),
                        (-1, CB.differential(k), tmaps[k])):
            raise ChainMapError(f"chain map fails to commute with b at degree {k}")
    if theory == "HH":
        return _homology_matrix(CA, CB, tmaps, n)
    if theory != "HC":
        raise ValueError("theory must be 'HH' or 'HC'")
    # Id - t depends on the dimension and degree alone, so algebras of one
    # dimension share each subspace and its cached quotient map
    subsA = lambda_quotient_subspaces(one_minus_t(A, n + 1))
    subsB = subsA if Bg.dim == A.dim else \
        lambda_quotient_subspaces(one_minus_t(Bg, n + 1))
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
    b_src = hochschild_b(assoc, regular_bimodule(assoc), n + 1).transpose()
    b_tgt = hochschild_b(twisted, regular_bimodule(twisted), n + 1).transpose()
    # (alpha^T)^{(x)k} = (alpha^{(x)k})^T, k = n+1 and n+2, by running products
    *_, xi_n, xi_next = _powers(twisted.alpha.transpose(), n + 2)
    if not vanishes((1, b_tgt, xi_n), (-1, xi_next, b_src)):
        raise IdentityViolationError("xi fails to commute with the coboundary")
    cyc = kernel(_one_minus_t(assoc, n).transpose())
    if not vanishes((1, reduce_mod(cyc, xi_n), cyc.rows.transpose())):
        raise IdentityViolationError("xi does not preserve cyclicity")
    return xi_n


def xi_induced_on_cyclic_cohomology(assoc: HomAlgebra, twisted: HomAlgebra,
                                    n: int) -> Matrix:
    """Matrix of the map HC^n(A) -> HC^n(A_alpha) induced by xi."""
    _, SA, subs = _lambda_side(assoc, n, cohomology=True)
    # t is product-independent: ST's subspaces, in their RREF bases, are subs
    ST = _lambda_side(twisted, n, cohomology=True)[1]
    maps = {k: restrict(xi, subs[k], subs[k]) for k, xi in enumerate(
        _powers(twisted.alpha.transpose(), n + 2)[1:])}
    for k in range(n + 1):
        if not vanishes((1, maps[k + 1], SA.differential(k)),
                        (-1, ST.differential(k), maps[k])):
            raise IdentityViolationError(
                f"restricted xi fails to commute at degree {k}")
    return _homology_matrix(SA, ST, maps, n)
