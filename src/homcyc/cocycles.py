"""Concrete cocycles: traces, cyclic cocycle verification, and the
1-cocycle built from a trace and a twisted derivation.

A degree-n functional is a coordinate vector in the dual basis of
A^{(x)(n+1)}, indexed exactly like the chain basis.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .algebra import HomAlgebra, Violation, axiom_violations
from .coefficients import regular_bimodule
from .errors import CocyclePreconditionError
from .hochschild import IdentityViolationError, cyclic_t, hochschild_b
from .linalg import (Matrix, Subspace, ZERO, kernel, kron, permute_columns,
                     power_sum, swap_slots, vanishes)
from .records import record


@record
class Functional:
    """k-linear functional on A^{(x)(degree+1)}, dual-basis coordinates."""

    degree: int
    coords: tuple[Fraction, ...]

    def __call__(self, vec: Sequence[Fraction]) -> Fraction:
        return sum((c * v for c, v in zip(self.coords, vec) if v), ZERO)


def trace_space(A: HomAlgebra) -> Subspace:
    """The traces phi(xy) = phi(yx): ker (mu - mu sigma)^T, sigma = swap."""
    mu, d = A.product_matrix, A.dim
    return kernel((mu - permute_columns(mu, swap_slots(d, d))).transpose())


@record
class CocycleCheck:
    is_cocycle: bool
    coboundary_residuals: tuple[Violation, ...]
    cyclicity_residuals: tuple[Violation, ...]


def is_cyclic_cocycle(phi: Functional, A: HomAlgebra) -> CocycleCheck:
    """Exact check of b(phi) = 0 and (Id - t)(phi) = 0.

    The cochain-level operators are the transposes of the chain-level
    b and t, acting on dual coordinates.  Residuals list the violated
    basis tuples with both sides evaluated.
    """
    n = phi.degree
    size = A.dim ** (n + 1)
    if len(phi.coords) != size:
        raise ValueError("functional coordinate length mismatch")
    # phi as a row: phi o b and phi o (Id - t), each zero at every tuple
    row = Matrix.from_rows([phi.coords])
    b = hochschild_b(A, regular_bimodule(A), n + 1)
    tuples = (A.dim,) * (n + 2)
    co_res = axiom_violations([
        ("hochschild-cocycle", row @ b, Matrix.zero(1, b.cols), tuples,
         range(n + 2))])
    cyc_res = axiom_violations([
        ("cyclicity", row @ power_sum(cyclic_t(A, n), (1, -1)),
         Matrix.zero(1, size), tuples[1:], range(n + 1))])
    return CocycleCheck(not co_res and not cyc_res,
                        tuple(co_res), tuple(cyc_res))


@record
class TwistedDerivation:
    """rho with rho(ab) = rho(a)b + a rho(b) and alpha rho = rho alpha = rho.

    The Leibniz rule is the untwisted one, exactly as the theory states
    it for these twisted derivations.
    """

    matrix: Matrix


def validate_twisted_derivation(A: HomAlgebra, rho: TwistedDerivation
                                ) -> tuple[bool, list[Violation]]:
    """rho mu = mu (rho (x) Id) + mu (Id (x) rho) at basis pairs, then
    alpha rho = rho alpha = rho."""
    m = rho.matrix
    if (m.rows, m.cols) != (A.dim, A.dim):
        raise ValueError("derivation matrix shape mismatch")
    mu, ident = A.product_matrix, Matrix.identity(A.dim)
    bad = axiom_violations([
        ("leibniz", m @ mu, mu @ kron(m, ident) + mu @ kron(ident, m),
         (A.dim, A.dim), (0, 1))])
    if not (vanishes((1, A.alpha, m), (-1, ident, m)) and
            vanishes((1, m, A.alpha), (-1, m, ident))):
        bad.append(Violation("twist-compat alpha*rho=rho*alpha=rho", (),
                             (), ()))
    return not bad, bad


def derivation_cocycle(A: HomAlgebra, rho: TwistedDerivation,
                       tr: Functional) -> Functional:
    """phi(a, b) = tr(a rho(b)): a cyclic 1-cocycle for any valid input.

    Preconditions: rho is a valid twisted derivation, tr is a trace, and
    tr vanishes on the image of rho.  The output is re-checked with
    is_cyclic_cocycle; a failure there would falsify the construction.
    """
    if tr.degree != 0:
        raise CocyclePreconditionError("tr must be a degree-0 functional")
    ok, bad = validate_twisted_derivation(A, rho)
    if not ok:
        raise CocyclePreconditionError(
            "rho is not a twisted derivation: " + str(bad[0]))
    if not trace_space(A).contains(tr.coords):
        raise CocyclePreconditionError("tr is not a trace")
    for a in range(A.dim):
        if tr(rho.matrix.apply(A.basis_vector(a))):
            raise CocyclePreconditionError(
                f"tr does not vanish on rho(e{a + 1})")
    # phi(a, b) = tr(mu(a (x) rho(b))): phi = (mu (Id (x) rho))^T tr
    rho_b = A.product_matrix @ kron(Matrix.identity(A.dim), rho.matrix)
    phi = Functional(1, rho_b.transpose().apply(tr.coords))
    check = is_cyclic_cocycle(phi, A)
    if not check.is_cocycle:
        raise IdentityViolationError(
            "derivation cocycle failed the cocycle check")
    return phi
