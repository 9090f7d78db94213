"""Concrete cocycles: traces, cyclic cocycle verification, and the
1-cocycle built from a trace and a twisted derivation.

A degree-n functional is a coordinate vector in the dual basis of
A^{(x)(n+1)}, indexed exactly like the chain basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Sequence

from .algebra import HomAlgebra, Violation
from .coefficients import regular_bimodule
from .hochschild import IdentityViolationError, cyclic_t, hochschild_b
from .linalg import Matrix, Subspace, ZERO, ONE, solve_homogeneous


@dataclass(frozen=True)
class Functional:
    """k-linear functional on A^{(x)(degree+1)}, dual-basis coordinates."""

    degree: int
    coords: tuple[Fraction, ...]

    def __call__(self, vec: Sequence[Fraction]) -> Fraction:
        return sum((c * v for c, v in zip(self.coords, vec) if v), ZERO)


def trace_space(A: HomAlgebra) -> Subspace:
    """Solutions of phi(e_i e_j) = phi(e_j e_i) inside A*."""
    constraints = []
    for i in range(A.dim):
        for j in range(i + 1, A.dim):
            constraints.append([a - b for a, b in
                                zip(A.mu[i][j], A.mu[j][i])])
    return solve_homogeneous(constraints, A.dim)


@dataclass(frozen=True)
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
    V = regular_bimodule(A)
    b_co = hochschild_b(A, V, n + 1).transpose()
    cob = b_co.apply(phi.coords)
    co_res = []
    for row, idx in enumerate(iproduct(range(A.dim), repeat=n + 2)):
        if cob[row]:
            co_res.append(Violation("hochschild-cocycle", idx,
                                    (cob[row],), (ZERO,)))
    t_co = cyclic_t(A, n).transpose()
    diff = (Matrix.identity(size) - t_co).apply(phi.coords)
    cyc_res = []
    for row, idx in enumerate(iproduct(range(A.dim), repeat=n + 1)):
        if diff[row]:
            cyc_res.append(Violation("cyclicity", idx, (diff[row],), (ZERO,)))
    return CocycleCheck(not co_res and not cyc_res,
                        tuple(co_res), tuple(cyc_res))


@dataclass(frozen=True)
class TwistedDerivation:
    """rho with rho(ab) = rho(a)b + a rho(b) and alpha rho = rho alpha = rho.

    The Leibniz rule is the untwisted one, exactly as the theory states
    it for these twisted derivations.
    """

    matrix: Matrix


def validate_twisted_derivation(A: HomAlgebra, rho: TwistedDerivation
                                ) -> tuple[bool, list[Violation]]:
    m = rho.matrix
    if (m.rows, m.cols) != (A.dim, A.dim):
        raise ValueError("derivation matrix shape mismatch")
    bad = []
    for a in range(A.dim):
        ea = A.basis_vector(a)
        for b in range(A.dim):
            eb = A.basis_vector(b)
            lhs = m.apply(A.mu[a][b])
            rhs = tuple(x + y for x, y in zip(
                A.product(m.apply(ea), eb),
                A.product(ea, m.apply(eb))))
            if lhs != rhs:
                bad.append(Violation("leibniz", (a, b), lhs, rhs))
    if (A.alpha @ m) != m or (m @ A.alpha) != m:
        bad.append(Violation("twist-compat alpha*rho=rho*alpha=rho", (),
                             (), ()))
    return not bad, bad


class CocyclePreconditionError(ValueError):
    pass


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
    d = A.dim
    coords = []
    for i in range(d):
        ei = A.basis_vector(i)
        for j in range(d):
            val = tr(A.product(ei, rho.matrix.apply(A.basis_vector(j))))
            coords.append(val)
    phi = Functional(1, tuple(coords))
    check = is_cyclic_cocycle(phi, A)
    if not check.is_cocycle:
        raise IdentityViolationError(
            "derivation cocycle failed the cocycle check")
    return phi
