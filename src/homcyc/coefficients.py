"""Coefficient systems: bimodules, dual bimodules, A-degree duals.

A bimodule (V, beta) over (A, alpha) is stored by its action matrices:
left[a] is the matrix of v -> e_a . v and right[a] the matrix of
v -> v . e_a, both m x m, plus the coefficient endomorphism beta.
Functionals live in the dual basis, so every dual construction is a
matrix transpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import HomAlgebra, Violation, is_centroid_element
from .linalg import (Matrix, NotASubspaceError, Subspace, ZERO, ONE, restrict,
                     solve_homogeneous)


class CoefficientError(ValueError):
    pass


@dataclass(frozen=True)
class Bimodule:
    """Validated A-bimodule: twisted left/right module axioms plus
    the compatibility alpha(a).(v.b) = (a.v).alpha(b)."""

    algebra: HomAlgebra
    dim: int
    left: tuple[Matrix, ...]   # left[a]: v -> e_a . v
    right: tuple[Matrix, ...]  # right[a]: v -> v . e_a
    beta: Matrix
    name: str = ""

    def left_action(self, x: Sequence[Fraction], v: Sequence[Fraction]):
        out = [ZERO] * self.dim
        for a, xa in enumerate(x):
            if xa:
                w = self.left[a].apply(v)
                out = [o + xa * wi for o, wi in zip(out, w)]
        return tuple(out)

    def right_action(self, v: Sequence[Fraction], x: Sequence[Fraction]):
        out = [ZERO] * self.dim
        for a, xa in enumerate(x):
            if xa:
                w = self.right[a].apply(v)
                out = [o + xa * wi for o, wi in zip(out, w)]
        return tuple(out)


@dataclass(frozen=True)
class DualBimodule:
    """Same data layout as Bimodule, but satisfying the dual-module
    axioms a.(alpha(b).v) = beta((ab).v) and its right mirror."""

    algebra: HomAlgebra
    dim: int
    left: tuple[Matrix, ...]
    right: tuple[Matrix, ...]
    beta: Matrix
    name: str = ""

    left_action = Bimodule.left_action
    right_action = Bimodule.right_action


def check_bimodule_axioms(V) -> list[Violation]:
    """All three bimodule axiom families on basis triples (a, b, v)."""
    A = V.algebra
    bad = []
    alpha_cols = [A.apply_alpha(A.basis_vector(a)) for a in range(A.dim)]
    for a in range(A.dim):
        for b in range(A.dim):
            ab = A.mu[a][b]
            for vi in range(V.dim):
                v = tuple(ONE if k == vi else ZERO for k in range(V.dim))
                lhs = V.left_action(ab, V.beta.apply(v))
                rhs = V.left_action(alpha_cols[a], V.left_action(A.basis_vector(b), v))
                if lhs != rhs:
                    bad.append(Violation("left-module", (a, b, vi), lhs, rhs))
                lhs = V.right_action(V.beta.apply(v), ab)
                rhs = V.right_action(V.right_action(v, A.basis_vector(a)),
                                     alpha_cols[b])
                if lhs != rhs:
                    bad.append(Violation("right-module", (a, b, vi), lhs, rhs))
                lhs = V.left_action(alpha_cols[a],
                                    V.right_action(v, A.basis_vector(b)))
                rhs = V.right_action(V.left_action(A.basis_vector(a), v),
                                     alpha_cols[b])
                if lhs != rhs:
                    bad.append(Violation("bimodule-compat", (a, b, vi), lhs, rhs))
    return bad


def check_dual_bimodule_axioms(W) -> list[Violation]:
    """Dual left/right module axioms plus the shared compatibility."""
    A = W.algebra
    bad = []
    alpha_cols = [A.apply_alpha(A.basis_vector(a)) for a in range(A.dim)]
    for a in range(A.dim):
        for b in range(A.dim):
            ab = A.mu[a][b]
            for vi in range(W.dim):
                v = tuple(ONE if k == vi else ZERO for k in range(W.dim))
                lhs = W.left_action(A.basis_vector(a),
                                    W.left_action(alpha_cols[b], v))
                rhs = W.beta.apply(W.left_action(ab, v))
                if lhs != rhs:
                    bad.append(Violation("dual-left-module", (a, b, vi), lhs, rhs))
                lhs = W.right_action(W.right_action(v, alpha_cols[a]),
                                     A.basis_vector(b))
                rhs = W.beta.apply(W.right_action(v, ab))
                if lhs != rhs:
                    bad.append(Violation("dual-right-module", (a, b, vi), lhs, rhs))
                lhs = W.left_action(alpha_cols[a],
                                    W.right_action(v, A.basis_vector(b)))
                rhs = W.right_action(W.left_action(A.basis_vector(a), v),
                                     alpha_cols[b])
                if lhs != rhs:
                    bad.append(Violation("dual-bimodule-compat", (a, b, vi),
                                         lhs, rhs))
    return bad


def regular_bimodule(A: HomAlgebra) -> Bimodule:
    """V = A acting on itself by mu, beta = alpha.

    Built and checked once per algebra instance, and kept on it.  Equal
    algebras do not share it: equality ignores the name, which the
    bimodule's name carries into every report.
    """
    cached = vars(A).get("_regular_bimodule")
    if cached is not None:
        return cached
    left = tuple(A.left_mult_matrix(A.basis_vector(a)) for a in range(A.dim))
    right = tuple(A.right_mult_matrix(A.basis_vector(a)) for a in range(A.dim))
    V = Bimodule(A, A.dim, left, right, A.alpha, name=f"{A.name}-regular")
    bad = check_bimodule_axioms(V)
    if bad:
        raise CoefficientError(
            "regular bimodule axioms fail (algebra not validated?): "
            + str(bad[0]))
    vars(A)["_regular_bimodule"] = V
    return V


def validate_homology_coefficients(V: Bimodule) -> tuple[bool, list[Violation]]:
    """Extra hypotheses for the homology theory:
    beta(v.a) = beta(v).alpha(a) and beta(a.v) = alpha(a).beta(v)."""
    A = V.algebra
    bad = []
    for a in range(A.dim):
        ea = A.basis_vector(a)
        aa = A.apply_alpha(ea)
        for vi in range(V.dim):
            v = tuple(ONE if k == vi else ZERO for k in range(V.dim))
            lhs = V.beta.apply(V.right_action(v, ea))
            rhs = V.right_action(V.beta.apply(v), aa)
            if lhs != rhs:
                bad.append(Violation("beta(v.a)=beta(v).alpha(a)", (a, vi), lhs, rhs))
            lhs = V.beta.apply(V.left_action(ea, v))
            rhs = V.left_action(aa, V.beta.apply(v))
            if lhs != rhs:
                bad.append(Violation("beta(a.v)=alpha(a).beta(v)", (a, vi), lhs, rhs))
    return not bad, bad


def dualize_bimodule(V: Bimodule) -> DualBimodule:
    """V* with (a.f)(v) = f(v.a), (f.a)(v) = f(a.v), beta* = f o beta."""
    left = tuple(V.right[a].transpose() for a in range(V.algebra.dim))
    right = tuple(V.left[a].transpose() for a in range(V.algebra.dim))
    W = DualBimodule(V.algebra, V.dim, left, right, V.beta.transpose(),
                     name=f"{V.name}-dual")
    bad = check_dual_bimodule_axioms(W)
    if bad:
        raise CoefficientError("dual of a bimodule fails dual axioms: "
                               + str(bad[0]))
    return W


@dataclass(frozen=True)
class RestrictedDual:
    """A-degree dual: subspace of A* with its induced bimodule structure."""

    subspace: Subspace
    bimodule: Bimodule


def a_circ(A: HomAlgebra) -> RestrictedDual:
    """The subspace {f : f(x alpha(y)) = f(alpha(xy)) = f(alpha(x)y)} of A*
    with actions (a.f)(b) = f(b alpha(a)), (f.a)(b) = f(alpha(a) b), beta = Id.
    """
    d = A.dim
    constraints = []
    for i in range(d):
        ei = A.basis_vector(i)
        for j in range(d):
            ej = A.basis_vector(j)
            u = A.product(ei, A.apply_alpha(ej))       # x alpha(y)
            w = A.apply_alpha(A.mu[i][j])              # alpha(xy)
            z = A.product(A.apply_alpha(ei), ej)       # alpha(x) y
            constraints.append([a - b for a, b in zip(u, w)])
            constraints.append([a - b for a, b in zip(w, z)])
    sub = solve_homogeneous(constraints, d)
    m = sub.dim
    # actions on A*: (a.f) = (R_{alpha(a)})^T f, (f.a) = (L_{alpha(a)})^T f
    left_amb = [A.right_mult_matrix(A.apply_alpha(A.basis_vector(a))).transpose()
                for a in range(d)]
    right_amb = [A.left_mult_matrix(A.apply_alpha(A.basis_vector(a))).transpose()
                 for a in range(d)]

    try:
        left = tuple(restrict(mat, sub, sub) for mat in left_amb)
        right = tuple(restrict(mat, sub, sub) for mat in right_amb)
    except NotASubspaceError as exc:
        raise CoefficientError(
            "action does not preserve the functional subspace") from exc
    V = Bimodule(A, m, left, right, Matrix.identity(m),
                 name=f"{A.name}-dual-restricted")
    bad = check_bimodule_axioms(V)
    if bad:
        raise CoefficientError("restricted dual fails bimodule axioms: "
                               + str(bad[0]))
    return RestrictedDual(sub, V)


def coregular_dual(A: HomAlgebra) -> Bimodule:
    """A* with (a.f)(b) = f(ba), (f.a)(b) = f(ab), beta = alpha transpose.

    Valid only under the centroid hypothesis; refuses otherwise, since
    the coregular actions need not define a bimodule in general.
    """
    ok, bad = is_centroid_element(A)
    if not ok:
        raise CoefficientError(
            "alpha is not in the centroid; coregular actions would not "
            "give a bimodule: " + str(bad[0]))
    d = A.dim
    left = tuple(A.right_mult_matrix(A.basis_vector(a)).transpose()
                 for a in range(d))
    right = tuple(A.left_mult_matrix(A.basis_vector(a)).transpose()
                  for a in range(d))
    V = Bimodule(A, d, left, right, A.alpha.transpose(),
                 name=f"{A.name}-coregular")
    axiom_bad = check_bimodule_axioms(V)
    if axiom_bad:
        raise CoefficientError("coregular dual fails bimodule axioms: "
                               + str(axiom_bad[0]))
    return V
