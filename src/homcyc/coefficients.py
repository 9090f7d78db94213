"""Coefficient systems: bimodules, dual bimodules, A-degree duals.

A bimodule (V, beta) over (A, alpha) is stored by its action matrices:
left[a] is the matrix of v -> e_a . v and right[a] the matrix of
v -> v . e_a, both m x m, plus the coefficient endomorphism beta.  One
type, `Bimodule`, holds both bimodules and dual bimodules; its `dual`
tag says which axiom set the data satisfies and, for the Hochschild
operators, whether the data enter as chains or as cochains.
Functionals live in the dual basis, so every dual construction is a
matrix transpose.

The axioms are matrix identities.  Written as maps out of tensor
products, the actions are L: A (x) V -> V, the m x dm matrix whose
column (a, v) is e_a . e_v, and R: V (x) A -> V, the m x md matrix
whose column (v, a) is e_v . e_a.  Each axiom equates two composites of
L, R, beta and the algebra's `product_matrix` and alpha, and
`axiom_violations` reports each basis tuple where they differ.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .algebra import (HomAlgebra, Violation, axiom_violations,
                      is_centroid_element)
from .linalg import (Matrix, NotASubspaceError, Subspace, block_matrix,
                     kernel, kron, permute_columns, restrict, swap_slots)
from .errors import CoefficientError
from .records import record, replace


@record
class Bimodule:
    """A-bimodule data: the twisted left and right module axioms plus
    the compatibility alpha(a).(v.b) = (a.v).alpha(b).  With `dual`, the
    data of a dual bimodule instead, which satisfies the dual-module
    axioms a.(alpha(b).v) = beta((ab).v), its right mirror and the same
    compatibility."""

    algebra: HomAlgebra
    dim: int
    left: tuple[Matrix, ...]   # left[a]: v -> e_a . v
    right: tuple[Matrix, ...]  # right[a]: v -> v . e_a
    beta: Matrix
    name: str = ""
    dual: bool = False


def _transposed(V: Bimodule, **changes) -> Bimodule:
    """V's actions on functionals, in the dual basis: left[a] and
    right[a] become right[a] and left[a] transposed, beta beta^T."""
    return replace(V, left=tuple(r.transpose() for r in V.right),
                   right=tuple(x.transpose() for x in V.left),
                   beta=V.beta.transpose(), **changes)


def _actions(V: Bimodule) -> tuple[Matrix, Matrix]:
    """L = [left[0] ... left[d-1]] (column (a, v) is e_a . e_v), and R,
    [right[0] ... right[d-1]] read at (v, a) (column (v, a) is e_v . e_a).
    Built once per bimodule instance and kept on it: its axiom check,
    the homology hypotheses and its chain data all read them."""
    actions = vars(V).get("_actions")
    if actions is None:
        d, m = V.algebra.dim, V.dim
        L, R = (block_matrix(m, d * m, [(act[a], 0, a * m) for a in range(d)])
                for act in (V.left, V.right))
        actions = vars(V)["_actions"] = L, permute_columns(
            R, swap_slots(d, m))
    return actions


def chain_data(V: Bimodule) -> tuple[Matrix, Matrix, Matrix]:
    """L, R and beta of V as Hochschild chain coefficients: V's own
    `_actions`, or for a dual bimodule those of its transposed data,
    whose faces are its cofaces transposed.  Built once per bimodule
    instance and kept on it, as its dual is."""
    data = vars(V).get("_chain_data")
    if data is None:
        U = _transposed(V) if V.dual else V
        data = vars(V)["_chain_data"] = (*_actions(U), U.beta)
    return data


def _compatibility(V: Bimodule, axiom: str, L: Matrix, R: Matrix):
    """alpha(a).(v.b) = (a.v).alpha(b), reported at (a, b, v)."""
    A = V.algebra
    return (axiom, L @ kron(A.alpha, R), R @ kron(L, A.alpha),
            (A.dim, V.dim, A.dim), (0, 2, 1))


def check_bimodule_axioms(V) -> list[Violation]:
    """L (mu (x) beta) = L (alpha (x) L), R (beta (x) mu) = R (R (x) alpha)
    and the compatibility, at basis triples (a, b, v)."""
    A = V.algebra
    d, m, mu, alpha, beta = A.dim, V.dim, A.product_matrix, A.alpha, V.beta
    L, R = _actions(V)
    return axiom_violations([
        ("left-module", L @ kron(mu, beta), L @ kron(alpha, L), (d, d, m),
         (0, 1, 2)),
        ("right-module", R @ kron(beta, mu), R @ kron(R, alpha), (m, d, d),
         (1, 2, 0)),
        _compatibility(V, "bimodule-compat", L, R)])


def check_dual_bimodule_axioms(W) -> list[Violation]:
    """L (Id (x) L (alpha (x) Id)) = beta L (mu (x) Id), its right mirror
    R (R (Id (x) alpha) (x) Id) = beta R (Id (x) mu), and the
    compatibility, at basis triples (a, b, v)."""
    A = W.algebra
    d, m, mu, alpha, beta = A.dim, W.dim, A.product_matrix, A.alpha, W.beta
    id_a, id_v = Matrix.identity(d), Matrix.identity(m)
    L, R = _actions(W)
    return axiom_violations([
        ("dual-left-module", L @ kron(id_a, L @ kron(alpha, id_v)),
         beta @ L @ kron(mu, id_v), (d, d, m), (0, 1, 2)),
        ("dual-right-module", R @ kron(R @ kron(id_v, alpha), id_a),
         beta @ R @ kron(id_v, mu), (m, d, d), (1, 2, 0)),
        _compatibility(W, "dual-bimodule-compat", L, R)])


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
    beta(v.a) = beta(v).alpha(a) and beta(a.v) = alpha(a).beta(v), that
    is beta R = R (beta (x) alpha) and beta L = L (alpha (x) beta)."""
    A = V.algebra
    L, R = _actions(V)
    bad = axiom_violations([
        ("beta(v.a)=beta(v).alpha(a)", V.beta @ R, R @ kron(V.beta, A.alpha),
         (V.dim, A.dim), (1, 0)),
        ("beta(a.v)=alpha(a).beta(v)", V.beta @ L, L @ kron(A.alpha, V.beta),
         (A.dim, V.dim), (0, 1))])
    return not bad, bad


def dualize_bimodule(V: Bimodule) -> Bimodule:
    """V* with (a.f)(v) = f(v.a), (f.a)(v) = f(a.v), beta* = f o beta.

    Built and checked once per bimodule instance, and kept on it, as
    `regular_bimodule` is kept on its algebra: V is immutable, so its
    dual never changes.
    """
    cached = vars(V).get("_dual")
    if cached is not None:
        return cached
    W = _transposed(V, name=f"{V.name}-dual", dual=True)
    bad = check_dual_bimodule_axioms(W)
    if bad:
        raise CoefficientError("dual of a bimodule fails dual axioms: "
                               + str(bad[0]))
    vars(V)["_dual"] = W
    return W


@record
class RestrictedDual:
    """A-degree dual: subspace of A* with its induced bimodule structure."""

    subspace: Subspace
    bimodule: Bimodule


def solve_homogeneous(constraints: Sequence[Sequence[Fraction]],
                      ambient_dim: int) -> Subspace:
    """Common null space of a list of linear functionals on Q^ambient_dim,
    each a vector of its ambient_dim coefficients."""
    return kernel(Matrix.from_columns(ambient_dim, constraints).transpose())


def a_circ(A: HomAlgebra) -> RestrictedDual:
    """The subspace {f : f(x alpha(y)) = f(alpha(xy)) = f(alpha(x)y)} of A*
    with actions (a.f)(b) = f(b alpha(a)), (f.a)(b) = f(alpha(a) b), beta = Id.
    """
    d, mu, ident = A.dim, A.product_matrix, Matrix.identity(A.dim)
    alpha_xy = A.alpha @ mu
    # the rows of each difference's transpose are constraints on f
    constraints = [row for diff in (mu @ kron(ident, A.alpha) - alpha_xy,
                                    alpha_xy - mu @ kron(A.alpha, ident))
                   for row in diff.transpose().to_rows()]
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
    V = _transposed(regular_bimodule(A), name=f"{A.name}-coregular")
    axiom_bad = check_bimodule_axioms(V)
    if axiom_bad:
        raise CoefficientError("coregular dual fails bimodule axioms: "
                               + str(axiom_bad[0]))
    return V
