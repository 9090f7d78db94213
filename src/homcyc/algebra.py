"""Hom-associative algebras given by structure constants.

An algebra is a triple (A, mu, alpha): a bilinear product encoded by the
tensor mu[i][j][k] (coefficient of e_k in e_i * e_j, i the left factor)
and a twisting endomorphism alpha encoded as a d x d matrix whose column
j is alpha(e_j).  As a linear map A (x) A -> A the product is the d x d^2
matrix `product_matrix`, whose column (a, b) is e_a e_b, and every
structure axiom is an equality of two composites of such matrices:
twisted associativity alpha(a)(bc) = (ab)alpha(c) is
mu (alpha (x) mu) = mu (mu (x) alpha), multiplicativity is
alpha mu = mu (alpha (x) alpha).  Both sides are exact matrices, and
`axiom_violations` reports each column where they differ as a
`Violation` at its basis tuple; bilinearity makes the basis tuples
sufficient.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from fractions import Fraction
from itertools import product as iproduct

from .linalg import (Matrix, Subspace, ZERO, ONE, block_matrix, image, kernel,
                     kron, restrict, scalar_from_string, scalar_to_string,
                     vanishes)
from .errors import ShapeError
from .records import Field, cached, record

MuTensor = tuple[tuple[tuple[Fraction, ...], ...], ...]


@record
class Violation:
    """One failed axiom instance, with both sides evaluated."""

    axiom: str
    indices: tuple[int, ...]
    lhs: tuple[Fraction, ...]
    rhs: tuple[Fraction, ...]

    def __str__(self):
        idx = ",".join(str(i + 1) for i in self.indices)
        return (f"{self.axiom} fails at ({idx}): "
                f"lhs={[scalar_to_string(x) for x in self.lhs]} "
                f"rhs={[scalar_to_string(x) for x in self.rhs]}")


def axiom_violations(families: Sequence[tuple]) -> list[Violation]:
    """Each family (axiom, lhs, rhs, slot sizes, report order) is an
    identity lhs = rhs of matrices whose column j is the basis tuple j,
    decoded big-endian over the slot sizes.  A Violation for each column
    where lhs and rhs differ, holding both columns and the tuple's slots
    in report order; sorted by those indices, then by family."""
    found = []
    for pos, (axiom, lhs, rhs, slots, order) in enumerate(families):
        if lhs == rhs:
            continue
        for j, idx in enumerate(iproduct(*map(range, slots))):
            left, right = lhs.col(j), rhs.col(j)
            if left != right:
                indices = tuple(idx[k] for k in order)
                found.append((indices, pos,
                              Violation(axiom, indices, left, right)))
    found.sort(key=lambda t: t[:2])
    return [v for _, _, v in found]


@record
class ValidationReport:
    valid: bool
    multiplicative: bool
    violations: tuple[Violation, ...] = ()


def _freeze_mu(mu) -> MuTensor:
    return tuple(tuple(tuple(Fraction(x) for x in row) for row in plane)
                 for plane in mu)


@record
class HomAlgebra:
    """Validated multiplicative Hom-associative algebra."""

    dim: int
    basis_names: tuple[str, ...]
    mu: MuTensor
    alpha: Matrix
    name: str = Field(default="", compare=False)

    @cached
    def product_matrix(self) -> Matrix:
        """mu as the d x d^2 matrix whose column (a, b) is e_a e_b."""
        return Matrix.from_columns(self.dim, [c for row in self.mu
                                              for c in row])

    def product(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """x y, as mu applied to x (x) y."""
        return self.product_matrix.apply([a * b for a in x for b in y])

    def apply_alpha(self, x: Sequence[Fraction]) -> tuple[Fraction, ...]:
        return self.alpha.apply(x)

    def basis_vector(self, i: int) -> tuple[Fraction, ...]:
        return tuple(ONE if k == i else ZERO for k in range(self.dim))

    def left_mult_matrix(self, x: Sequence[Fraction]) -> Matrix:
        return Matrix.from_columns(self.dim, [
            self.product(x, self.basis_vector(j)) for j in range(self.dim)])

    def right_mult_matrix(self, x: Sequence[Fraction]) -> Matrix:
        return Matrix.from_columns(self.dim, [
            self.product(self.basis_vector(j), x) for j in range(self.dim)])

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "dim": self.dim,
            "basis": list(self.basis_names),
            "mul": [[[scalar_to_string(c) for c in self.mu[i][j]]
                     for j in range(self.dim)] for i in range(self.dim)],
            "alpha": [[scalar_to_string(self.alpha[i, j])
                       for j in range(self.dim)] for i in range(self.dim)],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


def _is_grid(x, depth: int, dim: int) -> bool:
    """Whether x is a list of dim entries that are, below the top level,
    such lists again, depth levels in all."""
    return isinstance(x, list) and len(x) == dim and \
        (depth == 1 or all(_is_grid(y, depth - 1, dim) for y in x))


def raw_algebra_from_dict(data: dict) -> tuple[int, tuple[str, ...], MuTensor, Matrix, str]:
    """Parse and shape-check the algebra JSON format: an integer dim, a
    list of dim basis names, and mul and alpha as nested lists of
    scalars, dim x dim x dim and dim x dim."""
    try:
        dim = data["dim"]
        dim = int(dim) if isinstance(dim, str) else dim
        basis, mul, alpha = data["basis"], data["mul"], data["alpha"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ShapeError(f"malformed algebra data: {exc}") from exc
    name = str(data.get("name", ""))
    if type(dim) is not int:
        raise ShapeError(f"dim is not an integer: {dim!r}")
    if dim < 1:
        raise ShapeError("dim must be >= 1")
    if not _is_grid(basis, 1, dim):
        raise ShapeError("basis is not a list of dim names")
    if not _is_grid(mul, 3, dim):
        raise ShapeError("mul tensor is not dim x dim x dim")
    if not _is_grid(alpha, 2, dim):
        raise ShapeError("alpha matrix is not dim x dim")
    basis = tuple(str(b) for b in basis)
    try:
        mu = tuple(tuple(tuple(scalar_from_string(str(c)) for c in row)
                         for row in plane) for plane in mul)
        amat = Matrix.from_rows([[scalar_from_string(str(c)) for c in row]
                                 for row in alpha])
    except (ValueError, ZeroDivisionError) as exc:
        raise ShapeError(f"malformed scalar in algebra data: {exc}") from exc
    return dim, basis, mu, amat, name


def validate(dim: int, basis_names: Sequence[str], mu, alpha: Matrix,
             name: str = "") -> tuple[HomAlgebra | None, ValidationReport]:
    """Check Hom-associativity and multiplicativity as matrix identities,
    reporting each failing basis tuple.

    Returns (algebra, report); algebra is None when Hom-associativity
    fails.  Multiplicativity failures are reported but the algebra is
    still returned; the homology constructions require multiplicativity
    and re-check the flag they need.
    """
    if dim < 1:
        raise ShapeError("dim must be >= 1")
    if len(basis_names) != dim:
        raise ShapeError("basis names length != dim")
    mu = _freeze_mu(mu)
    if len(mu) != dim or any(len(p) != dim for p in mu) or \
            any(len(r) != dim for p in mu for r in p):
        raise ShapeError("mu tensor is not dim x dim x dim")
    if (alpha.rows, alpha.cols) != (dim, dim):
        raise ShapeError("alpha matrix is not dim x dim")

    cand = HomAlgebra(dim, tuple(basis_names), mu, alpha, name=name)
    m = cand.product_matrix
    violations = axiom_violations([
        ("hom-associativity", m @ kron(alpha, m), m @ kron(m, alpha),
         (dim,) * 3, (0, 1, 2))])
    mult_violations = axiom_violations([
        ("multiplicativity", alpha @ m, m @ kron(alpha, alpha), (dim, dim),
         (0, 1))])
    ok = not violations
    report = ValidationReport(valid=ok,
                              multiplicative=not mult_violations,
                              violations=tuple(violations + mult_violations))
    return (cand if ok else None), report


def validate_or_raise(dim, basis_names, mu, alpha, name="") -> HomAlgebra:
    alg, report = validate(dim, basis_names, mu, alpha, name)
    if alg is None or not report.multiplicative:
        lines = "\n".join(str(v) for v in report.violations[:10])
        raise ValueError(f"algebra '{name}' fails validation:\n{lines}")
    return alg


def load_algebra(path_or_dict) -> tuple[HomAlgebra | None, ValidationReport]:
    if isinstance(path_or_dict, dict):
        data = path_or_dict
    else:
        with open(path_or_dict) as fh:
            data = json.load(fh, parse_float=Fraction)  # exact, as written
    dim, basis, mu, alpha, name = raw_algebra_from_dict(data)
    return validate(dim, basis, mu, alpha, name)


def is_associative(A: HomAlgebra) -> bool:
    """mu (mu (x) Id) = mu (Id (x) mu)."""
    m, ident = A.product_matrix, Matrix.identity(A.dim)
    return vanishes((1, m, kron(m, ident)), (-1, m, kron(ident, m)))


def alpha_is_idempotent(A: HomAlgebra) -> bool:
    return vanishes((1, A.alpha, A.alpha),
                    (-1, Matrix.identity(A.dim), A.alpha))


def is_algebra_endomorphism(A: HomAlgebra, endo: Matrix) -> tuple[bool, list[Violation]]:
    """f mu = mu (f (x) f) (no twist-intertwining condition)."""
    m = A.product_matrix
    bad = axiom_violations([("algebra-endomorphism", endo @ m,
                             m @ kron(endo, endo), (A.dim, A.dim), (0, 1))])
    return not bad, bad


class NotAnAlgebraMapError(ValueError):
    pass


def yau_twist(assoc: HomAlgebra, endo: Matrix, name: str = "") -> HomAlgebra:
    """Twist an associative algebra (alpha = Id) by an endomorphism.

    New product mu_alpha = endo o mu, twist endo; the result is always a
    multiplicative Hom-associative algebra and is re-validated anyway.
    """
    if assoc.alpha != Matrix.identity(assoc.dim) or not is_associative(assoc):
        raise ValueError("yau_twist input must be associative with alpha = Id")
    ok, bad = is_algebra_endomorphism(assoc, endo)
    if not ok:
        raise NotAnAlgebraMapError(
            "endomorphism is not an algebra map: " + str(bad[0]))
    mu = tuple(tuple(endo.apply(assoc.mu[i][j]) for j in range(assoc.dim))
               for i in range(assoc.dim))
    return validate_or_raise(assoc.dim, assoc.basis_names, mu, endo,
                             name=name or (assoc.name + "_twisted"))


def find_unit(A: HomAlgebra) -> tuple[Fraction, ...] | None:
    """Solve u e_j = e_j = e_j u for all j; None when no unit exists.

    If the solution space is more than one-dimensional the algebra data
    is inconsistent (units are unique) and a ValueError is raised.
    """
    constraints: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    # unknowns u_0..u_{d-1}; conditions sum_i u_i (e_i e_j)_k = delta_{jk}
    for j in range(A.dim):
        for k in range(A.dim):
            constraints.append([A.mu[i][j][k] for i in range(A.dim)])
            rhs.append(ONE if j == k else ZERO)
            constraints.append([A.mu[j][i][k] for i in range(A.dim)])
            rhs.append(ONE if j == k else ZERO)
    # inhomogeneous solve via kernel of the augmented system
    aug = Matrix.from_rows([row + [-r] for row, r in zip(constraints, rhs)])
    sols = kernel(aug)
    units = []
    for v in sols.basis:
        if v[A.dim]:
            units.append(tuple(x / v[A.dim] for x in v[:A.dim]))
    if not units:
        return None
    if len(units) > 1 or any(v[A.dim] == 0 and any(v[:A.dim]) for v in sols.basis):
        raise ValueError("unit solution space has dimension > 1; "
                         "algebra data inconsistent")
    return units[0]


def is_centroid_element(A: HomAlgebra) -> tuple[bool, list[Violation]]:
    """alpha(x)y = x alpha(y) = alpha(xy): mu (alpha (x) Id) =
    mu (Id (x) alpha) = alpha mu."""
    m, alpha, ident = A.product_matrix, A.alpha, Matrix.identity(A.dim)
    x_alpha_y = m @ kron(ident, alpha)
    pair = (A.dim, A.dim)
    bad = axiom_violations([
        ("centroid alpha(x)y=xalpha(y)", m @ kron(alpha, ident), x_alpha_y,
         pair, (0, 1)),
        ("centroid xalpha(y)=alpha(xy)", x_alpha_y, alpha @ m, pair, (0, 1))])
    return not bad, bad


@record
class Decomposition:
    """A = A1 (+) A2 with the change of basis from the summand bases."""

    part_unital_associative: HomAlgebra
    part_complement: HomAlgebra
    basis_a1: tuple[tuple[Fraction, ...], ...]
    basis_a2: tuple[tuple[Fraction, ...], ...]

    @property
    def change_of_basis(self) -> Matrix:
        cols = list(self.basis_a1) + list(self.basis_a2)
        return Matrix.from_columns(len(cols[0]), cols)


class DecompositionError(ValueError):
    """x = alpha(1) fails to be a central idempotent: contradicts the
    unital characterization lemma, flagged rather than worked around."""


def _restrict_algebra(A: HomAlgebra, sub: Subspace, alpha_sub: Matrix | None,
                      name: str) -> HomAlgebra:
    """Algebra structure on an ideal, in its own RREF basis coordinates.

    alpha_sub: the restricted twist in subspace coordinates; computed by
    restriction when None.
    """
    mu = tuple(tuple(sub.coordinates(A.product(u, v)) for v in sub.basis)
               for u in sub.basis)
    if alpha_sub is None:
        alpha_sub = restrict(A.alpha, sub, sub)
    names = tuple(f"f{i+1}" for i in range(sub.dim))
    return validate_or_raise(sub.dim, names, mu, alpha_sub, name=name)


def unital_decompose(A: HomAlgebra) -> Decomposition:
    """Split a unital multiplicative algebra as A x (+) A(1-x), x = alpha(1)."""
    unit = find_unit(A)
    if unit is None:
        raise ValueError("algebra has no unit")
    x = A.apply_alpha(unit)
    if A.product(x, x) != x:
        raise DecompositionError("alpha(1) is not idempotent; contradicts "
                                 "the unital characterization")
    if A.left_mult_matrix(x) != A.right_mult_matrix(x):
        raise DecompositionError("alpha(1) is not central; contradicts "
                                 "the unital characterization")
    y = tuple(u - xi for u, xi in zip(unit, x))
    sub1 = image(A.right_mult_matrix(x))
    sub2 = image(A.right_mult_matrix(y))
    a1 = _restrict_algebra(A, sub1, None, name=A.name + "_A1")
    a2 = _restrict_algebra(A, sub2, None, name=A.name + "_A2")
    if not is_associative(a1):
        raise DecompositionError("A1 summand is not associative; contradicts "
                                 "the unital characterization")
    return Decomposition(a1, a2, sub1.basis, sub2.basis)


def idempotent_twist_decompose(A: HomAlgebra) -> tuple[HomAlgebra, HomAlgebra]:
    """For alpha idempotent: K = ker(alpha) with zero product, B = im(alpha).

    Also verifies the cross terms vanish: (k + b)(k' + b') = b b'.
    """
    if not alpha_is_idempotent(A):
        raise ValueError("twist is not idempotent (alpha^2 != alpha)")
    ker_sub = kernel(A.alpha)
    im_sub = image(A.alpha)
    K = Matrix.from_columns(A.dim, ker_sub.basis)
    KB = Matrix.from_columns(A.dim, ker_sub.basis + im_sub.basis)
    m = A.product_matrix
    if not (vanishes((1, m, kron(K, KB))) and vanishes((1, m, kron(KB, K)))):
        raise ValueError("kernel of alpha is not a square-zero ideal")
    k_alg = _restrict_algebra(A, ker_sub, Matrix.zero(ker_sub.dim, ker_sub.dim),
                              name=A.name + "_K") if ker_sub.dim else None
    b_alg = _restrict_algebra(A, im_sub, None, name=A.name + "_B") \
        if im_sub.dim else None
    if k_alg is None:
        k_alg = _zero_dim_placeholder(A.name + "_K")
    if b_alg is None:
        b_alg = _zero_dim_placeholder(A.name + "_B")
    return k_alg, b_alg


def _zero_dim_placeholder(name: str) -> HomAlgebra:
    # dim >= 1 is an invariant; a 1-dim zero algebra stands in for 0
    return validate_or_raise(1, ("z",),
                             (((ZERO,),),), Matrix.zero(1, 1), name=name)


def unitalize(A: HomAlgebra) -> tuple[HomAlgebra, Matrix]:
    """Embed A into a unital algebra on k[alpha]/(alpha^2-alpha) (+) A.

    Requires alpha in the centroid and alpha^2 = alpha (quotient model:
    the free polynomial algebra is infinite-dimensional, and is
    multiplicative only under alpha^2 = alpha, so the 2-dimensional
    quotient is the minimal finite model).  Returns (B, embedding).
    """
    ok, bad = is_centroid_element(A)
    if not ok:
        raise ValueError("alpha is not in the centroid: " + str(bad[0]))
    if not alpha_is_idempotent(A):
        raise ValueError("alpha^2 != alpha; quotient model unavailable")
    d = A.dim
    n = d + 2  # basis: 1, abar, e_1..e_d
    names = ("one", "abar") + tuple(A.basis_names)

    def embed(vec):
        return (ZERO, ZERO) + tuple(vec)

    def poly_action(p0, p1, vec):
        # (p0 + p1*abar) acting on A via abar -> alpha
        av = A.apply_alpha(vec)
        return tuple(p0 * x + p1 * y for x, y in zip(vec, av))

    def product(u, v):
        p0, p1, a = u[0], u[1], u[2:]
        q0, q1, b = v[0], v[1], v[2:]
        # (p + a)(q + b) = pq + q(alpha)(a) + p(alpha)(b) + ab
        r0 = p0 * q0
        r1 = p0 * q1 + p1 * q0 + p1 * q1  # abar^2 = abar
        avec = [x + y + z for x, y, z in zip(poly_action(q0, q1, a),
                                             poly_action(p0, p1, b),
                                             A.product(a, b))]
        return (r0, r1) + tuple(avec)

    basis = [tuple(ONE if k == i else ZERO for k in range(n)) for i in range(n)]
    mu = tuple(tuple(product(basis[i], basis[j]) for j in range(n))
               for i in range(n))
    # beta: 1 -> abar, abar -> abar, restricted to A it is alpha
    beta_cols = [basis[1], basis[1]] + \
        [embed(A.apply_alpha(A.basis_vector(j))) for j in range(d)]
    beta = Matrix.from_columns(n, beta_cols)
    B = validate_or_raise(n, names, mu, beta, name=A.name + "_unitalized")
    if find_unit(B) is None:
        raise ValueError("unitalization failed to produce a unit")
    emb_cols = [embed(A.basis_vector(j)) for j in range(d)]
    embedding = Matrix.from_columns(n, emb_cols)
    ok, bad = validate_morphism(AlgebraMorphism(A, B, embedding))
    if not ok:
        raise ValueError("embedding is not a morphism: " + str(bad[0]))
    return B, embedding


def direct_sum(A: HomAlgebra, B: HomAlgebra, name: str = "") -> HomAlgebra:
    d = A.dim + B.dim
    names = tuple(f"a_{s}" for s in A.basis_names) + \
        tuple(f"b_{s}" for s in B.basis_names)
    za, zb = (ZERO,) * A.dim, (ZERO,) * B.dim
    mu = [[A.mu[i][j] + zb for j in range(A.dim)] + [za + zb] * B.dim
          for i in range(A.dim)] + \
        [[za + zb] * A.dim + [za + B.mu[i][j] for j in range(B.dim)]
         for i in range(B.dim)]
    alpha = block_matrix(d, d, [(A.alpha, 0, 0), (B.alpha, A.dim, A.dim)])
    return validate_or_raise(d, names, mu, alpha,
                             name=name or f"{A.name}+{B.name}")


@record
class AlgebraMorphism:
    source: HomAlgebra
    target: HomAlgebra
    matrix: Matrix


def validate_morphism(f: AlgebraMorphism) -> tuple[bool, list[Violation]]:
    """f mu_src = mu_tgt (f (x) f), then f alpha_src = alpha_tgt f."""
    A, B, m = f.source, f.target, f.matrix
    if (m.rows, m.cols) != (B.dim, A.dim):
        raise ShapeError("morphism matrix shape mismatch")
    bad = axiom_violations([
        ("morphism-product", m @ A.product_matrix,
         B.product_matrix @ kron(m, m), (A.dim, A.dim), (0, 1))])
    bad += axiom_violations([
        ("morphism-twist", m @ A.alpha, B.alpha @ m, (A.dim,), (0,))])
    return not bad, bad
