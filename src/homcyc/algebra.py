"""Hom-associative algebras given by structure constants.

An algebra is a triple (A, mu, alpha): a bilinear product encoded by the
tensor mu[i][j][k] (coefficient of e_k in e_i * e_j, i the left factor)
and a twisting endomorphism alpha encoded as a d x d matrix whose column
j is alpha(e_j).  Validation checks twisted associativity
alpha(a)(bc) = (ab)alpha(c) and multiplicativity alpha(ab) = alpha(a)alpha(b)
on basis elements; bilinearity makes the basis checks sufficient.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .linalg import (Matrix, Subspace, ZERO, ONE, image, kernel, restrict,
                     scalar_from_string, scalar_to_string, solve_homogeneous)

MuTensor = tuple[tuple[tuple[Fraction, ...], ...], ...]


class ShapeError(ValueError):
    """Raised when raw algebra data has inconsistent tensor shapes."""


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    multiplicative: bool
    violations: tuple[Violation, ...] = ()


def _freeze_mu(mu) -> MuTensor:
    return tuple(tuple(tuple(Fraction(x) for x in row) for row in plane)
                 for plane in mu)


@dataclass(frozen=True)
class HomAlgebra:
    """Validated multiplicative Hom-associative algebra."""

    dim: int
    basis_names: tuple[str, ...]
    mu: MuTensor
    alpha: Matrix
    name: str = field(default="", compare=False)

    def product(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> tuple[Fraction, ...]:
        out = [ZERO] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                for k, c in enumerate(self.mu[i][j]):
                    if c:
                        out[k] += xi * yj * c
        return tuple(out)

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


def raw_algebra_from_dict(data: dict) -> tuple[int, tuple[str, ...], MuTensor, Matrix, str]:
    """Parse and shape-check the algebra JSON format."""
    try:
        dim = int(data["dim"])
        basis = tuple(str(b) for b in data["basis"])
        mul = data["mul"]
        alpha = data["alpha"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ShapeError(f"malformed algebra data: {exc}") from exc
    name = str(data.get("name", ""))
    if dim < 1:
        raise ShapeError("dim must be >= 1")
    if len(basis) != dim:
        raise ShapeError("basis names length != dim")
    if len(mul) != dim or any(len(p) != dim for p in mul) or \
            any(len(r) != dim for p in mul for r in p):
        raise ShapeError("mul tensor is not dim x dim x dim")
    if len(alpha) != dim or any(len(r) != dim for r in alpha):
        raise ShapeError("alpha matrix is not dim x dim")
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
    """Check Hom-associativity and multiplicativity on all basis tuples.

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
    violations: list[Violation] = []
    for a in range(dim):
        ea = cand.basis_vector(a)
        for b in range(dim):
            eb = cand.basis_vector(b)
            for c in range(dim):
                ec = cand.basis_vector(c)
                lhs = cand.product(cand.apply_alpha(ea), cand.product(eb, ec))
                rhs = cand.product(cand.product(ea, eb), cand.apply_alpha(ec))
                if lhs != rhs:
                    violations.append(Violation("hom-associativity",
                                                (a, b, c), lhs, rhs))
    mult_violations: list[Violation] = []
    for a in range(dim):
        ea = cand.basis_vector(a)
        for b in range(dim):
            eb = cand.basis_vector(b)
            lhs = cand.apply_alpha(cand.product(ea, eb))
            rhs = cand.product(cand.apply_alpha(ea), cand.apply_alpha(eb))
            if lhs != rhs:
                mult_violations.append(Violation("multiplicativity",
                                                 (a, b), lhs, rhs))
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
            data = json.load(fh)
    dim, basis, mu, alpha, name = raw_algebra_from_dict(data)
    return validate(dim, basis, mu, alpha, name)


def is_associative(A: HomAlgebra) -> bool:
    for a in range(A.dim):
        for b in range(A.dim):
            ab = A.mu[a][b]
            for c in range(A.dim):
                lhs = A.product(ab, A.basis_vector(c))
                rhs = A.product(A.basis_vector(a), A.mu[b][c])
                if lhs != rhs:
                    return False
    return True


def alpha_is_idempotent(A: HomAlgebra) -> bool:
    return (A.alpha @ A.alpha) == A.alpha


def is_algebra_endomorphism(A: HomAlgebra, endo: Matrix) -> tuple[bool, list[Violation]]:
    """f(xy) = f(x)f(y) on basis pairs (no twist-intertwining condition)."""
    bad = []
    for a in range(A.dim):
        for b in range(A.dim):
            lhs = endo.apply(A.mu[a][b])
            rhs = A.product(endo.apply(A.basis_vector(a)),
                            endo.apply(A.basis_vector(b)))
            if lhs != rhs:
                bad.append(Violation("algebra-endomorphism", (a, b), lhs, rhs))
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
    """alpha(x)y = x alpha(y) = alpha(xy) on all basis pairs."""
    bad = []
    for a in range(A.dim):
        ea = A.basis_vector(a)
        aa = A.apply_alpha(ea)
        for b in range(A.dim):
            eb = A.basis_vector(b)
            ab = A.apply_alpha(eb)
            s1 = A.product(aa, eb)
            s2 = A.product(ea, ab)
            s3 = A.apply_alpha(A.mu[a][b])
            if s1 != s2:
                bad.append(Violation("centroid alpha(x)y=xalpha(y)", (a, b), s1, s2))
            if s2 != s3:
                bad.append(Violation("centroid xalpha(y)=alpha(xy)", (a, b), s2, s3))
    return not bad, bad


@dataclass(frozen=True)
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
    for j in range(A.dim):
        ej = A.basis_vector(j)
        if A.product(x, ej) != A.product(ej, x):
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
    for u in ker_sub.basis:
        for v in ker_sub.basis + im_sub.basis:
            if any(A.product(u, v)) or any(A.product(v, u)):
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
    # embedding must be a morphism of Hom-algebras
    for i in range(d):
        for j in range(d):
            lhs = embedding.apply(A.mu[i][j])
            rhs = B.product(embedding.apply(A.basis_vector(i)),
                            embedding.apply(A.basis_vector(j)))
            if lhs != rhs:
                raise ValueError("embedding does not preserve products")
    if (beta @ embedding) != (embedding @ A.alpha):
        raise ValueError("embedding does not intertwine the twists")
    return B, embedding


def direct_sum(A: HomAlgebra, B: HomAlgebra, name: str = "") -> HomAlgebra:
    d = A.dim + B.dim
    names = tuple(f"a_{s}" for s in A.basis_names) + \
        tuple(f"b_{s}" for s in B.basis_names)
    mu = []
    for i in range(d):
        row = []
        for j in range(d):
            if i < A.dim and j < A.dim:
                row.append(tuple(A.mu[i][j]) + (ZERO,) * B.dim)
            elif i >= A.dim and j >= A.dim:
                row.append((ZERO,) * A.dim + tuple(B.mu[i - A.dim][j - A.dim]))
            else:
                row.append((ZERO,) * d)
        mu.append(tuple(row))
    alpha_rows = []
    for i in range(d):
        if i < A.dim:
            alpha_rows.append(list(A.alpha.row(i)) + [ZERO] * B.dim)
        else:
            alpha_rows.append([ZERO] * A.dim + list(B.alpha.row(i - A.dim)))
    return validate_or_raise(d, names, tuple(mu), Matrix.from_rows(alpha_rows),
                             name=name or f"{A.name}+{B.name}")


@dataclass(frozen=True)
class AlgebraMorphism:
    source: HomAlgebra
    target: HomAlgebra
    matrix: Matrix


def validate_morphism(f: AlgebraMorphism) -> tuple[bool, list[Violation]]:
    """f(xy) = f(x)f(y) and f o alpha_src = alpha_tgt o f on the basis."""
    A, B, m = f.source, f.target, f.matrix
    if (m.rows, m.cols) != (B.dim, A.dim):
        raise ShapeError("morphism matrix shape mismatch")
    bad = []
    for a in range(A.dim):
        for b in range(A.dim):
            lhs = m.apply(A.mu[a][b])
            rhs = B.product(m.apply(A.basis_vector(a)),
                            m.apply(A.basis_vector(b)))
            if lhs != rhs:
                bad.append(Violation("morphism-product", (a, b), lhs, rhs))
    if (m @ A.alpha) != (B.alpha @ m):
        for a in range(A.dim):
            lhs = m.apply(A.apply_alpha(A.basis_vector(a)))
            rhs = B.alpha.apply(m.apply(A.basis_vector(a)))
            if lhs != rhs:
                bad.append(Violation("morphism-twist", (a,), lhs, rhs))
    return not bad, bad
