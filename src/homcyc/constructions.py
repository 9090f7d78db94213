"""Derived constructions on Hom-algebras, and the reports of the
commands that print them.

The Yau twist and the direct sum; the two splittings of an algebra with
a singular twist (`unital_decompose`, `idempotent_twist_decompose`);
the unitalization; and the A-degree dual `a_circ`.  Each is built from
the structure constants and re-validated, so what it returns is a
checked algebra or bimodule.  `Decomposition` and `RestrictedDual`
render the `decompose` and `dual-space` output.  Each name here is
imported from this module or from the package.

No homology computation uses this module, so it is apart from
`algebra`, which every request loads: only `twist`, `decompose` and
`dual-space` requests, `corpus` and the package's first lookup import
it.  The unit and the centroid test, which `check` reports, stay in
`algebra`.  `a_circ` imports `coefficients` when it runs, so that
`twist` and `decompose` compile no bimodule code; `Bimodule` in an
annotation is `coefficients.Bimodule`, named and not imported.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .algebra import (AlgebraMorphism, HomAlgebra, Violation,
                      alpha_is_idempotent, axiom_violations, find_unit,
                      is_associative, is_centroid_element, refuse,
                      validate_morphism, validate_or_raise)
from .errors import (CoefficientError, DecompositionError,
                     IdentityViolationError, NotAnAlgebraMapError,
                     NotASubspaceError, PreconditionError)
from .linalg import (Matrix, Subspace, ZERO, ONE, block_matrix, image, kernel,
                     kron, restrict, vanishes)
from .records import record


def is_algebra_endomorphism(A: HomAlgebra, endo: Matrix) -> tuple[bool, list[Violation]]:
    """f mu = mu (f (x) f) (no twist-intertwining condition)."""
    m = A.product_matrix
    bad = axiom_violations([("algebra-endomorphism", endo @ m,
                             m @ kron(endo, endo), (A.dim, A.dim), (0, 1))])
    return not bad, bad


def yau_twist(assoc: HomAlgebra, endo: Matrix, name: str = "") -> HomAlgebra:
    """Twist an associative algebra (alpha = Id) by an endomorphism.

    New product mu_alpha = endo o mu, twist endo; the result is always a
    multiplicative Hom-associative algebra and is re-validated anyway.
    """
    if assoc.alpha != Matrix.identity(assoc.dim) or not is_associative(assoc):
        raise PreconditionError(
            "yau_twist input must be associative with alpha = Id")
    refuse(is_algebra_endomorphism(assoc, endo)[1], NotAnAlgebraMapError,
           "endomorphism is not an algebra map")
    mu = tuple(tuple(endo.apply(assoc.mu[i][j]) for j in range(assoc.dim))
               for i in range(assoc.dim))
    return validate_or_raise(assoc.dim, assoc.basis_names, mu, endo,
                             name=name or (assoc.name + "_twisted"))


@record
class Decomposition:
    """A = A1 (+) A2 with the change of basis from the summand bases; a
    zero summand is None, with an empty basis."""

    part_unital_associative: HomAlgebra | None
    part_complement: HomAlgebra | None
    basis_a1: tuple[tuple[Fraction, ...], ...]
    basis_a2: tuple[tuple[Fraction, ...], ...]

    @property
    def change_of_basis(self) -> Matrix:
        cols = list(self.basis_a1) + list(self.basis_a2)
        return Matrix.from_columns(len(cols[0]), cols)

    def to_json_dict(self, name: str) -> dict:
        """The `decompose` payload; `name` is A's."""
        a1, a2 = self.part_unital_associative, self.part_complement
        return {
            "algebra": name,
            # a zero summand is null, with an empty basis
            "A1": None if a1 is None else a1.to_json_dict(),
            "A2": None if a2 is None else a2.to_json_dict(),
            "basis_A1": [[str(x) for x in v] for v in self.basis_a1],
            "basis_A2": [[str(x) for x in v] for v in self.basis_a2],
        }

    def to_text(self, name: str) -> str:
        return (f"{name} = A1 (+) A2 with dim A1 = {len(self.basis_a1)}, "
                f"dim A2 = {len(self.basis_a2)}; A1 unital associative")


def _restrict_algebra(A: HomAlgebra, sub: Subspace,
                      name: str) -> HomAlgebra | None:
    """Algebra structure on an ideal, in its own RREF basis coordinates;
    None for the zero ideal, since an algebra has dim >= 1."""
    if not sub.dim:
        return None
    mu = tuple(tuple(sub.coordinates(A.product(u, v)) for v in sub.basis)
               for u in sub.basis)
    names = tuple(f"f{i+1}" for i in range(sub.dim))
    return validate_or_raise(sub.dim, names, mu, restrict(A.alpha, sub, sub),
                             name=name)


def unital_decompose(A: HomAlgebra) -> Decomposition:
    """Split a unital multiplicative algebra as A x (+) A(1-x), x = alpha(1)."""
    unit = find_unit(A)
    if unit is None:
        raise PreconditionError("algebra has no unit")
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
    a1 = _restrict_algebra(A, sub1, name=A.name + "_A1")
    a2 = _restrict_algebra(A, sub2, name=A.name + "_A2")
    if a1 is not None and not is_associative(a1):
        raise DecompositionError("A1 summand is not associative; contradicts "
                                 "the unital characterization")
    return Decomposition(a1, a2, sub1.basis, sub2.basis)


def idempotent_twist_decompose(A: HomAlgebra
                               ) -> tuple[HomAlgebra | None, HomAlgebra | None]:
    """For alpha idempotent: K = ker(alpha) with zero product and zero
    twist, B = im(alpha); a zero summand is None.

    Also verifies the cross terms vanish: (k + b)(k' + b') = b b'.
    PreconditionError where alpha^2 != alpha or that fails.
    """
    if not alpha_is_idempotent(A):
        raise PreconditionError("twist is not idempotent (alpha^2 != alpha)")
    ker_sub = kernel(A.alpha)
    im_sub = image(A.alpha)
    K = Matrix.from_columns(A.dim, ker_sub.basis)
    KB = Matrix.from_columns(A.dim, ker_sub.basis + im_sub.basis)
    m = A.product_matrix
    if not (vanishes((1, m, kron(K, KB))) and vanishes((1, m, kron(KB, K)))):
        raise PreconditionError("kernel of alpha is not a square-zero ideal")
    return (_restrict_algebra(A, ker_sub, name=A.name + "_K"),
            _restrict_algebra(A, im_sub, name=A.name + "_B"))


def unitalize(A: HomAlgebra) -> tuple[HomAlgebra, Matrix]:
    """Embed A into a unital algebra on k[alpha]/(alpha^2-alpha) (+) A.

    Requires alpha in the centroid and alpha^2 = alpha (quotient model:
    the free polynomial algebra is infinite-dimensional, and is
    multiplicative only under alpha^2 = alpha, so the 2-dimensional
    quotient is the minimal finite model): PreconditionError otherwise.
    Returns (B, embedding); IdentityViolationError if B has no unit or
    the embedding is not a morphism.
    """
    refuse(is_centroid_element(A)[1], PreconditionError,
           "alpha is not in the centroid")
    if not alpha_is_idempotent(A):
        raise PreconditionError("alpha^2 != alpha; quotient model unavailable")
    d, n = A.dim, A.dim + 2  # basis: 1, abar, e_1..e_d
    names = ("one", "abar") + A.basis_names
    one, abar = (ONE, ZERO) + (ZERO,) * d, (ZERO, ONE) + (ZERO,) * d
    e = [(ZERO, ZERO) + A.basis_vector(j) for j in range(d)]
    alpha_e = [(ZERO, ZERO) + A.alpha.col(j) for j in range(d)]
    # 1 is the unit, abar abar = abar, abar e_j = e_j abar = alpha(e_j),
    # and e_i e_j is A's product
    mu = [[one, abar, *e], [abar, abar, *alpha_e]] + \
        [[e[i], alpha_e[i], *((ZERO, ZERO) + A.mu[i][j] for j in range(d))]
         for i in range(d)]
    beta = Matrix.from_columns(n, mu[1])  # beta(x) = abar x
    B = validate_or_raise(n, names, mu, beta, name=A.name + "_unitalized")
    if find_unit(B) is None:
        raise IdentityViolationError("unitalization failed to produce a unit")
    embedding = Matrix.from_columns(n, e)
    refuse(validate_morphism(AlgebraMorphism(A, B, embedding))[1],
           IdentityViolationError, "embedding is not a morphism")
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
class RestrictedDual:
    """A-degree dual: subspace of A* with its induced bimodule structure."""

    subspace: Subspace
    bimodule: Bimodule

    def to_json_dict(self) -> dict:
        sub = self.subspace
        return {
            "algebra": self.bimodule.algebra.name,
            "ambient_dim": sub.ambient_dim,
            "dim": sub.dim,
            "basis": [[str(x) for x in v] for v in sub.basis],
        }

    def to_text(self) -> str:
        return (f"restricted dual of {self.bimodule.algebra.name}: dimension "
                f"{self.subspace.dim} of {self.subspace.ambient_dim}")


def solve_homogeneous(constraints: Sequence[Sequence[Fraction]],
                      ambient_dim: int) -> Subspace:
    """Common null space of a list of linear functionals on Q^ambient_dim,
    each a vector of its ambient_dim coefficients."""
    return kernel(Matrix.from_columns(ambient_dim, constraints).transpose())


def a_circ(A: HomAlgebra) -> RestrictedDual:
    """The subspace {f : f(x alpha(y)) = f(alpha(xy)) = f(alpha(x)y)} of A*
    with actions (a.f)(b) = f(b alpha(a)), (f.a)(b) = f(alpha(a) b), beta = Id.
    """
    from .coefficients import Bimodule, check_bimodule_axioms
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
    refuse(check_bimodule_axioms(V), CoefficientError,
           "restricted dual fails bimodule axioms")
    return RestrictedDual(sub, V)
