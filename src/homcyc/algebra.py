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
sufficient.  A construction refuses such data by `refuse`, naming the
first.  The unit and the centroid test are here, since `check`
reports them; what is built from a valid algebra (its Yau twists,
direct sums and splittings) is in `constructions`.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from collections.abc import Sequence
from fractions import Fraction
from itertools import product as iproduct

from .linalg import Matrix, ZERO, ONE, kernel, kron, vanishes
from .errors import ShapeError, ValidationError
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
                f"lhs={list(map(_written, self.lhs))} "
                f"rhs={list(map(_written, self.rhs))}")


def _written(x: Fraction) -> str:
    """str(x), with a numerator or denominator that has more digits than
    an int prints with (`sys.get_int_max_str_digits()`) written as its
    digit count: "-<5001 digits>/3"."""
    parts = [abs(x.numerator)] + [x.denominator] * (x.denominator > 1)
    return "-" * (x < 0) + "/".join(map(_natural_written, parts))


def _natural_written(n: int) -> str:
    """str(n) for n > 0, or "<d digits>" where str would raise: d is the
    logarithm's estimate, off by at most one, corrected."""
    try:
        return str(n)
    except ValueError:
        d = int(math.log10(n)) + 1
        return f"<{d - (10 ** (d - 1) > n) + (10 ** d <= n)} digits>"


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


def refuse(violations: Sequence[Violation], error: type[Exception],
           what: str) -> None:
    """Raise error("what: <first violation>") if there is one: how a
    construction refuses data that fail the axioms it checks."""
    if violations:
        raise error(f"{what}: {violations[0]}")


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
            "mul": [[[str(c) for c in self.mu[i][j]]
                     for j in range(self.dim)] for i in range(self.dim)],
            "alpha": [[str(self.alpha[i, j])
                       for j in range(self.dim)] for i in range(self.dim)],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


# a scalar as written: p/q, or digits with a decimal point and exponent
_LITERAL = re.compile(r"[-+]?(\d*)(?:/(\d+)|\.?(\d*)(?:e([-+]?\d+))?)", re.I)


def scalar_from_string(s: str) -> Fraction:
    """The scalar that s writes, exactly: "p/q" (q omitted when 1) or a
    decimal such as "1.5e-3".  ValueError, before any int is built, if p
    or q, or the decimal's digits times 10^n as a fraction, would have
    more digits than `sys.get_int_max_str_digits()` lets an int print."""
    m = _LITERAL.fullmatch(s.strip().replace("_", ""))
    if m and (limit := sys.get_int_max_str_digits()):
        num, den, frac, exp = m.groups("")
        n = int(exp or 0) - len(frac)
        if max(len(num + frac) + max(n, 0), len(den), 1 - n) > limit:
            raise ValueError(f"scalar {s[:20]}... has over {limit} digits")
    return Fraction(s)


def read_json(path: str):
    """The JSON value in path, each number read by `scalar_from_string`
    (1e400 is 10^400, 0.1 is 1/10); ShapeError if it is not such JSON."""
    try:
        with open(path) as fh:
            return json.load(fh, parse_float=scalar_from_string,
                             parse_int=lambda s: int(scalar_from_string(s)))
    except (RecursionError, ValueError) as exc:  # nested too deep, not JSON
        raise ShapeError(f"{path}: {exc}") from None


def read_grid(x, shape: Sequence[int | None], what: str) -> tuple:
    """x, a JSON list nested len(shape) deep with shape[k] entries at
    depth k (any number where shape[k] is None), as nested tuples of its
    entries read by `scalar_from_string`; ShapeError naming what for
    anything else."""
    def read(y, depth):
        if depth == len(shape):
            try:
                return scalar_from_string(str(y))
            except (ValueError, ZeroDivisionError) as exc:
                raise ShapeError(f"malformed scalar in {what}: {exc}") \
                    from None
        if type(y) is not list or shape[depth] not in (None, len(y)):
            dims = " x ".join("n" if k is None else str(k) for k in shape)
            raise ShapeError(f"{what} is not a list of scalars of shape {dims}")
        return tuple(read(z, depth + 1) for z in y)
    return read(x, 0)


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
    if type(basis) is not list or len(basis) != dim:
        raise ShapeError("basis is not a list of dim names")
    return (dim, tuple(str(b) for b in basis),
            read_grid(mul, (dim,) * 3, "mul"),
            Matrix.from_rows(read_grid(alpha, (dim, dim), "alpha")), name)


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


def require_valid(alg: HomAlgebra | None, report: ValidationReport,
                  name: str) -> HomAlgebra:
    """alg, when `validate` found it Hom-associative and multiplicative;
    otherwise a one-line ValidationError naming the algebra, its first
    violation and the number of violations."""
    if alg is None or not report.multiplicative:
        first, count = report.violations[0], len(report.violations)
        raise ValidationError(f"algebra '{name}' fails validation: {first} "
                              f"({count} violations)")
    return alg


def validate_or_raise(dim, basis_names, mu, alpha, name="") -> HomAlgebra:
    return require_valid(*validate(dim, basis_names, mu, alpha, name), name)


def load_algebra(path_or_dict) -> tuple[HomAlgebra | None, ValidationReport]:
    """`validate` of the algebra in a dict, or in the JSON file at a
    path; ShapeError for any other argument."""
    if isinstance(path_or_dict, dict):
        data = path_or_dict
    elif isinstance(path_or_dict, (str, bytes, os.PathLike)):
        data = read_json(path_or_dict)
    else:
        raise ShapeError("an algebra is a dict or a path, not a "
                         f"{type(path_or_dict).__name__}")
    dim, basis, mu, alpha, name = raw_algebra_from_dict(data)
    return validate(dim, basis, mu, alpha, name)


def is_associative(A: HomAlgebra) -> bool:
    """mu (mu (x) Id) = mu (Id (x) mu)."""
    m, ident = A.product_matrix, Matrix.identity(A.dim)
    return vanishes((1, m, kron(m, ident)), (-1, m, kron(ident, m)))


def alpha_is_idempotent(A: HomAlgebra) -> bool:
    return vanishes((1, A.alpha, A.alpha),
                    (-1, Matrix.identity(A.dim), A.alpha))


def find_unit(A: HomAlgebra) -> tuple[Fraction, ...] | None:
    """Solve u e_j = e_j = e_j u for all j; None when no unit exists.

    The solutions (u, 1) span the kernel of the augmented system with
    (x, 0), where x e_j = e_j x = 0 for all j.  A unit leaves no such
    nonzero x (x = x u), so where one exists the kernel is its line.
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
    aug = Matrix.from_rows([row + [-r] for row, r in zip(constraints, rhs)])
    for v in kernel(aug).basis:
        if v[A.dim]:
            return tuple(x / v[A.dim] for x in v[:A.dim])
    return None


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

