"""The standing test corpus of small algebras.

Every algebra here is validated at construction time; the suite runs the
operator identities and both cyclic constructions over this list.
"""

from __future__ import annotations

from .algebra import (HomAlgebra, direct_sum, validate_or_raise, yau_twist)
from .linalg import Matrix


def two_dim_unital() -> HomAlgebra:
    """dim 2: e1 e1 = e1, all other products e2; alpha(e1) = e1 - e2,
    alpha(e2) = 0.  Unital with unit e1, multiplicative, alpha^2 = alpha."""
    mu = [
        [[1, 0], [0, 1]],   # e1 e1 = e1, e1 e2 = e2
        [[0, 1], [0, 1]],   # e2 e1 = e2, e2 e2 = e2
    ]
    alpha = Matrix.from_rows([[1, 0], [-1, 0]])
    return validate_or_raise(2, ("e1", "e2"), mu, alpha, name="two_dim_unital")


def ground_field() -> HomAlgebra:
    """k itself: dim 1, e e = e, alpha = Id."""
    return validate_or_raise(1, ("e",), [[[1]]], Matrix.identity(1),
                             name="ground_field")


def k2() -> HomAlgebra:
    """dim 1 with e e = e but alpha = 0; Hochschild homology is k in
    every degree."""
    return validate_or_raise(1, ("e",), [[[1]]], Matrix.zero(1, 1), name="k2")


def k1_plus_k2() -> HomAlgebra:
    return direct_sum(ground_field(), k2(), name="k1+k2")


def k_times_k() -> HomAlgebra:
    """k x k, associative, alpha = Id."""
    mu = [
        [[1, 0], [0, 0]],
        [[0, 0], [0, 1]],
    ]
    return validate_or_raise(2, ("u", "v"), mu, Matrix.identity(2),
                             name="k_times_k")


def k_times_k_swap_twist() -> HomAlgebra:
    """Twist of k x k by the swap automorphism (invertible, not idempotent)."""
    swap = Matrix.from_rows([[0, 1], [1, 0]])
    return yau_twist(k_times_k(), swap, name="k_times_k_swapped")


def dual_numbers() -> HomAlgebra:
    """k[x]/(x^2) with basis {1, x}, associative, alpha = Id."""
    mu = [
        [[1, 0], [0, 1]],
        [[0, 1], [0, 0]],
    ]
    return validate_or_raise(2, ("one", "x"), mu, Matrix.identity(2),
                             name="dual_numbers")


def dual_numbers_projection_twist() -> HomAlgebra:
    """Twist of k[x]/(x^2) by the idempotent endomorphism x -> 0."""
    proj = Matrix.from_rows([[1, 0], [0, 0]])
    return yau_twist(dual_numbers(), proj, name="dual_numbers_twisted")


def k_times_k_projection_twist() -> HomAlgebra:
    """Twist of k x k by the projection onto the first factor."""
    proj = Matrix.from_rows([[1, 0], [0, 0]])
    return yau_twist(k_times_k(), proj, name="k_times_k_projected")


def truncated_polynomials() -> HomAlgebra:
    """k[x]/(x^3) with basis {1, x, x^2}, associative, alpha = Id."""
    return truncated_polynomial_algebra(3)


def truncated_polynomial_algebra(m: int) -> HomAlgebra:
    """k[x]/(x^m) with basis one, x, xx, ..., associative, alpha = Id.
    Over Q, HH_0 = m, HH_n = m - 1 for n >= 1, HC_2i = m and HC odd = 0
    (Buenos Aires Cyclic Homology Group, 1991)."""
    mu = [[[int(k == i + j) for k in range(m)] for j in range(m)]
          for i in range(m)]
    return validate_or_raise(
        m, tuple("x" * i or "one" for i in range(m)), mu, Matrix.identity(m),
        name=f"trunc_poly{m}")


def cyclic_group_algebra(m: int) -> HomAlgebra:
    """k[C_m] with basis g0, ..., g(m-1), g_i g_j = g_(i+j mod m),
    alpha = Id.  Over Q, HH_0 = m, HH_n = 0 for n > 0 and HC_2i = m,
    HC odd = 0 (Burghelea, 1985)."""
    mu = [[[int(k == (i + j) % m) for k in range(m)] for j in range(m)]
          for i in range(m)]
    return validate_or_raise(m, tuple(f"g{i}" for i in range(m)), mu,
                             Matrix.identity(m), name=f"kC{m}")


def _matrix_units(units: list[tuple[int, int]], name: str) -> HomAlgebra:
    """The span of the matrix units E_ab for (a, b) in units, a subalgebra
    of the matrices, E_ab E_ce = E_ae when b = c, else 0; alpha = Id."""
    mu = [[[int(b == c and (a, e) == u) for u in units] for c, e in units]
          for a, b in units]
    return validate_or_raise(
        len(units), tuple(f"E{a + 1}{b + 1}" for a, b in units), mu,
        Matrix.identity(len(units)), name=name)


def upper_triangular_algebra() -> HomAlgebra:
    """T_2, the upper-triangular 2x2 matrices (E11, E12, E22), alpha = Id.
    Over Q, HH_0 = 2, HH_n = 0 for n > 0, HC_2i = 2 and HC odd = 0."""
    return _matrix_units([(0, 0), (0, 1), (1, 1)], "T2")


def matrix_2x2() -> HomAlgebra:
    """2x2 matrices over k, basis (E11, E12, E21, E22), alpha = Id."""
    return _matrix_units([(0, 0), (0, 1), (1, 0), (1, 1)], "mat2")


def standard_corpus() -> list[HomAlgebra]:
    """The five algebras the acceptance suite crosses every check over."""
    return [
        two_dim_unital(),
        ground_field(),
        k2(),
        k1_plus_k2(),
        dual_numbers_projection_twist(),
    ]
