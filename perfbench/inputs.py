"""Seeded inputs: corpus algebras, transported copies in dense integer
bases, and the JSON files the CLI requests read.

A change of basis is drawn as P = L U with L unit lower triangular and U
unit upper triangular, every off-diagonal entry in {-2, -1, 1, 2}; so
det P = 1 and P^-1 is integral.  The transported algebra has structure
constants mu'(f_a, f_b) = P^-1 mu(P e_a, P e_b) and twist P^-1 alpha P,
and x -> P^-1 x is an isomorphism from the original onto it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import homcyc
from homcyc import corpus

OFF_DIAGONAL = (-2, -1, 1, 2)
MAX_DRAWS = 200

# name -> constructor, in the order every workload builds them
CORPUS = {
    "two_dim_unital": corpus.two_dim_unital,
    "ground_field": corpus.ground_field,
    "k2": corpus.k2,
    "k1+k2": corpus.k1_plus_k2,
    "dual_numbers_twisted": corpus.dual_numbers_projection_twist,
    "dual_numbers": corpus.dual_numbers,
    "trunc_poly3": corpus.truncated_polynomials,
    "mat2": corpus.matrix_2x2,
}

# the 2-, 3- and 4-dim corpus algebras that get a dense copy
TRANSPORTED = ("two_dim_unital", "k1+k2", "dual_numbers_twisted",
               "trunc_poly3", "mat2")


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def _unit_triangular(rng: random.Random, d: int, lower: bool):
    return [[1 if i == j else
             (rng.choice(OFF_DIAGONAL) if (i > j) == lower else 0)
             for j in range(d)] for i in range(d)]


def _unit_triangular_inverse(t, lower: bool):
    """Inverse of a unit triangular integer matrix by substitution."""
    d = len(t)
    inv = [[int(i == j) for j in range(d)] for i in range(d)]
    order = range(d) if lower else range(d - 1, -1, -1)
    for col in range(d):
        for i in order:
            others = range(i) if lower else range(i + 1, d)
            inv[i][col] = int(i == col) - sum(t[i][k] * inv[k][col]
                                               for k in others)
    return inv


def draw_basis(rng: random.Random, d: int):
    """(P, P^-1) for a unimodular P = L U."""
    lo = _unit_triangular(rng, d, lower=True)
    up = _unit_triangular(rng, d, lower=False)
    p = _matmul(lo, up)
    pinv = _matmul(_unit_triangular_inverse(up, lower=False),
                   _unit_triangular_inverse(lo, lower=True))
    if _matmul(p, pinv) != [[int(i == j) for j in range(d)] for i in range(d)]:
        raise ArithmeticError("P^-1 is not the inverse of P")
    return p, pinv


def transport_data(A: homcyc.HomAlgebra, p, pinv):
    """Structure constants and twist of A in the basis given by P's columns."""
    d = A.dim
    cols = [tuple(Fraction(p[i][j]) for i in range(d)) for j in range(d)]
    mu = [[[sum(pinv[k][m] * c for m, c in enumerate(A.product(cols[a], cols[b])))
            for k in range(d)] for b in range(d)] for a in range(d)]
    alpha = _matmul(_matmul(pinv, [list(A.alpha.row(i)) for i in range(d)]), p)
    return mu, alpha


def entry_stats(mu, alpha) -> tuple[float, int]:
    """Nonzero fraction and largest numerator/denominator bit length."""
    entries = [x for plane in mu for row in plane for x in row] + \
        [x for row in alpha for x in row]
    nonzero = sum(1 for x in entries if x) / len(entries)
    bits = max(max(Fraction(x).numerator.bit_length(),
                   Fraction(x).denominator.bit_length()) for x in entries)
    return nonzero, bits


def transported(A: homcyc.HomAlgebra, seed: int):
    """A seeded dense copy of A, validated, with its isomorphism from A.

    For 2-dim algebras the draw is repeated until no structure constant
    or twist entry is zero: some draws stay sparse, and their timings
    would differ several-fold from the dense ones.
    """
    rng = random.Random(f"{seed}:{A.name}")
    for draws in range(1, MAX_DRAWS + 1):
        p, pinv = draw_basis(rng, A.dim)
        mu, alpha = transport_data(A, p, pinv)
        nonzero, bits = entry_stats(mu, alpha)
        if A.dim != 2 or nonzero == 1.0:
            break
    else:
        raise RuntimeError(f"no dense basis for {A.name} in {MAX_DRAWS} draws")
    name = f"{A.name}@{seed}"
    copy, report = homcyc.validate(A.dim, [f"f{i + 1}" for i in range(A.dim)],
                                   mu, homcyc.Matrix.from_rows(alpha), name)
    if copy is None or not report.multiplicative:
        raise RuntimeError(f"transported {A.name} fails validation")
    iso = homcyc.AlgebraMorphism(A, copy, homcyc.Matrix.from_rows(pinv))
    info = {"seed": seed, "draws": draws, "nonzero_fraction": nonzero,
            "max_bits": bits}
    return copy, iso, info


def write_and_reload(A: homcyc.HomAlgebra, path: Path) -> homcyc.HomAlgebra:
    """Write A as the CLI's JSON format and load it back through the
    public loader, which validates it again."""
    path.write_text(A.to_json())
    loaded, report = homcyc.load_algebra(str(path))
    if loaded is None or not report.multiplicative or loaded != A:
        raise RuntimeError(f"{path.name} does not round-trip")
    return loaded
