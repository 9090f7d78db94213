"""Every face-type operator pinned by the SHA-256 of its rows.

`golden/face-operators.json` holds, per algebra, the digest of each face,
b and b' of the regular bimodule and of each coface and coboundary of
its dual, in every degree up to the algebra's top degree.  A digest is
the SHA-256 of the operator's rows as JSON lists of `str` entries, so
an operator that changes by one entry, one sign or one shape changes
its digest.

The algebras are the corpus algebras at the top degrees of the
benchmark's corpus jobs, and two_dim_unital and 2x2 matrices moved to
one fixed dense unimodular basis each, at the degrees of its basis
change jobs.  Write the file again with
`PYTHONPATH=src python tests/test_face_golden.py`; a change to the
operator build must leave it as it is.
"""

import hashlib
import json
from pathlib import Path

import pytest

from homcyc.algebra import validate_or_raise
from homcyc.coefficients import dualize_bimodule, regular_bimodule
from homcyc.corpus import (dual_numbers_projection_twist, ground_field, k2,
                           k1_plus_k2, matrix_2x2, truncated_polynomials,
                           two_dim_unital)
from homcyc.hochschild import (b_prime, cochain_b, coface_map, face_map,
                               hochschild_b)
from homcyc.linalg import Matrix

GOLDEN = Path(__file__).parent / "golden" / "face-operators.json"

# name -> (constructor, top degree): the largest degree each corpus
# algebra is asked for in the benchmark's corpus jobs
CORPUS = {
    "two_dim_unital": (two_dim_unital, 5),
    "dual_numbers_twisted": (dual_numbers_projection_twist, 4),
    "k1+k2": (k1_plus_k2, 4),
    "mat2": (matrix_2x2, 2),
    "trunc_poly3": (truncated_polynomials, 2),
    "k2": (k2, 8),
    "ground_field": (ground_field, 5),
}

# name -> (constructor, P, top degree): the algebra in the basis of P's
# columns, det P = 1, at the degree of its basis change jobs
MOVED = {
    "two_dim_unital@dense": (two_dim_unital, [[1, 2], [-2, -3]], 4),
    "mat2@dense": (matrix_2x2, [[1, 2, -1, 1],
                                [-1, -1, 2, -2],
                                [2, 3, -2, 2],
                                [1, 1, -1, 2]], 1),
}


def moved(make, p):
    """The algebra in the basis f_j = sum_i p[i][j] e_i."""
    A = make()
    P = Matrix.from_rows(p)
    pinv = _inverse(P)
    d = A.dim
    cols = [P.col(j) for j in range(d)]
    mu = [[pinv.apply(A.product(cols[a], cols[b])) for b in range(d)]
          for a in range(d)]
    return validate_or_raise(d, A.basis_names, mu, pinv @ A.alpha @ P,
                             name=f"{A.name}@dense")


def _inverse(P):
    """P^-1 by Gauss-Jordan elimination on its dense rows."""
    d = P.rows
    rows = [list(r) + [int(i == j) for j in range(d)]
            for i, r in enumerate(P.to_rows())]
    for c in range(d):
        piv = next(i for i in range(c, d) if rows[i][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(d):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return Matrix.from_rows([r[d:] for r in rows])


def digest(m: Matrix) -> str:
    rows = [[str(x) for x in row] for row in m.to_rows()]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def operator_digests(A, top: int) -> dict[str, str]:
    """Digest of every face, b and b' of the regular bimodule in degrees
    1..top, and of every coface and coboundary of its dual in degrees
    0..top - 1."""
    V = regular_bimodule(A)
    W = dualize_bimodule(V)
    out = {}
    for n in range(1, top + 1):
        for i, face in enumerate(face_map(A, V, n)):
            out[f"face/{n}/{i}"] = digest(face)
        out[f"b/{n}"] = digest(hochschild_b(A, V, n))
        out[f"b_prime/{n}"] = digest(b_prime(A, n))
    for n in range(top):
        for i, coface in enumerate(coface_map(A, W, n)):
            out[f"coface/{n}/{i}"] = digest(coface)
        out[f"cochain_b/{n}"] = digest(cochain_b(A, W, n))
    return out


def _algebra(name):
    if name in CORPUS:
        make, top = CORPUS[name]
        return make(), top
    make, p, top = MOVED[name]
    return moved(make, p), top


NAMES = [*CORPUS, *MOVED]


def test_moved_bases_are_unimodular_and_dense():
    for _, p, _ in MOVED.values():
        P = Matrix.from_rows(p)
        pinv = _inverse(P)
        assert P @ pinv == Matrix.identity(P.rows)
        assert all(x.denominator == 1 for x in pinv.entries)
    A = moved(two_dim_unital, MOVED["two_dim_unital@dense"][1])
    assert all(x for plane in A.mu for row in plane for x in row)
    assert all(A.alpha.entries)


@pytest.mark.parametrize("name", NAMES)
def test_face_operators_match_pinned_digests(name):
    A, top = _algebra(name)
    pinned = json.loads(GOLDEN.read_text())[name]
    assert operator_digests(A, top) == pinned


if __name__ == "__main__":
    table = {}
    for name in NAMES:
        table[name] = operator_digests(*_algebra(name))
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
