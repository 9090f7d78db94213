"""Reference builds of the Hochschild operators, for the oracle tests.

These are the direct constructions homcyc used before its integer face
kernel: each face column, and each column of the extra degeneracy, is a
tensor product of Fraction vectors, each coface entry is the evaluation
of a coface on one basis cochain and one basis tensor, and t, N and
theta come from a dense rotation matrix and its powers.  They read the algebra and coefficient data entry by entry
and do their own Fraction arithmetic, so nothing here goes through
`homcyc.linalg` products or the kernel under test.  Every function
returns the matrix as a list of rows of Fractions.

`induced_on_quotient` is homcyc's earlier construction of a map on
quotients, the reference for `linalg.descend`.  It uses `Subspace`
elimination, but neither `descend` nor a matrix product.

`rref` is textbook Gauss-Jordan elimination on dense Fraction rows, the
reference for `linalg.rref` and `linalg.rank`.
"""

from fractions import Fraction
from itertools import product as iproduct

ZERO, ONE = Fraction(0), Fraction(1)


def _col(m, j):
    return [m[i, j] for i in range(m.rows)]


def _apply(m, vec):
    return [sum((m[i, j] * x for j, x in enumerate(vec) if x), ZERO)
            for i in range(m.rows)]


def _tensor_terms(parts):
    """(index, coefficient) of a pure tensor's nonzero coordinates, first
    factor most significant."""
    terms = [(0, ONE)]
    for p in parts:
        nonzero = [(j, x) for j, x in enumerate(p) if x]
        terms = [(i * len(p) + j, c * x) for i, c in terms for j, x in nonzero]
    return terms


def _transpose(rows, nrows):
    return [list(r) for r in zip(*rows)] if rows else [[] for _ in range(nrows)]


def face_columns(A, V, n, faces):
    """Per basis tensor of C_n(A, V), the dense column of the signed face
    sum over the (i, sign) pairs in `faces`."""
    d, m = A.dim, V.dim
    acols = [_col(A.alpha, j) for j in range(d)]
    for v in range(m):
        bv = _col(V.beta, v)
        right = [_col(V.right[a], v) for a in range(d)]
        left = [_col(V.left[a], v) for a in range(d)]
        for idx in iproduct(range(d), repeat=n):
            col = [ZERO] * (m * d ** (n - 1))
            for i, sign in faces:
                if i == 0:
                    parts = [right[idx[0]]] + [acols[j] for j in idx[1:]]
                elif i == n:
                    parts = [left[idx[-1]]] + [acols[j] for j in idx[:-1]]
                else:
                    parts = [bv] + [acols[j] for j in idx[:i - 1]] + \
                        [list(A.mu[idx[i - 1]][idx[i]])] + \
                        [acols[j] for j in idx[i + 1:]]
                for k, c in _tensor_terms(parts):
                    col[k] += sign * c
            yield col


def face_map(A, V, n, i):
    return _transpose(list(face_columns(A, V, n, [(i, 1)])),
                      V.dim * A.dim ** (n - 1))


def hochschild_b(A, V, n):
    faces = [(i, (-1) ** i) for i in range(n + 1)]
    return _transpose(list(face_columns(A, V, n, faces)),
                      V.dim * A.dim ** (n - 1))


def extra_degeneracy(A, unit, n):
    """s: C_n -> C_{n+1}, the column of a basis tensor e being unit (x) e."""
    d = A.dim
    cols = []
    for idx in iproduct(range(d), repeat=n + 1):
        col = [ZERO] * d ** (n + 2)
        for k, c in _tensor_terms([unit] + [[ONE if j == i else ZERO
                                              for j in range(d)]
                                             for i in idx]):
            col[k] = c
        cols.append(col)
    return _transpose(cols, d ** (n + 2))


def b_prime(A, n):
    """b' on A^{(x)(n+1)}: merge slots i, i+1 for i < n, alpha elsewhere."""
    d = A.dim
    acols = [_col(A.alpha, j) for j in range(d)]
    cols = []
    for idx in iproduct(range(d), repeat=n + 1):
        acc = [ZERO] * d ** n
        for i in range(n):
            parts = [acols[j] for j in idx[:i]] + \
                [list(A.mu[idx[i]][idx[i + 1]])] + \
                [acols[j] for j in idx[i + 2:]]
            for k, c in _tensor_terms(parts):
                acc[k] += (-1) ** i * c
        cols.append(acc)
    return _transpose(cols, d ** n)


def coface_map(A, W, n, i):
    """Entry ((w', j), (w, idx)) is the w' coordinate of
    (delta^i phi_{w, idx})(e_j): each coface evaluated on each basis
    tensor of A^{(x)(n+1)}."""
    d, m = A.dim, W.dim
    acols = [_col(A.alpha, j) for j in range(d)]
    basis_w = [[ONE if k == w else ZERO for k in range(m)] for w in range(m)]
    rows = [[ZERO] * (m * d ** n) for _ in range(m * d ** (n + 1))]
    for col, (w, idx) in enumerate(
            (w, idx) for w in range(m)
            for idx in iproduct(range(d), repeat=n)):
        for trow, jdx in enumerate(iproduct(range(d), repeat=n + 1)):
            coeff = ONE
            if i == 0:
                for k in range(n):
                    coeff *= acols[jdx[k + 1]][idx[k]]
                wvec = _apply(W.left[jdx[0]], basis_w[w])
            elif i == n + 1:
                for k in range(n):
                    coeff *= acols[jdx[k]][idx[k]]
                wvec = _apply(W.right[jdx[-1]], basis_w[w])
            else:
                for k in range(1, n + 1):
                    if k < i:
                        slot = acols[jdx[k - 1]]
                    elif k == i:
                        slot = A.mu[jdx[i - 1]][jdx[i]]
                    else:
                        slot = acols[jdx[k]]
                    coeff *= slot[idx[k - 1]]
                wvec = _apply(W.beta, basis_w[w])
            if not coeff:
                continue
            for wr in range(m):
                rows[wr * d ** (n + 1) + trow][col] += coeff * wvec[wr]
    return rows


def cochain_b(A, W, n):
    total = None
    for i in range(n + 2):
        f = coface_map(A, W, n, i)
        total = f if total is None else \
            [[a + (-1) ** i * b for a, b in zip(r, s)] for r, s in zip(total, f)]
    return total


def cyclic_t(A, n):
    """Dense signed rotation: column idx has sign (-1)^n at row
    (idx[-1], idx[0], ..., idx[-2])."""
    d = A.dim
    size = d ** (n + 1)
    rows = [[ZERO] * size for _ in range(size)]
    for c, idx in enumerate(iproduct(range(d), repeat=n + 1)):
        r = 0
        for j in (idx[-1],) + idx[:-1]:
            r = r * d + j
        rows[r][c] = Fraction((-1) ** n)
    return rows


def _matmul(a, b):
    return [[sum((x * b[k][j] for k, x in enumerate(r) if x), ZERO)
             for j in range(len(b[0]))] for r in a]


def rotation_power_sum(A, n, weights):
    """sum_k weights[k] t^k by dense powers of t."""
    t = cyclic_t(A, n)
    size = len(t)
    power = [[ONE if i == j else ZERO for j in range(size)] for i in range(size)]
    total = [[ZERO] * size for _ in range(size)]
    for k, w in enumerate(weights):
        if k:
            power = _matmul(t, power)
        total = [[a + w * b for a, b in zip(r, s)] for r, s in zip(total, power)]
    return total


def induced_on_quotient(m, sub_src, sub_tgt):
    """m on Q^cols / sub_src -> Q^rows / sub_tgt: coset representatives
    are the unit vectors off the pivots; each representative's image is
    reduced modulo sub_tgt and given coordinates in the row-reduced span
    of the target's representatives."""
    from homcyc.linalg import Subspace, reduce_mod

    def reps(sub):
        pivots = {next(j for j, x in enumerate(b) if x) for b in sub.basis}
        return [tuple(Fraction(int(j == f)) for j in range(sub.ambient_dim))
                for f in range(sub.ambient_dim) if f not in pivots]

    src_reps, tgt_reps = reps(sub_src), reps(sub_tgt)
    tgt_space = Subspace.from_vectors(sub_tgt.ambient_dim, tgt_reps)
    cols = [tgt_space.coordinates(reduce_mod(sub_tgt, _apply(m, v)))
            for v in src_reps]
    return _transpose(cols, len(tgt_reps))


def rref(rows, ncols):
    """Reduced row-echelon form of dense rows by Gauss-Jordan elimination
    on Fractions, pivoting on the first nonzero entry of each column:
    (the rows, zero rows last, and the pivot columns)."""
    a = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(a)) if a[i][c]), None)
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        p = a[r][c]
        a[r] = [x / p for x in a[r]]
        for i in range(len(a)):
            f = a[i][c]
            if i != r and f:
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots
