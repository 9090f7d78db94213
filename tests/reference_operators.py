"""Reference builds of the Hochschild operators, for the oracle tests.

These are the direct constructions homcyc used before its integer face
kernel: each face column is a tensor product of Fraction vectors, each
coface entry is the evaluation of a coface on one basis cochain and one
basis tensor, and t, N and theta come from a dense rotation matrix and
its powers.  They read the algebra and coefficient data entry by entry
and do their own Fraction arithmetic, so nothing here goes through
`homcyc.linalg` products or the kernel under test.  Every function
returns the matrix as a list of rows of Fractions.

`rref` is textbook Gauss-Jordan elimination on dense Fraction rows, the
reference for `linalg.rref` and `linalg.rank`.  `reduce_mod` is
homcyc's earlier dense pivot elimination of a vector by that RREF, the
reference for `linalg.reduce_mod`, `Subspace.coordinates` and
`Subspace.contains`.  `induced_on_quotient` is homcyc's earlier
construction of a map on quotients from the two, the reference for
`linalg.descend`; it reads a `Subspace` only through its dense `basis`.
`homology_representatives` and `homology_matrix` are homcyc's earlier
per-vector homology: each kernel vector reduced modulo the image with
`reduce_mod`, and each source class pushed through the chain map and
read in the target classes; they are the reference for
`complexes.homology` and the induced maps of `homcyc.cyclic`.
`total_differentials` assembles the total complex of a first-quadrant
bicomplex block by block from dense maps, the reference for
`complexes.total_complex`.  `trace_space` solves homcyc's earlier
constraints phi(e_i e_j) = phi(e_j e_i), i < j, with that `rref`, the
reference for `cocycles.trace_space`.

The axiom checks at the end are homcyc's earlier checks of the structure
axioms, one loop over basis tuples each, evaluating both sides of every
instance with their own Fraction products and actions.  They are the
reference for the matrix-identity checks in `homcyc.algebra`,
`homcyc.coefficients` and `homcyc.cocycles`, and return the same
`Violation` lists in the same order.
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


def reduce_mod(rows, vec):
    """Pivot elimination of vec by the RREF of the span of rows: each
    basis vector in turn takes off its multiple that clears vec's entry
    at its pivot.  Returns (the multiple taken of each basis vector, the
    residual); vec lies in the span exactly when the residual is zero."""
    basis, pivots = rref(rows, len(vec))
    coords, residual = [], list(vec)
    for p, b in zip(pivots, basis):
        c = residual[p]
        coords.append(c)
        if c:
            residual = [x - c * y for x, y in zip(residual, b)]
    return coords, residual


def induced_on_quotient(m, sub_src, sub_tgt):
    """m on Q^cols / sub_src -> Q^rows / sub_tgt: coset representatives
    are the unit vectors off the pivots; each representative's image is
    reduced modulo sub_tgt and given coordinates in the row-reduced span
    of the target's representatives."""

    def reps(sub):
        _, pivots = rref(sub.basis, sub.ambient_dim)
        return [[Fraction(int(j == f)) for j in range(sub.ambient_dim)]
                for f in range(sub.ambient_dim) if f not in pivots]

    src_reps, tgt_reps = reps(sub_src), reps(sub_tgt)
    cols = []
    for v in src_reps:
        _, residual = reduce_mod(sub_tgt.basis, _apply(m, v))
        coords, rest = reduce_mod(tgt_reps, residual)
        if any(rest):
            raise ValueError("residual off the coset representatives")
        cols.append(coords)
    return _transpose(cols, len(tgt_reps))


def _rows_apply(rows, vec):
    return [sum((r[j] * x for j, x in enumerate(vec) if x), ZERO)
            for r in rows]


def homology_representatives(d_out, d_in, dim):
    """The canonical homology representatives in a degree of dimension
    dim, from the dense rows of the map out of it and of the map into
    it: the kernel basis of d_out, each vector reduced modulo the
    column space of d_in, zero residuals dropped, and the RREF of the
    rest."""
    a, pivots = rref(d_out, dim)
    kernel = []
    for f in range(dim):
        if f not in pivots:
            v = [ZERO] * dim
            v[f] = ONE
            for row, p in zip(a, pivots):
                v[p] = -row[f]
            kernel.append(v)
    image_rows = [list(c) for c in zip(*d_in)]
    residuals = [r for v in kernel
                 for r in [reduce_mod(image_rows, v)[1]] if any(r)]
    basis, pivots = rref(residuals, dim)
    return [tuple(r) for r in basis[:len(pivots)]]


def homology_matrix(src, tgt, m):
    """The induced map on homology in one degree: src and tgt are
    (d_out, d_in, dim) of that degree, m the dense rows of the chain map
    there.  Column j is the image of source representative j, reduced
    modulo the target's image and given coordinates in the target
    representatives."""
    reps_src = homology_representatives(*src)
    reps_tgt = homology_representatives(*tgt)
    image_rows = [list(c) for c in zip(*tgt[1])]
    cols = []
    for v in reps_src:
        _, residual = reduce_mod(image_rows, _rows_apply(m, v))
        coords, rest = reduce_mod(reps_tgt, residual)
        if any(rest):
            raise ValueError("residual off the target representatives")
        cols.append(coords)
    return _transpose(cols, len(reps_tgt))


def total_differentials(cells, vertical, horizontal, step):
    """The total complex of a first-quadrant bicomplex, assembled block
    by block.  cells maps (p, q) to its dimension; vertical and
    horizontal map a source cell to the dense rows of its map into
    (p, q + step), resp. (p + step, q), step being -1 (homological) or
    +1 (cohomological); an absent map is zero.  Tot_n is the cells
    (p, n - p) in order of increasing p, and d_n: Tot_n -> Tot_(n+step)
    places each map at the rows of its target cell and the columns of
    its source cell.  Returns ({n: dim Tot_n}, {n: dense rows of d_n})
    for every n with a degree n + step."""
    dims, offsets = {}, {}
    for n in range(max(p + q for p, q in cells) + 1):
        off = 0
        for p in range(n + 1):
            if (p, n - p) in cells:
                offsets[(p, n - p)] = off
                off += cells[(p, n - p)]
        dims[n] = off
    diffs = {}
    for n in dims:
        if n + step not in dims:
            continue
        rows = [[ZERO] * dims[n] for _ in range(dims[n + step])]
        for p in range(n + 1):
            src = (p, n - p)
            for maps, tgt in ((vertical, (p, n - p + step)),
                              (horizontal, (p + step, n - p))):
                if src in maps and tgt in offsets:
                    roff, coff = offsets[tgt], offsets[src]
                    for i, r in enumerate(maps[src]):
                        rows[roff + i][coff:coff + len(r)] = r
        diffs[n] = rows
    return dims, diffs


# ---------------------------------------------------------------------------
# Structure axioms, checked one basis tuple at a time.

def _basis(n, i):
    return tuple(ONE if k == i else ZERO for k in range(n))


def multiply(A, x, y):
    out = [ZERO] * A.dim
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if xi and yj:
                for k, c in enumerate(A.mu[i][j]):
                    out[k] += xi * yj * c
    return tuple(out)


def _map(m, vec):
    return tuple(_apply(m, vec))


def _act(mats, x, v):
    """sum_a x_a mats[a] v: the left action x.v with mats = left, the
    right action v.x with mats = right."""
    out = [ZERO] * len(v)
    for a, xa in enumerate(x):
        if xa:
            out = [o + xa * w for o, w in zip(out, _apply(mats[a], v))]
    return tuple(out)


def algebra_violations(A):
    """Hom-associativity at every (a, b, c), then multiplicativity at
    every (a, b): the violations of `homcyc.algebra.validate`."""
    from homcyc.algebra import Violation
    d = A.dim
    e = [_basis(d, i) for i in range(d)]
    bad = []
    for a, b, c in iproduct(range(d), repeat=3):
        lhs = multiply(A, _map(A.alpha, e[a]), multiply(A, e[b], e[c]))
        rhs = multiply(A, multiply(A, e[a], e[b]), _map(A.alpha, e[c]))
        if lhs != rhs:
            bad.append(Violation("hom-associativity", (a, b, c), lhs, rhs))
    for a, b in iproduct(range(d), repeat=2):
        lhs = _map(A.alpha, multiply(A, e[a], e[b]))
        rhs = multiply(A, _map(A.alpha, e[a]), _map(A.alpha, e[b]))
        if lhs != rhs:
            bad.append(Violation("multiplicativity", (a, b), lhs, rhs))
    return bad


def is_associative(A):
    e = [_basis(A.dim, i) for i in range(A.dim)]
    return all(multiply(A, multiply(A, e[a], e[b]), e[c]) ==
               multiply(A, e[a], multiply(A, e[b], e[c]))
               for a, b, c in iproduct(range(A.dim), repeat=3))


def _product_violations(axiom, A, f, B):
    """f(e_a e_b) = f(e_a) f(e_b), products of A and of B."""
    from homcyc.algebra import Violation
    bad = []
    for a, b in iproduct(range(A.dim), repeat=2):
        lhs = _map(f, multiply(A, _basis(A.dim, a), _basis(A.dim, b)))
        rhs = multiply(B, _map(f, _basis(A.dim, a)), _map(f, _basis(A.dim, b)))
        if lhs != rhs:
            bad.append(Violation(axiom, (a, b), lhs, rhs))
    return bad


def endomorphism_violations(A, endo):
    return _product_violations("algebra-endomorphism", A, endo, A)


def morphism_violations(A, B, m):
    """Products at every (a, b), then the twists at every a."""
    from homcyc.algebra import Violation
    bad = _product_violations("morphism-product", A, m, B)
    for a in range(A.dim):
        lhs = _map(m, _map(A.alpha, _basis(A.dim, a)))
        rhs = _map(B.alpha, _map(m, _basis(A.dim, a)))
        if lhs != rhs:
            bad.append(Violation("morphism-twist", (a,), lhs, rhs))
    return bad


def centroid_violations(A):
    from homcyc.algebra import Violation
    bad = []
    for a, b in iproduct(range(A.dim), repeat=2):
        ea, eb = _basis(A.dim, a), _basis(A.dim, b)
        s1 = multiply(A, _map(A.alpha, ea), eb)
        s2 = multiply(A, ea, _map(A.alpha, eb))
        s3 = _map(A.alpha, multiply(A, ea, eb))
        if s1 != s2:
            bad.append(Violation("centroid alpha(x)y=xalpha(y)", (a, b),
                                 s1, s2))
        if s2 != s3:
            bad.append(Violation("centroid xalpha(y)=alpha(xy)", (a, b),
                                 s2, s3))
    return bad


def derivation_violations(A, rho):
    """The Leibniz rule at every (a, b), then alpha rho = rho and
    rho alpha = rho at every e_j, both at e_j before e_{j+1}."""
    from homcyc.algebra import Violation
    bad = []
    for a, b in iproduct(range(A.dim), repeat=2):
        ea, eb = _basis(A.dim, a), _basis(A.dim, b)
        lhs = _map(rho, multiply(A, ea, eb))
        rhs = tuple(x + y for x, y in zip(multiply(A, _map(rho, ea), eb),
                                          multiply(A, ea, _map(rho, eb))))
        if lhs != rhs:
            bad.append(Violation("leibniz", (a, b), lhs, rhs))
    for j in range(A.dim):
        ej = _basis(A.dim, j)
        rho_ej = _map(rho, ej)
        for axiom, lhs in [
                ("twist-compat alpha*rho=rho", _map(A.alpha, rho_ej)),
                ("twist-compat rho*alpha=rho", _map(rho, _map(A.alpha, ej)))]:
            if lhs != rho_ej:
                bad.append(Violation(axiom, (j,), lhs, rho_ej))
    return bad


def bimodule_violations(V):
    """Left module, right module and compatibility at every (a, b, v)."""
    from homcyc.algebra import Violation
    A = V.algebra
    bad = []
    for a, b, vi in iproduct(range(A.dim), range(A.dim), range(V.dim)):
        ea, eb, v = _basis(A.dim, a), _basis(A.dim, b), _basis(V.dim, vi)
        aa, ab = _map(A.alpha, ea), _map(A.alpha, eb)
        prod = multiply(A, ea, eb)
        for axiom, lhs, rhs in [
                ("left-module", _act(V.left, prod, _map(V.beta, v)),
                 _act(V.left, aa, _act(V.left, eb, v))),
                ("right-module", _act(V.right, prod, _map(V.beta, v)),
                 _act(V.right, ab, _act(V.right, ea, v))),
                ("bimodule-compat", _act(V.left, aa, _act(V.right, eb, v)),
                 _act(V.right, ab, _act(V.left, ea, v)))]:
            if lhs != rhs:
                bad.append(Violation(axiom, (a, b, vi), lhs, rhs))
    return bad


def dual_bimodule_violations(W):
    """Dual left module, dual right module and compatibility at every
    (a, b, v)."""
    from homcyc.algebra import Violation
    A = W.algebra
    bad = []
    for a, b, vi in iproduct(range(A.dim), range(A.dim), range(W.dim)):
        ea, eb, v = _basis(A.dim, a), _basis(A.dim, b), _basis(W.dim, vi)
        aa, ab = _map(A.alpha, ea), _map(A.alpha, eb)
        prod = multiply(A, ea, eb)
        for axiom, lhs, rhs in [
                ("dual-left-module", _act(W.left, ea, _act(W.left, ab, v)),
                 _map(W.beta, _act(W.left, prod, v))),
                ("dual-right-module", _act(W.right, eb, _act(W.right, aa, v)),
                 _map(W.beta, _act(W.right, prod, v))),
                ("dual-bimodule-compat",
                 _act(W.left, aa, _act(W.right, eb, v)),
                 _act(W.right, ab, _act(W.left, ea, v)))]:
            if lhs != rhs:
                bad.append(Violation(axiom, (a, b, vi), lhs, rhs))
    return bad


def homology_hypothesis_violations(V):
    """beta(v.a) = beta(v).alpha(a), then beta(a.v) = alpha(a).beta(v),
    at every (a, v)."""
    from homcyc.algebra import Violation
    A = V.algebra
    bad = []
    for a, vi in iproduct(range(A.dim), range(V.dim)):
        ea, v = _basis(A.dim, a), _basis(V.dim, vi)
        aa, bv = _map(A.alpha, ea), _map(V.beta, v)
        for axiom, lhs, rhs in [
                ("beta(v.a)=beta(v).alpha(a)",
                 _map(V.beta, _act(V.right, ea, v)), _act(V.right, aa, bv)),
                ("beta(a.v)=alpha(a).beta(v)",
                 _map(V.beta, _act(V.left, ea, v)), _act(V.left, aa, bv))]:
            if lhs != rhs:
                bad.append(Violation(axiom, (a, vi), lhs, rhs))
    return bad


def cocycle_residuals(A, V, n, coords):
    """The nonzero entries of b^T phi and of (Id - t^T) phi for phi of
    degree n, from the dense reference b and t, as the residual
    Violations of `homcyc.cocycles.is_cyclic_cocycle`."""
    from homcyc.algebra import Violation
    b, t = hochschild_b(A, V, n + 1), cyclic_t(A, n)
    cob = [sum((b[r][c] * x for r, x in enumerate(coords) if x), ZERO)
           for c in range(len(b[0]))]
    diff = [coords[c] - sum((t[r][c] * x for r, x in enumerate(coords)
                             if x), ZERO) for c in range(len(coords))]
    co = [Violation("hochschild-cocycle", idx, (x,), (ZERO,)) for idx, x in
          zip(iproduct(range(A.dim), repeat=n + 2), cob) if x]
    cyc = [Violation("cyclicity", idx, (x,), (ZERO,)) for idx, x in
           zip(iproduct(range(A.dim), repeat=n + 1), diff) if x]
    return co, cyc


def trace_space(A):
    """The traces phi(e_i e_j) = phi(e_j e_i), one constraint row for
    each pair i < j as homcyc built them before `cocycles.trace_space`
    became a kernel of mu - mu sigma: the RREF basis of the null space of
    those rows, read off the dense `rref`, as a tuple of tuples."""
    d = A.dim
    rows = [[x - y for x, y in zip(A.mu[i][j], A.mu[j][i])]
            for i in range(d) for j in range(i + 1, d)]
    red, pivots = rref(rows, d)
    null = [[ONE if k == f else -red[pivots.index(k)][f] if k in pivots
             else ZERO for k in range(d)]
            for f in range(d) if f not in pivots]
    basis, _ = rref(null, d)
    return tuple(map(tuple, basis))
