"""Chain-level operator identities, exactly, on the whole corpus.

Everything here is an exact matrix equality over the rationals; any
failure is either a construction bug or a misstated identity.
"""

import pytest

from homcyc import hochschild
from homcyc.coefficients import dualize_bimodule, regular_bimodule
from homcyc.cyclic import cyclic_bicomplex
from homcyc.corpus import (k_times_k_swap_twist, standard_corpus,
                           two_dim_unital)
from homcyc.hochschild import (CoefficientHypothesisError, b_prime,
                               build_hochschild_cohomology_complex,
                               build_hochschild_homology_complex,
                               check_presimplicial, cochain_b, coface_map,
                               cyclic_t, face_map, hochschild_b,
                               homotopy_theta, norm_N)
from homcyc.linalg import Matrix, image, kernel
from homcyc.records import replace
from test_d_squared_invariant import SRC, name_uses

N_MAX = 5

CORPUS = standard_corpus()


def ids(a):
    return a.name


@pytest.fixture(params=CORPUS, ids=ids, scope="module")
def algebra(request):
    return request.param


def test_presimplicial_identities(algebra):
    V = regular_bimodule(algebra)
    for n in range(2, N_MAX + 1):
        check_presimplicial(algebra, V, n)


def test_precosimplicial_identities(algebra):
    # on C^n they are the presimplicial identities of W's faces in n + 2
    W = dualize_bimodule(regular_bimodule(algebra))
    for n in range(0, 4):
        check_presimplicial(algebra, W, n + 2)


def test_b_squared_zero(algebra):
    V = regular_bimodule(algebra)
    for n in range(2, N_MAX + 1):
        assert (hochschild_b(algebra, V, n - 1) @
                hochschild_b(algebra, V, n)).is_zero()


def test_b_prime_squared_zero(algebra):
    for n in range(2, N_MAX + 1):
        assert (b_prime(algebra, n - 1) @ b_prime(algebra, n)).is_zero()


def test_t_has_order_n_plus_one_up_to_sign(algebra):
    # t^(n+1) = (-1)^(n(n+1)) Id = Id since n(n+1) is even
    for n in range(0, N_MAX + 1):
        t = cyclic_t(algebra, n)
        power = Matrix.identity(t.rows)
        for _ in range(n + 1):
            power = t @ power
        assert power == Matrix.identity(t.rows)


def test_b_intertwines_id_minus_t(algebra):
    V = regular_bimodule(algebra)
    for n in range(1, N_MAX + 1):
        t_n = cyclic_t(algebra, n)
        t_prev = cyclic_t(algebra, n - 1)
        lhs = (Matrix.identity(t_prev.rows) - t_prev) @ b_prime(algebra, n)
        rhs = hochschild_b(algebra, V, n) @ (Matrix.identity(t_n.rows) - t_n)
        assert lhs == rhs


def test_b_prime_intertwines_norm(algebra):
    V = regular_bimodule(algebra)
    for n in range(1, N_MAX + 1):
        lhs = b_prime(algebra, n) @ norm_N(algebra, n)
        rhs = norm_N(algebra, n - 1) @ hochschild_b(algebra, V, n)
        assert lhs == rhs


def test_norm_annihilates_id_minus_t(algebra):
    for n in range(0, N_MAX + 1):
        t = cyclic_t(algebra, n)
        ident = Matrix.identity(t.rows)
        N = norm_N(algebra, n)
        assert (N @ (ident - t)).is_zero()
        assert ((ident - t) @ N).is_zero()


def test_homotopy_identity(algebra):
    for n in range(0, N_MAX + 1):
        t = cyclic_t(algebra, n)
        ident = Matrix.identity(t.rows)
        lhs = norm_N(algebra, n) + homotopy_theta(algebra, n) @ (ident - t)
        assert lhs == ident.scale(n + 1)


def test_face_cyclic_relations(algebra):
    V = regular_bimodule(algebra)
    for n in range(1, N_MAX + 1):
        t_n = cyclic_t(algebra, n)
        t_prev = cyclic_t(algebra, n - 1)
        faces = [face_map(algebra, V, n, i) for i in range(n + 1)]
        sign = 1 if n % 2 == 0 else -1
        assert faces[0] @ t_n == faces[n].scale(sign)
        for i in range(1, n + 1):
            assert faces[i] @ t_n == -(t_prev @ faces[i - 1])


def test_cyclic_row_exactness(algebra):
    for n in range(0, N_MAX + 1):
        t = cyclic_t(algebra, n)
        ident = Matrix.identity(t.rows)
        N = norm_N(algebra, n)
        one_minus_t = ident - t
        assert kernel(one_minus_t) == image(N)
        assert kernel(N) == image(one_minus_t)


def test_cochain_b_is_transpose_of_chain_b(algebra):
    """With regular-dual coefficients and the shared basis enumeration,
    the generic coface construction lands exactly on the transpose."""
    V = regular_bimodule(algebra)
    W = dualize_bimodule(V)
    for n in range(0, 4):
        assert cochain_b(algebra, W, n) == \
            hochschild_b(algebra, V, n + 1).transpose()


def test_b_is_b_prime_plus_the_last_face(algebra):
    """b = b' + (-1)^n delta_n on C_n(A), as the cyclic bicomplex builds
    b, whose vertical maps are the standalone b and -b'."""
    V = regular_bimodule(algebra)
    for n in range(1, 5):
        assert hochschild_b(algebra, V, n) == b_prime(algebra, n) + \
            face_map(algebra, V, n, n).scale((-1) ** n)
    B = cyclic_bicomplex(algebra, 3)
    assert {q for _, q in B.vertical} == {1, 2, 3, 4}
    for (p, q), m in B.vertical.items():
        assert m == (hochschild_b(algebra, V, q) if p % 2 == 0
                     else -b_prime(algebra, q))


def test_complex_builders_check_d_squared(algebra):
    V = regular_bimodule(algebra)
    C = build_hochschild_homology_complex(algebra, V, 4)
    assert C.orientation == "homological"
    W = dualize_bimodule(V)
    Cc = build_hochschild_cohomology_complex(algebra, W, 4)
    assert Cc.orientation == "cohomological"
    assert Cc.dims == C.dims


def test_theta_degree_zero_is_identity():
    A = two_dim_unital()
    assert homotopy_theta(A, 0) == Matrix.identity(A.dim)


def test_homology_hypotheses_checked_once_per_bimodule(monkeypatch):
    """A bimodule is validated on its first build only; one that fails
    the hypotheses (beta = Id against a non-identity alpha) raises on
    every build."""
    seen = []
    validate = hochschild.validate_homology_coefficients
    monkeypatch.setattr(hochschild, "validate_homology_coefficients",
                        lambda V: seen.append(V) or validate(V))
    A = two_dim_unital()
    V = regular_bimodule(A)
    build_hochschild_homology_complex(A, V, 2)
    build_hochschild_homology_complex(A, V, 3)
    assert len(seen) == 1 and seen[0] is V
    B = k_times_k_swap_twist()
    W = replace(regular_bimodule(B), beta=Matrix.identity(B.dim))
    for _ in range(2):
        with pytest.raises(CoefficientHypothesisError):
            build_hochschild_homology_complex(B, W, 1)
    assert len(seen) == 2 and seen[1] is W


def test_face_kernel_runs_once_per_degree(monkeypatch):
    """Checked hh and hhco builds to degree N build every face (n, i) of
    the degrees they use once: they read b (the coboundary) and the
    identities from one list per degree.  Unchecked builds and the
    cyclic bicomplex build b by the bar recursion from b', so the only
    face they build in each degree is the wrap-around one, delta_n."""
    built = []
    faces = hochschild._faces

    def counted(A, V, n, which):
        built.extend((n, i) for i in which)
        return faces(A, V, n, which)

    monkeypatch.setattr(hochschild, "_faces", counted)
    A = two_dim_unital()
    V = regular_bimodule(A)
    every = sorted((n, i) for n in range(1, 6) for i in range(n + 1))
    wrap_around = [(n, n) for n in range(1, 6)]
    for build, M in [(build_hochschild_homology_complex, V),
                     (build_hochschild_cohomology_complex,
                      dualize_bimodule(V))]:
        build(A, M, 5)
        assert sorted(built) == every
        built.clear()
        build(A, M, 5, check_identities=False)
        assert sorted(built) == wrap_around
        built.clear()
    cyclic_bicomplex(A, 4)
    assert sorted(built) == wrap_around


def test_all_faces_at_once_equal_each_face():
    A = two_dim_unital()
    V = regular_bimodule(A)
    W = dualize_bimodule(V)
    for n in range(1, 4):
        faces = face_map(A, V, n)
        assert faces == [face_map(A, V, n, i) for i in range(n + 1)]
    for n in range(3):
        cofaces = coface_map(A, W, n)
        assert cofaces == [coface_map(A, W, n, i) for i in range(n + 2)]
    with pytest.raises(IndexError):
        face_map(A, V, 0)


# each operator at a degree where it has no chain space, or a face index
# past the last face
OUTSIDE = {
    "face_map(0)": lambda A, V, W: face_map(A, V, 0),
    "face_map(-1)": lambda A, V, W: face_map(A, V, -1),
    "face_map(2, 3)": lambda A, V, W: face_map(A, V, 2, 3),
    "face_map(2, -1)": lambda A, V, W: face_map(A, V, 2, -1),
    "hochschild_b(0)": lambda A, V, W: hochschild_b(A, V, 0),
    "b_prime(0)": lambda A, V, W: b_prime(A, 0),
    "cyclic_t(-1)": lambda A, V, W: cyclic_t(A, -1),
    "norm_N(-1)": lambda A, V, W: norm_N(A, -1),
    "homotopy_theta(-1)": lambda A, V, W: homotopy_theta(A, -1),
    "coface_map(-1)": lambda A, V, W: coface_map(A, W, -1),
    "coface_map(1, 3)": lambda A, V, W: coface_map(A, W, 1, 3),
    "cochain_b(-1)": lambda A, V, W: cochain_b(A, W, -1),
    "check_presimplicial(0)": lambda A, V, W: check_presimplicial(A, V, 0),
}


@pytest.mark.parametrize("call", OUTSIDE.values(), ids=OUTSIDE.keys())
def test_operators_raise_index_error_outside_their_degrees(call):
    A = two_dim_unital()
    V = regular_bimodule(A)
    with pytest.raises(IndexError):
        call(A, V, dualize_bimodule(V))


def _identity_checks(source):
    """The functions of `source` that name `vanishes`."""
    return {scope for _, _, scope in name_uses(source, ("vanishes",))}


def test_only_the_presimplicial_check_decides_identities():
    """Chains and cochains share one identity check: in hochschild.py
    only `check_presimplicial` names `vanishes`, so no second
    (co)simplicial check decides an identity of a build."""
    path = SRC / "hochschild.py"
    assert _identity_checks(path.read_text()) == {("check_presimplicial",)}
    assert _identity_checks(
        "def check_precosimplicial(A, W, n):\n    return vanishes()") == \
        {("check_precosimplicial",)}
