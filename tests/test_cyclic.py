"""Cyclic and periodic (co)homology: both constructions, functoriality."""

from fractions import Fraction
from pathlib import Path

import pytest

import reference_operators as ref
from homcyc import cyclic
from homcyc.algebra import AlgebraMorphism, load_algebra
from homcyc.coefficients import regular_bimodule
from homcyc.corpus import (dual_numbers, dual_numbers_projection_twist,
                           ground_field, k1_plus_k2, k2, k_times_k,
                           k_times_k_swap_twist, matrix_2x2, standard_corpus,
                           truncated_polynomials, two_dim_unital)
from homcyc.cyclic import (ChainMapError, CyclicReport, PeriodicReport,
                           cocyclic_bicomplex, cyclic_bicomplex,
                           cyclic_cohomology_both,
                           cyclic_cohomology_lambda, cyclic_homology_both,
                           cyclic_homology_lambda,
                           hochschild_cohomology, hochschild_homology,
                           induced_map_on_homology, lambda_quotient_subspaces,
                           one_minus_t, periodic_cohomology,
                           periodic_homology, xi_map,
                           xi_induced_on_cyclic_cohomology)
from homcyc.complexes import quotient_complex, total_complex
from homcyc.hochschild import (build_hochschild_homology_complex,
                               hochschild_b, tensor_power_matrix)
from homcyc.linalg import Matrix, reduce_mod, vanishes

F = Fraction

CORPUS = standard_corpus()


def ids(a):
    return a.name


@pytest.fixture(params=CORPUS, ids=ids, scope="module")
def algebra(request):
    return request.param


def test_hh_of_k2_is_k_in_every_degree():
    r = hochschild_homology(k2(), 6)
    assert all(r.betti[n] == 1 for n in range(7))


def test_hh_of_ground_field():
    r = hochschild_homology(ground_field(), 4)
    assert r.betti == {0: 1, 1: 0, 2: 0, 3: 0, 4: 0}


def test_two_dim_example_hh1():
    r = hochschild_homology(two_dim_unital(), 1)
    assert r.betti[1] == 1


def test_two_dim_example_hc1_zero():
    r = cyclic_homology_lambda(two_dim_unital(), 1)
    assert r.betti[1] == 0


def test_two_dim_lambda_boundary_value():
    """b(e1 (x) e1 (x) e2) is -2 e1 (x) e2 in the degree-1 lambda quotient."""
    A = two_dim_unital()
    V = regular_bimodule(A)
    b2 = hochschild_b(A, V, 2)
    # index of e1 (x) e1 (x) e2 with big-endian slots: (0,0,1) -> 1
    chain = Matrix.from_columns(8, [[int(i == 1) for i in range(8)]])
    img = b2 @ chain
    sub = lambda_quotient_subspaces(one_minus_t(A, 2))[1]
    reduced = reduce_mod(sub, img)
    # e1 (x) e2 has index (0,1) -> 1
    e1e2 = Matrix.from_columns(4, [[int(i == 1) for i in range(4)]])
    expected = reduce_mod(sub, e1e2.scale(-2))
    assert reduced == expected
    assert not expected.is_zero()


def test_method_agreement_homology(algebra):
    rep = cyclic_homology_both(algebra, 4)
    rep.require_agreement()


def test_method_agreement_cohomology(algebra):
    rep = cyclic_cohomology_both(algebra, 4)
    rep.require_agreement()


def test_duality_dimensions(algebra):
    hh = hochschild_homology(algebra, 4)
    hhco = hochschild_cohomology(algebra, 4)
    assert hh.betti == hhco.betti


def test_twist_reduction_swap():
    """An invertible twist does not change Hochschild homology."""
    tw = hochschild_homology(k_times_k_swap_twist(), 4).betti
    cl = hochschild_homology(k_times_k(), 4).betti
    assert tw == cl


def test_periodic_parity_ground_field():
    rep = periodic_homology(ground_field(), 5)
    assert all(rep.stabilized.values())
    assert [rep.betti[n] for n in range(6)] == [1, 0, 1, 0, 1, 0]
    classes = rep.parity_classes()
    assert classes[0] == {1} and classes[1] == {0}


def test_periodic_cohomology_ground_field():
    rep = periodic_cohomology(ground_field(), 3)
    assert all(rep.stabilized.values())
    assert [rep.betti[n] for n in range(4)] == [1, 0, 1, 0]


def test_periodic_window_is_shifted_cyclic():
    """Window P at degree n is HC_{n+P}, and the wider window HC_{n+P+2},
    checked against the independent lambda construction."""
    A = dual_numbers_projection_twist()  # HC_0..HC_4 = 2, 1, 4, 4, 8
    hc = cyclic_homology_lambda(A, 4).betti
    hc_co = cyclic_cohomology_lambda(A, 4).betti
    for window, n_max in ((0, 1), (2, 0)):
        rep = periodic_homology(A, n_max, window=window)
        rep_co = periodic_cohomology(A, n_max, window=window)
        for n in range(n_max + 1):
            assert rep.betti[n] == hc[n + window]
            assert rep.betti_wider[n] == hc[n + window + 2]
            assert rep_co.betti[n] == hc_co[n + window]
            assert rep_co.betti_wider[n] == hc_co[n + window + 2]


def test_periodic_rejects_odd_window():
    """Odd windows flip the column parities; negative ones would index
    HC below degree 0."""
    for window in (3, -2):
        with pytest.raises(ValueError):
            periodic_homology(ground_field(), 2, window=window)
        with pytest.raises(ValueError):
            periodic_cohomology(ground_field(), 2, window=window)


def test_periodic_matrix_2x2_is_periodic_of_k():
    """HP of M_2(k) is HP of k (Morita invariance): 1 in even and 0 in
    odd degree, at both windows."""
    A = matrix_2x2()
    for rep in (periodic_homology(A, 1), periodic_cohomology(A, 1)):
        assert [rep.betti[n] for n in rep.degrees] == [1, 0]
        assert [rep.betti_wider[n] for n in rep.degrees] == [1, 0]


def test_matrix_2x2_cyclic_homology_is_that_of_k():
    """HC of M_2(k) is HC(k) = 1, 0, 1, 0, 1 (Morita invariance), by
    the lambda quotient and the bicomplex alike, to degree 4."""
    rep = cyclic_homology_both(matrix_2x2(), 4)
    rep.require_agreement()
    assert [rep.betti_lambda[n] for n in range(5)] == [1, 0, 1, 0, 1]


def test_periodic_k2_stabilizes():
    rep = periodic_homology(k2(), 3)
    assert all(rep.stabilized.values())
    classes = rep.parity_classes()
    assert all(len(v) <= 1 for v in classes.values())


def test_cyclic_report_text_marks_a_disagreement():
    """A degree where the λ and bicomplex Betti numbers differ renders
    as NO.  No request prints it: `require_agreement` raises first."""
    rep = CyclicReport("A", (0, 1), {0: 1, 1: 2}, {0: 1, 1: 3},
                       cohomology=True)
    assert rep.to_text().splitlines() == [
        "cyclic cohomology of A (lambda vs bicomplex)",
        "  degree   lambda  bicomplex  agree",
        "       0        1          1    yes",
        "       1        2          3     NO"]


def test_periodic_report_text_marks_an_unstable_degree():
    rep = PeriodicReport("A", 4, (0, 1), {0: 1, 1: 2}, {0: 1, 1: 3})
    assert rep.to_text().splitlines() == [
        "periodic cyclic homology of A (window 4 vs 6)",
        "  degree  betti  wider  stable",
        "       0      1      1     yes",
        "       1      2      3      no"]


def test_report_flags_are_built_once():
    """Each report builds its {degree: bool} flags once, on first read."""
    rep = CyclicReport("A", (0, 1), {0: 1, 1: 2}, {0: 1, 1: 3})
    assert rep.agreement is rep.agreement == {0: True, 1: False}
    per = PeriodicReport("A", 4, (0, 1), {0: 1, 1: 2}, {0: 1, 1: 3})
    assert per.stabilized is per.stabilized == {0: True, 1: False}


def test_bicomplex_squares(algebra):
    B = cyclic_bicomplex(algebra, 3)
    B.check_squares()


def test_check_squares_evaluates_each_distinct_sum_once(monkeypatch):
    """Each row of the cyclic bicomplex shares b, -b', Id - t and N, and
    the cocyclic one transposes each shared map once, so both make 27
    distinct checks over their 45 cells at n_max = 5."""
    from homcyc import complexes
    calls = []
    vanishes = complexes.vanishes
    monkeypatch.setattr(complexes, "vanishes",
                        lambda *terms: calls.append(terms) or vanishes(*terms))
    for build in (cyclic_bicomplex, cocyclic_bicomplex):
        calls.clear()
        build(two_dim_unital(), 5).check_squares()
        assert len(calls) == 27
        assert len({tuple((s, id(a), id(b)) for s, a, b in terms)
                    for terms in calls}) == 27


def test_check_squares_evaluates_every_composite(monkeypatch):
    """In the cyclic and the cocyclic bicomplex, every composite of two
    stored maps that lands in a cell is among the terms `check_squares`
    evaluates."""
    from homcyc import complexes
    calls = []
    vanishes = complexes.vanishes
    monkeypatch.setattr(complexes, "vanishes",
                        lambda *terms: calls.append(terms) or vanishes(*terms))
    # s: the degree each map lands in, minus the degree it leaves
    for build, s in ((cyclic_bicomplex, -1), (cocyclic_bicomplex, 1)):
        calls.clear()
        B = build(two_dim_unital(), 5)
        B.check_squares()
        evaluated = {(id(a), id(b)) for terms in calls for _, a, b in terms}
        v, h = B.vertical, B.horizontal
        composites = 0
        for (p, q) in B.cell_dims:
            for second, mid, first, tgt in [
                    (v, (p, q + s), v, (p, q + 2 * s)),
                    (h, (p + s, q), h, (p + 2 * s, q)),
                    (v, (p + s, q), h, (p + s, q + s)),
                    (h, (p, q + s), v, (p + s, q + s))]:
                if tgt in B.cell_dims and mid in second and (p, q) in first:
                    composites += 1
                    assert (id(second[mid]), id(first[(p, q)])) in evaluated
        assert composites


@pytest.mark.parametrize("make", [
    ground_field, k2, k1_plus_k2, two_dim_unital, k_times_k, dual_numbers,
    truncated_polynomials, matrix_2x2, dual_numbers_projection_twist],
    ids=lambda f: f.__name__)
def test_total_complex_matches_hand_assembly(make):
    """The total complexes of the cyclic and the cocyclic bicomplex have
    the dimensions and differentials of the block-by-block assembly of
    the reference b, -b', Id - t and N, at every n_max <= 3."""
    A = make()
    V = regular_bimodule(A)
    top = 4
    b = {q: ref.hochschild_b(A, V, q) for q in range(1, top + 1)}
    minus_bp = {q: [[-x for x in r] for r in ref.b_prime(A, q)]
                for q in range(1, top)}
    one_minus_t = {q: [[(i == j) - x for j, x in enumerate(r)]
                       for i, r in enumerate(ref.cyclic_t(A, q))]
                   for q in range(top)}
    N = {q: ref.rotation_power_sum(A, q, [1] * (q + 1))
         for q in range(top - 1)}
    for n_max in range(top):
        cells = {(p, q): A.dim ** (q + 1)
                 for p in range(n_max + 2) for q in range(n_max + 2 - p)}
        v = {(p, q): minus_bp[q] if p % 2 else b[q] for p, q in cells if q}
        h = {(p, q): one_minus_t[q] if p % 2 else N[q] for p, q in cells if p}
        # cocyclic: every map transposed, every arrow reversed
        co_v = {(p, q - 1): [list(c) for c in zip(*m)]
                for (p, q), m in v.items()}
        co_h = {(p - 1, q): [list(c) for c in zip(*m)]
                for (p, q), m in h.items()}
        for B, maps in [(cyclic_bicomplex(A, n_max), (v, h, -1)),
                        (cocyclic_bicomplex(A, n_max), (co_v, co_h, 1))]:
            dims, diffs = ref.total_differentials(cells, *maps)
            T = total_complex(B)
            assert T.dims == dims
            assert {n: T.differential(n).to_rows() for n in T.diffs} == diffs


def test_tensor_power_matrix():
    m = Matrix.from_rows([[0, 1], [1, 0]])
    m2 = tensor_power_matrix(m, 2)
    assert m2.rows == 4
    # (e1 (x) e2) -> (e2 (x) e1): index 1 -> index 2
    v = tuple(F(int(i == 1)) for i in range(4))
    assert m2.apply(v) == tuple(F(int(i == 2)) for i in range(4))


def test_induced_map_identity_is_identity():
    A = two_dim_unital()
    f = AlgebraMorphism(A, A, Matrix.identity(2))
    for n in range(3):
        m = induced_map_on_homology(f, "HH", n)
        assert m == Matrix.identity(m.rows)
        mc = induced_map_on_homology(f, "HC", n)
        assert mc == Matrix.identity(mc.rows)


def test_hc_induced_map_builds_one_lambda_family(monkeypatch):
    """Id - t depends on the dimension and the degree alone, so an HC
    map between algebras of one dimension builds the λ subspaces once,
    for the source, and both quotient complexes share them; between
    dimensions each side builds its own, and HH builds none.  A family
    is named by its algebra's dimension, the size of Id - t_0, and its
    top degree."""
    calls = []
    build = cyclic.lambda_quotient_subspaces
    monkeypatch.setattr(cyclic, "lambda_quotient_subspaces",
                        lambda maps: calls.append((maps[0].rows, max(maps)))
                        or build(maps))
    A = two_dim_unital()
    half, _ = load_algebra(str(HALF))
    f = AlgebraMorphism(A, half, Matrix.from_rows([[2, 0], [0, 1]]))
    induced_map_on_homology(f, "HC", 2)
    assert calls == [(2, 3)]
    calls.clear()
    induced_map_on_homology(f, "HH", 2)
    assert calls == []
    g = AlgebraMorphism(ground_field(), k_times_k(),
                        Matrix.from_rows([[1], [1]]))
    induced_map_on_homology(g, "HC", 1)
    assert calls == [(1, 2), (2, 2)]


def test_induced_map_inclusion():
    A = ground_field()
    B = k_times_k()
    f = AlgebraMorphism(A, B, Matrix.from_rows([[1], [0]]))
    m = induced_map_on_homology(f, "HH", 0)
    assert m.cols == 1 and m.rows == 2
    assert any(m.col(0))


def test_induced_map_rejects_non_morphism():
    A = ground_field()
    B = k_times_k()
    f = AlgebraMorphism(A, B, Matrix.from_rows([[1], [2]]))
    with pytest.raises(ChainMapError):
        induced_map_on_homology(f, "HH", 1)


HALF = Path(__file__).parent / "golden" / "algebra-two_dim_unital_half.json"


def _degree(C, n):
    """(map out of n, map into n, dim C_n) as dense rows."""
    return (C.differential(n).to_rows(),
            C.differential(C.incoming(n)).to_rows(), C.dim(n))


@pytest.mark.parametrize("theory", ["HH", "HC"])
def test_induced_maps_match_per_vector_reference(theory):
    """Along two_dim_unital -> its basis e1/2, e2, the induced map on
    HH_n and HC_n, n <= 3, is that of pushing each representative
    through the chain map and reducing it vector by vector.  The λ
    quotients and the map on them come from the reference too."""
    A = two_dim_unital()
    half, _ = load_algebra(str(HALF))
    f = AlgebraMorphism(A, half, Matrix.from_rows([[2, 0], [0, 1]]))
    CA, CB = (build_hochschild_homology_complex(X, regular_bimodule(X), 4)
              for X in (A, half))
    subsA = lambda_quotient_subspaces(one_minus_t(A, 4))
    subsB = lambda_quotient_subspaces(one_minus_t(half, 4))
    for n in range(4):
        t = tensor_power_matrix(f.matrix, n + 1)
        if theory == "HH":
            src, tgt, m = _degree(CA, n), _degree(CB, n), t.to_rows()
        else:
            src, tgt = ((ref.induced_on_quotient(C.differential(n), s[n],
                                                 s[n - 1]) if n else [],
                         ref.induced_on_quotient(C.differential(n + 1),
                                                 s[n + 1], s[n]),
                         C.dim(n) - s[n].dim)
                        for C, s in ((CA, subsA), (CB, subsB)))
            m = ref.induced_on_quotient(t, subsA[n], subsB[n])
        assert induced_map_on_homology(f, theory, n).to_rows() == \
            ref.homology_matrix(src, tgt, m)


def test_xi_map_commutes():
    assoc = dual_numbers()
    tw = dual_numbers_projection_twist()
    for n in range(3):
        xi = xi_map(assoc, tw, n)
        assert xi.rows == 2 ** (n + 1)


def test_xi_induced_on_cyclic_cohomology():
    """HC^0 = traces, full on both commutative algebras.  Each degree's
    representatives are reduced modulo the image of d^(n-1), the map
    into degree n of a cochain complex, not of d^(n+1)."""
    assoc = dual_numbers()
    tw = dual_numbers_projection_twist()
    shapes = [(2, 2), (1, 0), (4, 2), (4, 0)]
    for n, shape in enumerate(shapes):
        m = xi_induced_on_cyclic_cohomology(assoc, tw, n)
        assert (m.rows, m.cols) == shape


def test_xi_rejects_non_idempotent():
    with pytest.raises(ValueError):
        xi_map(k_times_k(), k_times_k_swap_twist(), 1)


def test_lambda_quotient_differentials_match_reference(algebra):
    """The λ-quotient differentials equal those of the earlier
    construction through row-reduced coset representatives."""
    top = 3 if algebra.dim <= 2 else 1
    C = build_hochschild_homology_complex(algebra, regular_bimodule(algebra),
                                          top)
    subs = lambda_quotient_subspaces(one_minus_t(algebra, top))
    Q = quotient_complex(C, subs)
    for n in range(1, top + 1):
        assert Q.differential(n).to_rows() == ref.induced_on_quotient(
            C.differential(n), subs[n], subs[n - 1])


def test_total_complex_evaluates_only_the_distinct_squares(monkeypatch):
    """Tot's d o d is the bicomplex's squares, block by block, so the
    total complexes of the cyclic and the cocyclic bicomplex evaluate
    the 27 distinct sums of `check_squares` and nothing more."""
    from homcyc import complexes
    calls = []
    vanishes = complexes.vanishes
    monkeypatch.setattr(complexes, "vanishes",
                        lambda *terms: calls.append(terms) or vanishes(*terms))
    for build in (cyclic_bicomplex, cocyclic_bicomplex):
        B = build(two_dim_unital(), 5)
        calls.clear()
        B.check_squares()
        squares = {tuple((s, id(a), id(b)) for s, a, b in terms)
                   for terms in calls}
        calls.clear()
        total_complex(B)
        assert len(calls) == 27
        assert {tuple((s, id(a), id(b)) for s, a, b in terms)
                for terms in calls} == squares


@pytest.mark.parametrize("run", [cyclic_homology_both, cyclic_cohomology_both,
                                 cyclic_homology_lambda,
                                 cyclic_cohomology_lambda],
                         ids=["homology", "cohomology", "homology-lambda",
                              "cohomology-lambda"])
def test_both_builds_each_operator_once(monkeypatch, run):
    """One `both` or λ request builds one (co)cyclic bicomplex and reads
    the λ side off it: t in degrees 0..n_max + 1, N in 0..n_max - 1 and
    b' in 1..n_max + 1, each once."""
    from homcyc import hochschild
    built = []
    for module, name in [(cyclic, "cyclic_t"), (cyclic, "norm_N"),
                         (hochschild, "b_prime")]:
        def counted(A, n, *held, _name=name, _op=getattr(module, name)):
            built.append((_name, n))
            return _op(A, n, *held)
        monkeypatch.setattr(module, name, counted)
    n_max = 3
    rep = run(dual_numbers_projection_twist(), n_max)
    if isinstance(rep, CyclicReport):
        rep.require_agreement()
    assert sorted(built) == sorted(
        [("cyclic_t", q) for q in range(n_max + 2)] +
        [("norm_N", q) for q in range(n_max)] +
        [("b_prime", q) for q in range(1, n_max + 2)])


@pytest.mark.parametrize("both", [cyclic_homology_both,
                                  cyclic_cohomology_both],
                         ids=["homology", "cohomology"])
def test_both_lets_the_lambda_side_go_before_the_total_complex(
        monkeypatch, both):
    """When the total complex is built, the λ complex and its subspaces
    are garbage: only the bicomplex is held through it."""
    import gc
    import weakref
    refs = []
    for name in ("quotient_complex", "sub_complex"):
        def recorded(C, subs, _build=getattr(cyclic, name)):
            out = _build(C, subs)
            refs.extend([weakref.ref(out), weakref.ref(subs[1])])
            return out
        monkeypatch.setattr(cyclic, name, recorded)
    alive = []
    total = cyclic.total_complex

    def checked(B):
        gc.collect()
        alive.extend(r() is not None for r in refs)
        return total(B)

    monkeypatch.setattr(cyclic, "total_complex", checked)
    both(two_dim_unital(), 3).require_agreement()
    assert alive == [False, False]


def test_both_checks_the_coefficients_of_the_lambda_side(monkeypatch):
    """The λ side keeps its coefficient checks: on a fresh algebra a
    homology request, λ or both, checks the regular bimodule's homology
    hypotheses, and on the shear twist of mat2, whose A* is no dual
    bimodule, the cohomology request raises the λ method's
    CoefficientError."""
    from homcyc import hochschild
    from homcyc.algebra import yau_twist
    from homcyc.errors import CoefficientError
    checked = []
    validate = hochschild.validate_homology_coefficients
    monkeypatch.setattr(hochschild, "validate_homology_coefficients",
                        lambda V: checked.append(V.name) or validate(V))
    for run in (cyclic_homology_lambda, cyclic_homology_both):
        checked.clear()
        run(k1_plus_k2(), 2)
        assert checked == ["k1+k2-regular"]
    g_conj = Matrix.from_columns(4, [[1, -1, 0, 0], [0, 1, 0, 0],
                                     [1, -1, 1, -1], [0, 1, 0, 1]])
    errors = []
    for run in (cyclic_cohomology_lambda, cyclic_cohomology_both):
        with pytest.raises(CoefficientError) as info:
            run(yau_twist(matrix_2x2(), g_conj, name="mat2_shear"), 1)
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    assert "dual-bimodule-compat fails at (1,1,1)" in errors[1]
