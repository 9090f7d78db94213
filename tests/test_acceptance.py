"""Acceptance suite: ten independently checkable claims about the engine.

Each test prints a single PASS/FAIL line (bypassing capture) so the
criteria can be audited from the test log at a glance.
"""

import sys
import time
from fractions import Fraction
from math import comb

from homcyc.algebra import alpha_is_idempotent, find_unit, validate
from homcyc.cocycles import (Functional, TwistedDerivation,
                             derivation_cocycle, is_cyclic_cocycle,
                             trace_space)
from homcyc.coefficients import (a_circ, check_bimodule_axioms,
                                 dualize_bimodule, regular_bimodule)
from homcyc.corpus import (dual_numbers, ground_field, k1_plus_k2, k2,
                           k_times_k, k_times_k_swap_twist, matrix_2x2,
                           standard_corpus, truncated_polynomials,
                           two_dim_unital)
from homcyc.cyclic import (cyclic_bicomplex, cyclic_cohomology_both,
                           cyclic_cohomology_lambda, cyclic_homology_both,
                           cyclic_homology_lambda, hochschild_cohomology,
                           hochschild_homology, lambda_quotient_subspaces,
                           periodic_homology)
from homcyc.hochschild import (b_prime, check_presimplicial, cyclic_t,
                               face_map, hochschild_b, homotopy_theta,
                               norm_N)
from homcyc.linalg import Matrix, image, kernel, reduce_mod

F = Fraction


def report(num: int, ok: bool, label: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}: {label}", file=sys.__stdout__, flush=True)


def test_criterion_1_two_dim_example_regression():
    t0 = time.time()
    A = two_dim_unital()
    alg, rep = validate(A.dim, A.basis_names, A.mu, A.alpha)
    ok = alg is not None and rep.multiplicative
    ok = ok and find_unit(A) == (F(1), F(0))
    ok = ok and alpha_is_idempotent(A)
    ok = ok and hochschild_homology(A, 1).betti[1] == 1
    ok = ok and cyclic_homology_lambda(A, 1).betti[1] == 0
    # b(e1 (x) e1 (x) e2) = -2 [e1 (x) e2] in the degree-1 lambda quotient
    V = regular_bimodule(A)
    chain = Matrix.from_columns(8, [[int(i == 1) for i in range(8)]])
    img = hochschild_b(A, V, 2) @ chain
    sub = lambda_quotient_subspaces(A, 2)[1]
    e1e2 = Matrix.from_columns(4, [[int(i == 1) for i in range(4)]])
    ok = ok and reduce_mod(sub, img) == reduce_mod(sub, e1e2.scale(-2))
    elapsed = time.time() - t0
    ok = ok and elapsed < 5
    report(1, ok, "2-dim example: unit, twist, HH1=1, HC1=0, "
                  "boundary value in the quotient")
    assert ok


def test_criterion_2_k2_tower():
    t0 = time.time()
    r = hochschild_homology(k2(), 6)
    ok = all(r.betti[i] == 1 for i in range(7))
    elapsed = time.time() - t0
    ok = ok and elapsed < 1
    report(2, ok, "HH_i of the twist-killed 1-dim algebra is k for i <= 6")
    assert ok


def test_criterion_3_non_additivity():
    t0 = time.time()
    S = k1_plus_k2()
    hh_sum = hochschild_homology(S, 5).betti
    hh_1 = hochschild_homology(ground_field(), 5).betti
    hh_2 = hochschild_homology(k2(), 5).betti
    ok = True
    for n in range(6):
        lower = sum(comb(n + 1, j) for j in range(3, n + 2))
        ok = ok and hh_sum[n] >= lower
    for n in range(2, 6):
        ok = ok and hh_sum[n] > hh_1[n] + hh_2[n]
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    report(3, ok, "HH of a direct sum exceeds the sum of the parts")
    assert ok


def test_criterion_4_method_equivalence():
    ok = True
    for A in standard_corpus():
        hc = cyclic_homology_both(A, 4)
        hcc = cyclic_cohomology_both(A, 4)
        ok = ok and all(hc.agreement.values()) and all(hcc.agreement.values())
    report(4, ok, "lambda and bicomplex Betti numbers agree, degrees <= 4")
    assert ok


def test_criterion_5_operator_identity_suite():
    n_max = 5
    ok = True
    for A in standard_corpus():
        V = regular_bimodule(A)
        W = dualize_bimodule(V)
        try:
            for n in range(2, n_max + 1):
                check_presimplicial(A, V, n)
            for n in range(0, 4):  # pre-cosimplicial on C^n
                check_presimplicial(A, W, n + 2)
        except Exception:
            ok = False
        for n in range(1, n_max + 1):
            b_n = hochschild_b(A, V, n)
            bp_n = b_prime(A, n)
            t_n = cyclic_t(A, n)
            t_prev = cyclic_t(A, n - 1)
            id_n = Matrix.identity(t_n.rows)
            id_prev = Matrix.identity(t_prev.rows)
            if n >= 2:
                ok = ok and (hochschild_b(A, V, n - 1) @ b_n).is_zero()
                ok = ok and (b_prime(A, n - 1) @ bp_n).is_zero()
            ok = ok and (id_prev - t_prev) @ bp_n == b_n @ (id_n - t_n)
            ok = ok and bp_n @ norm_N(A, n) == norm_N(A, n - 1) @ b_n
            faces = [face_map(A, V, n, i) for i in range(n + 1)]
            sign = 1 if n % 2 == 0 else -1
            ok = ok and faces[0] @ t_n == faces[n].scale(sign)
        for n in range(0, n_max + 1):
            t = cyclic_t(A, n)
            ident = Matrix.identity(t.rows)
            N = norm_N(A, n)
            ok = ok and (N @ (ident - t)).is_zero()
            ok = ok and ((ident - t) @ N).is_zero()
            ok = ok and N + homotopy_theta(A, n) @ (ident - t) == \
                ident.scale(n + 1)
            # row exactness of the cyclic bicomplex
            ok = ok and kernel(ident - t) == image(N)
            ok = ok and kernel(N) == image(ident - t)
    report(5, ok, "chain-level operator identities hold exactly, "
                  "degrees <= 5")
    assert ok


def test_criterion_6_duality():
    ok = True
    for A in standard_corpus():
        hh = hochschild_homology(A, 4).betti
        hhco = hochschild_cohomology(A, 4).betti
        ok = ok and hh == hhco
    report(6, ok, "dim H_n(A, A) = dim H^n(A, A*) for n <= 4")
    assert ok


def test_criterion_7_twist_reduction():
    tw = hochschild_homology(k_times_k_swap_twist(), 4).betti
    cl = hochschild_homology(k_times_k(), 4).betti
    ok = tw == cl
    report(7, ok, "invertible twist preserves Hochschild homology")
    assert ok


def test_criterion_8_restricted_dual():
    ok = True
    for A in [two_dim_unital(), ground_field(), k2(), k_times_k(),
              dual_numbers(), matrix_2x2(), truncated_polynomials()]:
        # unital or associative: the functional constraints are vacuous
        ok = ok and a_circ(A).subspace.dim == A.dim
    for A in standard_corpus():
        ok = ok and not check_bimodule_axioms(a_circ(A).bimodule)
    report(8, ok, "restricted dual has full dimension and valid "
                  "bimodule structure")
    assert ok


def test_criterion_9_cocycles():
    ok = True
    # every valid derivation/trace input yields a verified cyclic cocycle
    cases = [
        (truncated_polynomials(),
         TwistedDerivation(Matrix.from_rows(
             [[0, 0, 0], [0, 1, 0], [0, 0, 2]])),
         Functional(0, (F(1), F(0), F(0)))),
        (matrix_2x2(),
         TwistedDerivation(Matrix.from_rows(
             [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0]])),
         None),
        (two_dim_unital(), TwistedDerivation(Matrix.zero(2, 2)), None),
    ]
    for A, rho, tr in cases:
        if tr is None:
            tr = Functional(0, trace_space(A).basis[0])
        phi = derivation_cocycle(A, rho, tr)
        ok = ok and is_cyclic_cocycle(phi, A).is_cocycle
    for A in standard_corpus():
        hc0 = cyclic_cohomology_lambda(A, 0).betti[0]
        ok = ok and trace_space(A).dim == hc0
    report(9, ok, "derivation cocycles verify; trace space = HC^0")
    assert ok


def test_criterion_10_periodic_parity():
    ok = True
    for A in [ground_field(), k2(), two_dim_unital()]:
        rep = periodic_homology(A, 3 if A.dim == 1 else 2)
        classes = rep.parity_classes()
        # on stabilized degrees the value depends only on parity
        ok = ok and all(len(v) <= 1 for v in classes.values())
    repk = periodic_homology(ground_field(), 3)
    ok = ok and all(repk.stabilized.values())
    ok = ok and [repk.betti[n] for n in range(4)] == [1, 0, 1, 0]
    report(10, ok, "periodic Betti numbers depend only on parity where "
                   "stabilized; pattern for k is (1, 0)")
    assert ok
