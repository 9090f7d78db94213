"""Bimodules, dual bimodules, and the restricted dual of functionals."""

import pytest

from homcyc.coefficients import (CoefficientError, a_circ,
                                 check_bimodule_axioms,
                                 check_dual_bimodule_axioms, coregular_dual,
                                 dualize_bimodule, regular_bimodule,
                                 validate_homology_coefficients)
from homcyc.corpus import (dual_numbers, ground_field, k_times_k,
                           k_times_k_swap_twist, matrix_2x2, standard_corpus,
                           two_dim_unital)


def test_regular_bimodule_axioms_on_corpus():
    for A in standard_corpus():
        V = regular_bimodule(A)
        assert not check_bimodule_axioms(V)
        ok, bad = validate_homology_coefficients(V)
        assert ok, bad


def test_dual_bimodule_axioms_on_corpus():
    for A in standard_corpus():
        W = dualize_bimodule(regular_bimodule(A))
        assert not check_dual_bimodule_axioms(W)


def test_dual_actions_are_transposes():
    A = two_dim_unital()
    V = regular_bimodule(A)
    W = dualize_bimodule(V)
    for a in range(A.dim):
        assert W.left[a] == V.right[a].transpose()
        assert W.right[a] == V.left[a].transpose()
    assert W.beta == V.beta.transpose()


def test_a_circ_full_for_unital_or_associative():
    # unital or associative -> the functional constraints are vacuous
    for A in [two_dim_unital(), ground_field(), k_times_k(), dual_numbers(),
              matrix_2x2()]:
        rd = a_circ(A)
        assert rd.subspace.dim == A.dim
        assert not check_bimodule_axioms(rd.bimodule)


def test_a_circ_bimodule_validates_on_corpus():
    for A in standard_corpus():
        rd = a_circ(A)
        assert not check_bimodule_axioms(rd.bimodule)


def test_coregular_dual_requires_centroid():
    # swap twist of k x k: alpha(u)v != u alpha(v), not centroid
    with pytest.raises(CoefficientError):
        coregular_dual(k_times_k_swap_twist())
    V = coregular_dual(two_dim_unital())
    assert not check_bimodule_axioms(V)


def test_regular_bimodule_is_kept_per_algebra_instance(monkeypatch):
    """Built and axiom-checked once per instance; an equal algebra under
    another name gets its own bimodule, and its reports keep that name."""
    from homcyc import coefficients, hochschild_homology
    from homcyc.records import replace
    checked = []
    check = coefficients.check_bimodule_axioms
    monkeypatch.setattr(coefficients, "check_bimodule_axioms",
                        lambda V: checked.append(V.name) or check(V))
    A = two_dim_unital()
    B = replace(A, name="renamed")
    assert A == B
    VA, VB = regular_bimodule(A), regular_bimodule(B)
    assert regular_bimodule(A) is VA and regular_bimodule(B) is VB
    assert (VA.name, VB.name) == ("two_dim_unital-regular", "renamed-regular")
    assert hochschild_homology(B, 1).coefficient_name == "renamed-regular"
    assert hochschild_homology(A, 1).coefficient_name == \
        "two_dim_unital-regular"
    assert checked == ["two_dim_unital-regular", "renamed-regular"]


def test_dual_bimodule_is_kept_per_bimodule(monkeypatch):
    """The dual of a bimodule is built and checked once per instance,
    however many cochain jobs use it.  An equal bimodule instance gets
    its own dual."""
    from homcyc import (coefficients, cyclic_cohomology_both,
                        hochschild_cohomology)
    from homcyc.records import replace
    checked = []
    check = coefficients.check_dual_bimodule_axioms
    monkeypatch.setattr(coefficients, "check_dual_bimodule_axioms",
                        lambda W: checked.append(W.name) or check(W))
    A = two_dim_unital()
    V = regular_bimodule(A)
    W = dualize_bimodule(V)
    assert dualize_bimodule(V) is W and W.dual
    hochschild_cohomology(A, 2)
    hochschild_cohomology(A, 2)
    cyclic_cohomology_both(A, 1).require_agreement()
    assert checked == ["two_dim_unital-regular-dual"]
    U = replace(V)
    assert U == V and U is not V
    assert dualize_bimodule(U) is not W
    assert dualize_bimodule(U) == W
    assert len(checked) == 2


def test_chain_data_is_built_once_per_bimodule(monkeypatch):
    """A checked HH-co build asks for the chain data at every coboundary
    and coface; the actions are built once per bimodule: the regular
    one's and its dual's for their axioms, and the dual's transposed
    data once, for its chain data."""
    from homcyc import coefficients, hochschild_cohomology
    seen = []
    actions = coefficients._actions
    monkeypatch.setattr(coefficients, "_actions",
                        lambda V: seen.append(V) or actions(V))
    A = two_dim_unital()
    hochschild_cohomology(A, 4)
    V = regular_bimodule(A)
    W = dualize_bimodule(V)
    assert len(seen) == 3
    assert seen[0] is V and seen[1] is W
    assert seen[2] is not V and seen[2] is not W
    assert coefficients.chain_data(W) is coefficients.chain_data(W)
    assert len(seen) == 3


def test_actions_are_built_once_per_bimodule(monkeypatch):
    """A checked HH build reads the regular bimodule's L and R three
    times: for its axioms, for the homology hypotheses and for its chain
    data.  They are built once, on the first read, and kept on it."""
    from homcyc import coefficients, hochschild_homology
    asked, built = [], []
    actions, relabel = coefficients._actions, coefficients.permute_columns
    monkeypatch.setattr(coefficients, "_actions",
                        lambda V: asked.append(V.name) or actions(V))
    monkeypatch.setattr(
        coefficients, "permute_columns",
        lambda m, perm: built.append(m.rows) or relabel(m, perm))
    A = two_dim_unital()
    hochschild_homology(A, 4)
    assert asked == ["two_dim_unital-regular"] * 3
    assert built == [2]
    V = regular_bimodule(A)
    assert coefficients.chain_data(V)[:2] == actions(V)
    assert built == [2]
