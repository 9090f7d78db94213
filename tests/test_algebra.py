"""Algebra validation, units, twists, decompositions, unitalization."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homcyc import corpus
from homcyc.algebra import (AlgebraMorphism, DecompositionError,
                            NotAnAlgebraMapError, ShapeError,
                            ValidationError, Violation,
                            alpha_is_idempotent, direct_sum, find_unit,
                            idempotent_twist_decompose, is_associative,
                            is_centroid_element, load_algebra,
                            scalar_from_string, unital_decompose, unitalize,
                            validate,
                            validate_morphism, validate_or_raise, yau_twist)
from homcyc.corpus import (dual_numbers, dual_numbers_projection_twist,
                           ground_field, k2, k_times_k, k_times_k_swap_twist,
                           matrix_2x2, standard_corpus, truncated_polynomials,
                           two_dim_unital)
from homcyc.linalg import Matrix, image, kernel, rank

F = Fraction

# every corpus algebra, the closed-form families at one small size each
CORPUS = [make() for make in (
    corpus.two_dim_unital, corpus.ground_field, corpus.k2, corpus.k1_plus_k2,
    corpus.k_times_k, corpus.k_times_k_swap_twist, corpus.dual_numbers,
    corpus.dual_numbers_projection_twist, corpus.k_times_k_projection_twist,
    corpus.truncated_polynomials, corpus.upper_triangular_algebra,
    corpus.matrix_2x2)] + [corpus.truncated_polynomial_algebra(4),
                           corpus.cyclic_group_algebra(3)]


def test_corpus_all_validate():
    for A in standard_corpus() + [k_times_k(), k_times_k_swap_twist(),
                                  dual_numbers(), matrix_2x2(),
                                  truncated_polynomials()]:
        assert A.dim >= 1
        # validate_or_raise already ran at construction; re-run explicitly
        alg, report = validate(A.dim, A.basis_names, A.mu, A.alpha, A.name)
        assert alg is not None and report.multiplicative


def test_two_dim_example_properties():
    A = two_dim_unital()
    assert find_unit(A) == (F(1), F(0))
    assert alpha_is_idempotent(A)
    ok, _ = is_centroid_element(A)
    assert ok
    # the product itself is associative; the twist is what is nontrivial
    assert is_associative(A)
    # alpha(e1) = e1 - e2, alpha(e2) = 0
    assert A.apply_alpha(A.basis_vector(0)) == (F(1), F(-1))
    assert A.apply_alpha(A.basis_vector(1)) == (F(0), F(0))


def test_invalid_algebra_rejected():
    # e1*e1 = e2, e2*e2 = e1 with alpha = Id is not Hom-associative
    mu = [
        [[0, 1], [0, 0]],
        [[0, 0], [1, 0]],
    ]
    alg, report = validate(2, ("a", "b"), mu, Matrix.identity(2))
    assert alg is None
    assert report.violations


def test_non_multiplicative_flagged():
    # dual numbers with alpha(x) = 1 is an endo of the vector space only
    bad = Matrix.from_rows([[1, 1], [0, 0]])
    alg, report = validate(2, ("one", "x"),
                           dual_numbers().mu, bad)
    assert not report.multiplicative


def test_shape_errors():
    with pytest.raises(ShapeError):
        validate(2, ("a",), dual_numbers().mu, Matrix.identity(2))
    with pytest.raises(ShapeError):
        validate(2, ("a", "b"), [[[1]]], Matrix.identity(2))


def test_scalar_digit_limit():
    """A literal is refused when its numerator or denominator as written
    would pass the int-string digit limit, and read exactly at it."""
    limit = sys.get_int_max_str_digits()
    assert scalar_from_string(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert scalar_from_string(f"-1E-{limit - 1}") == F(-1, 10 ** (limit - 1))
    assert scalar_from_string("0." + "5" * (limit - 1)) == \
        F(int("5" * (limit - 1)), 10 ** (limit - 1))
    assert scalar_from_string(f"{'7' * limit}/{'3' * limit}") == \
        F(int("7" * limit), int("3" * limit))
    assert scalar_from_string("1_000e1_0") == 10 ** 13
    for s in [f"1e{limit}", f"1e-{limit}", "0." + "5" * limit,
              "12." + "5" * (limit - 1), "7" * (limit + 1),
              "1/" + "3" * (limit + 1), f"1e{'0' * limit}1", "1e10000000"]:
        with pytest.raises(ValueError):
            scalar_from_string(s)


def test_load_algebra_round_trip(tmp_path):
    A = two_dim_unital()
    p = tmp_path / "alg.json"
    p.write_text(A.to_json())
    B, report = load_algebra(str(p))
    assert B is not None and report.multiplicative
    assert B.mu == A.mu and B.alpha == A.alpha
    B, _ = load_algebra(p)  # a path object reads the same file
    assert B.mu == A.mu and B.alpha == A.alpha


@pytest.mark.parametrize("arg", [[1], None, 3, ("alg.json",)],
                         ids=["list", "none", "int", "tuple"])
def test_load_algebra_refuses_what_is_neither_dict_nor_path(arg):
    with pytest.raises(ShapeError, match="an algebra is a dict or a path"):
        load_algebra(arg)


def test_validation_error_names_an_entry_too_long_to_print():
    """A first violation whose entries have more digits than an int
    prints with is still a ValidationError: the entry is written as its
    digit count.  e1 e1 = 10^5000 e1 and alpha = diag(2, 1) break
    multiplicativity at (1, 1) with 2 * 10^5000 against 4 * 10^5000."""
    mu = [[[10 ** 5000, 0], [0, 0]], [[0, 0], [0, 0]]]
    with pytest.raises(ValidationError) as info:
        validate_or_raise(2, ["e1", "e2"], mu,
                          Matrix.from_rows([[2, 0], [0, 1]]), "big")
    assert "multiplicativity fails at (1,1): lhs=['<5001 digits>', '0'] " \
        "rhs=['<5001 digits>', '0']" in str(info.value)
    huge = 10 ** sys.get_int_max_str_digits()
    assert str(Violation("a", (0,), (F(-huge, 3), F(1, 2)), (F(1, huge),))) \
        == "a fails at (1): lhs=['-<%d digits>/3', '1/2'] " \
        "rhs=['1/<%d digits>']" % ((sys.get_int_max_str_digits() + 1,) * 2)


def test_yau_twist_matches_example():
    # twisting the associative version of the 2-dim algebra by its alpha
    # reproduces the example's product
    mu_assoc = [
        [[1, 0], [0, 1]],
        [[0, 1], [0, 1]],
    ]
    # that product with alpha = Id: e1 is a left unit; check associativity
    assoc = validate_or_raise(2, ("e1", "e2"), mu_assoc, Matrix.identity(2),
                              name="assoc2")
    assert is_associative(assoc)
    alpha = Matrix.from_rows([[1, 0], [-1, 0]])
    tw = yau_twist(assoc, alpha)
    # mu_alpha(e1, e1) = alpha(e1) = e1 - e2
    assert tw.mu[0][0] == (F(1), F(-1))
    assert tw.mu[1][1] == (F(0), F(0))


def test_yau_twist_rejects_non_endomorphism():
    A = k_times_k()
    not_endo = Matrix.from_rows([[1, 1], [0, 1]])
    with pytest.raises(NotAnAlgebraMapError):
        yau_twist(A, not_endo)


def test_yau_twist_requires_associative_identity_input():
    with pytest.raises(ValueError):
        yau_twist(two_dim_unital(), Matrix.identity(2))


def test_find_unit():
    assert find_unit(ground_field()) == (F(1),)
    assert find_unit(k_times_k()) == (F(1), F(1))
    assert find_unit(matrix_2x2()) == (F(1), F(0), F(0), F(1))
    # zero algebra has no unit
    zero, _ = validate(1, ("z",), [[[0]]], Matrix.zero(1, 1))
    assert find_unit(zero) is None


def test_unital_decompose_two_dim():
    A = two_dim_unital()
    dec = unital_decompose(A)
    a1, a2 = dec.part_unital_associative, dec.part_complement
    assert a1.dim == 1 and a2.dim == 1
    assert is_associative(a1)
    assert find_unit(a1) is not None
    # A1 = span(e1 - e2) = A.x with x = alpha(1)
    x = A.apply_alpha(find_unit(A))
    assert dec.basis_a1 == (tuple(x),) or any(
        all(v == c * w for v, w in zip(x, b)) for b in dec.basis_a1
        for c in [F(1), F(-1)])
    # change of basis is invertible
    from homcyc.linalg import rank
    assert rank(dec.change_of_basis) == A.dim


def test_unital_decompose_requires_unit():
    zero, _ = validate(1, ("z",), [[[0]]], Matrix.zero(1, 1))
    with pytest.raises(ValueError, match="no unit"):
        unital_decompose(zero)


def test_decompositions_report_a_zero_summand_as_none():
    """alpha(1) = 1 on ground_field, so A2 = A(1 - alpha(1)) is zero;
    alpha(1) = 0 on k2, so A1 is zero; and ground_field's alpha = Id has
    a zero kernel.  Each zero summand is None with an empty basis, and
    the summand dimensions add up to dim A."""
    dec = unital_decompose(ground_field())
    assert dec.part_complement is None and dec.basis_a2 == ()
    assert dec.part_unital_associative.dim == 1
    dec = unital_decompose(k2())
    assert dec.part_unital_associative is None and dec.basis_a1 == ()
    assert dec.part_complement.dim == 1
    K, B = idempotent_twist_decompose(ground_field())
    assert K is None and B.dim == 1


def test_idempotent_twist_decompose():
    A = dual_numbers_projection_twist()
    K, B = idempotent_twist_decompose(A)
    # alpha kills x, so K carries x with zero product; B is spanned by 1
    assert K.dim == 1 and B.dim == 1
    assert K.mu[0][0] == (F(0),)
    assert B.mu[0][0] == (F(1),)


def _direct_sum_of(first, second):
    """The Hom-algebra direct sum of two summands, either of which may be
    None for a zero summand."""
    if first is None or second is None:
        return second if first is None else first
    return direct_sum(first, second)


def test_unital_splitting_is_a_hom_algebra_direct_sum():
    """On every unital corpus algebra, the change of basis from
    A1 (+) A2 to A keeps products and twists: the splitting is a direct
    sum of Hom-algebras, cross products and all."""
    unital = [A for A in CORPUS if find_unit(A) is not None]
    assert len(unital) == 11
    for A in unital:
        dec = unital_decompose(A)
        S = _direct_sum_of(dec.part_unital_associative, dec.part_complement)
        ok, bad = validate_morphism(
            AlgebraMorphism(S, A, dec.change_of_basis))
        assert ok, (A.name, bad)
        assert rank(dec.change_of_basis) == A.dim


def test_idempotent_twist_splitting_is_a_hom_algebra_direct_sum():
    """Where alpha^2 = alpha and ker alpha is a square-zero ideal, the
    change of basis from K (+) B to A, K = ker alpha and B = im alpha,
    keeps products and twists, and K's twist is zero.  The corpus
    algebras refused are exactly those where that fails."""
    refused = []
    for A in CORPUS:
        try:
            K, B = idempotent_twist_decompose(A)
        except ValueError:
            refused.append(A.name)
            continue
        if K is not None:
            assert K.alpha == Matrix.zero(K.dim, K.dim)
        change = Matrix.from_columns(
            A.dim, kernel(A.alpha).basis + image(A.alpha).basis)
        ok, bad = validate_morphism(
            AlgebraMorphism(_direct_sum_of(K, B), A, change))
        assert ok, (A.name, bad)
    assert refused == ["two_dim_unital", "k2", "k1+k2", "k_times_k_swapped"]


UNITALIZABLE = [A for A in CORPUS if is_centroid_element(A)[0]
                and alpha_is_idempotent(A)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_unitalization_is_its_defining_formula(data):
    """In A+ = k[abar]/(abar^2 - abar) (+) A, with abar acting as alpha,
    (p0 + p1 abar + a)(q0 + q1 abar + b) = p0 q0
    + (p0 q1 + p1 q0 + p1 q1) abar + q0 a + q1 alpha(a) + p0 b
    + p1 alpha(b) + ab; beta(p0 + p1 abar + a) = (p0 + p1) abar
    + alpha(a); and A embeds as the last coordinates."""
    A = data.draw(st.sampled_from(UNITALIZABLE))
    B, embedding = unitalize(A)
    scalar = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    vector = st.lists(scalar, min_size=A.dim + 2, max_size=A.dim + 2)
    (p0, p1, *a), (q0, q1, *b) = data.draw(vector), data.draw(vector)
    alpha_a, alpha_b, ab = A.apply_alpha(a), A.apply_alpha(b), A.product(a, b)
    assert B.product((p0, p1, *a), (q0, q1, *b)) == (
        p0 * q0, p0 * q1 + p1 * q0 + p1 * q1,
        *(q0 * a[k] + q1 * alpha_a[k] + p0 * b[k] + p1 * alpha_b[k] + ab[k]
          for k in range(A.dim)))
    assert B.apply_alpha((p0, p1, *a)) == (0, p0 + p1, *alpha_a)
    assert embedding.apply(a) == (0, 0, *a)
    assert B.basis_names == ("one", "abar") + A.basis_names


def test_unitalize():
    A = two_dim_unital()
    B, emb = unitalize(A)
    assert B.dim == A.dim + 2
    assert find_unit(B) is not None
    # embedding is injective
    from homcyc.linalg import rank
    assert rank(emb) == A.dim
    # embedding intertwines twists
    assert (B.alpha @ emb) == (emb @ A.alpha)


def test_unitalize_requires_idempotent_twist():
    with pytest.raises(ValueError):
        unitalize(k_times_k_swap_twist())


def test_direct_sum_structure():
    S = direct_sum(ground_field(), k2())
    assert S.dim == 2
    # cross products vanish
    assert S.mu[0][1] == (F(0), F(0))
    assert S.mu[1][0] == (F(0), F(0))


def test_morphism_validation():
    A = ground_field()
    B = k_times_k()
    incl = AlgebraMorphism(A, B, Matrix.from_rows([[1], [0]]))
    ok, bad = validate_morphism(incl)
    assert ok, bad
    broken = AlgebraMorphism(A, B, Matrix.from_rows([[1], [2]]))
    ok, bad = validate_morphism(broken)
    assert not ok and bad
