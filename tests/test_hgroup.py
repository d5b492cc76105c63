"""Generators, transvection vector, and the invariant symplectic form."""

import random
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgsp.cyclotomic import CycloFactorization
from hgsp.hgroup import (
    DegenerateFormError,
    GeneratorPair,
    InvariantFormError,
    build_generators,
    invariant_symplectic_form,
    preserves_form,
    transvection_vector,
)
from hgsp.linalg import NonUnimodularError, companion_matrix, mat_vec
from hgsp.poly import IntPoly
from hgsp.pairs import enumerate_qualified_pairs, make_pair
from oracles import (
    coefficient,
    determinant,
    identity_matrix,
    invariant_alternating_space,
    is_transvection,
    kernel_symplectic_form,
    letter_matrix,
    mat_mul,
    mat_sub,
    poly_sum,
    rank,
    symmetric_invariant_dimension,
    transpose,
)


def pair_by_id(pair_id, mum=True):
    for p in enumerate_qualified_pairs(6, mum_only=mum):
        if p.pair_id == pair_id:
            return p
    raise LookupError(pair_id)


def basis_vector(n, j):
    return tuple(1 if i == j else 0 for i in range(n))


def test_generators_are_unimodular_companions():
    pair = pair_by_id("1^6|3^2,6")
    gen = build_generators(pair)
    assert (gen.f, gen.g, gen.degree) == (pair.f, pair.g, 6)
    assert determinant(gen.a) == 1
    assert determinant(gen.b) == 1
    assert letter_matrix(gen, 0) == gen.a == companion_matrix(pair.f)
    assert letter_matrix(gen, 1) == gen.b == companion_matrix(pair.g)
    a_inv, b_inv = letter_matrix(gen, 2), letter_matrix(gen, 3)
    assert mat_mul(gen.a, a_inv) == identity_matrix(6)
    assert mat_mul(gen.b, b_inv) == identity_matrix(6)
    # each letter is fixed by one column: the last of A and B, the first of
    # A^-1 and B^-1
    assert gen.columns == tuple(
        tuple(row[j] for row in m) for m, j in ((gen.a, -1), (gen.b, -1), (a_inv, 0), (b_inv, 0))
    )


def test_generator_pair_refuses_what_is_not_a_unimodular_companion_pair():
    f = IntPoly((1, -2, 1))  # (x - 1)^2
    with pytest.raises(ValueError, match="one degree"):
        GeneratorPair(f, IntPoly((1, 1, 1, 1)))
    with pytest.raises(ValueError, match="monic"):
        GeneratorPair(f, IntPoly((1, 0, 2)))
    with pytest.raises(NonUnimodularError) as err:
        GeneratorPair(f, IntPoly((2, 3, 1)))  # (x + 1)(x + 2)
    assert err.value.determinant == 2
    with pytest.raises(NonUnimodularError):
        GeneratorPair(IntPoly((0, 0, 1)), f)


def test_transvection_vector_row_17():
    gen = build_generators(pair_by_id("1^6|3^2,6"))
    assert transvection_vector(gen) == (-7, 13, -21, 13, -7, 0)


def test_transvection_vector_row_33():
    gen = build_generators(pair_by_id("1^6|6^3"))
    assert transvection_vector(gen) == (-3, 9, -13, 9, -3, 0)


def test_transvection_vector_is_f_minus_g_coefficients():
    """v carries the x^1..x^n coefficients of f - g (x^0 terms cancel)."""
    for pair in enumerate_qualified_pairs(6)[::41]:
        gen = build_generators(pair)
        v = transvection_vector(gen)
        diff = poly_sum(pair.f, pair.g, -1)
        assert v == tuple(coefficient(diff, i) for i in range(1, 7))


def test_degree_four_example_v():
    f = CycloFactorization(((2, 2), (3, 1)))
    g = CycloFactorization(((4, 2),))
    pair = make_pair(f, g)
    gen = build_generators(pair)
    assert transvection_vector(gen) == (3, 2, 3, 0)


def test_c1_is_transvection_and_fixes_prefix_basis():
    pair = pair_by_id("1^6|3^2,6")
    gen = build_generators(pair)
    c1 = mat_mul(letter_matrix(gen, 2), gen.b)
    assert is_transvection(c1)
    for j in range(5):
        assert mat_vec(c1, basis_vector(6, j)) == basis_vector(6, j)


def test_transvection_image_lies_in_v_line():
    """(C1 - I) x is an integer multiple of v for every basis vector x."""
    pair = pair_by_id("1^6|2^4,3")
    gen = build_generators(pair)
    v = transvection_vector(gen)
    c1 = mat_mul(letter_matrix(gen, 2), gen.b)
    d = mat_sub(c1, identity_matrix(6))
    for j in range(6):
        image = mat_vec(d, basis_vector(6, j))
        if all(x == 0 for x in image):
            continue
        assert rank([v, image], 6) == 1


def test_is_transvection_rejects():
    assert not is_transvection(identity_matrix(4))  # rank 0
    # diagonal flip: rank 1 but not unipotent
    m = ((1, 0), (0, -1))
    assert not is_transvection(m)
    shear = ((1, 1), (0, 1))
    assert is_transvection(shear)


def test_invariant_form_row_17_values():
    pair = pair_by_id("1^6|3^2,6")
    gen = build_generators(pair)
    v = transvection_vector(gen)
    form = invariant_symplectic_form(gen, v)
    om = form.omega
    n = 6
    # antisymmetry
    assert om == tuple(tuple(-om[j][i] for j in range(n)) for i in range(n))
    # invariance under both generators
    for m in (gen.a, gen.b):
        assert mat_mul(mat_mul(transpose(m), om), m) == om
    # nondegenerate
    assert determinant(om) != 0
    # pairing with v: zero against e_1..e_5, positive against e_6
    for j in range(5):
        assert form.pairing(v, basis_vector(6, j)) == 0
    assert form.pairing(v, basis_vector(6, 5)) > 0


def test_invariant_space_dimensions_sample():
    for pair in enumerate_qualified_pairs(6)[::53]:
        gen = build_generators(pair)
        assert len(invariant_alternating_space(gen)) == 1
        assert symmetric_invariant_dimension(gen) == 0


def test_form_invariant_under_random_words():
    rng = random.Random(7)
    pair = pair_by_id("1^6|3,6^2")
    gen = build_generators(pair)
    v = transvection_vector(gen)
    form = invariant_symplectic_form(gen, v)
    for _ in range(100):
        m = identity_matrix(6)
        for _ in range(rng.randint(1, 8)):
            m = mat_mul(m, letter_matrix(gen, rng.randrange(4)))
        assert mat_mul(mat_mul(transpose(m), form.omega), m) == form.omega


def test_form_preserves_pairing_under_group():
    pair = pair_by_id("1^6|4^3")
    gen = build_generators(pair)
    v = transvection_vector(gen)
    form = invariant_symplectic_form(gen, v)
    x = (1, 2, 0, -1, 3, 1)
    y = (0, 1, 1, 0, -2, 5)
    for m in (gen.a, gen.b):
        assert form.pairing(mat_vec(m, x), mat_vec(m, y)) == form.pairing(x, y)


def test_sign_normalization_consistent():
    """omega(v, e_n) > 0 for every MUM pair after normalization."""
    e6 = basis_vector(6, 5)
    for pair in enumerate_qualified_pairs(6, mum_only=True):
        gen = build_generators(pair)
        v = transvection_vector(gen)
        form = invariant_symplectic_form(gen, v)
        assert form.pairing(v, e6) > 0


def test_dimension_error_when_space_too_big():
    """With g = f the group is generated by A alone, which leaves a
    2-dimensional space of alternating forms invariant in degree 4, so a
    guard must trip rather than silently picking one form out of many;
    here v = 0 and the Krylov matrix is singular."""
    f = IntPoly((1, -2, 3, -2, 1))  # (x^2 - x + 1)^2
    gen = GeneratorPair(f, f)
    assert len(invariant_alternating_space(gen)) == 2
    assert transvection_vector(gen) == (0, 0, 0, 0)
    with pytest.raises(InvariantFormError, match="not cyclic"):
        invariant_symplectic_form(gen, (1, 0, 0, 0))


def test_degenerate_error_needs_matching_v():
    """omega(v, e_n) = 0 trips the degeneracy guard for a mismatched v."""
    pair = pair_by_id("1^6|3^2,6")
    gen = build_generators(pair)
    e6 = (0, 0, 0, 0, 0, 1)
    with pytest.raises(DegenerateFormError):
        invariant_symplectic_form(gen, e6)


def _assert_matches_kernel_oracle(pairs):
    for pair in pairs:
        gen = build_generators(pair)
        v = transvection_vector(gen)
        form = invariant_symplectic_form(gen, v)
        assert form.omega == kernel_symplectic_form(gen, v), pair.pair_id


def test_krylov_form_matches_kernel_oracle_degrees_4_and_6():
    _assert_matches_kernel_oracle(enumerate_qualified_pairs(4))
    _assert_matches_kernel_oracle(enumerate_qualified_pairs(6))


def test_krylov_form_matches_kernel_oracle_degree_8_sample():
    pairs = enumerate_qualified_pairs(8)
    assert len(pairs) == 2983
    _assert_matches_kernel_oracle(random.Random(80).sample(pairs, 40))


def test_form_requires_cyclic_transvection_vector():
    """f and g sharing the factor (x - 1)^2 leave v non-cyclic for A, so
    the Krylov matrix is singular."""
    f = IntPoly((1, 0, -2, 0, 1))  # (x - 1)^2 (x + 1)^2
    g = IntPoly((1, -2, 2, -2, 1))  # (x - 1)^2 (x^2 + 1)
    gen = GeneratorPair(f, g)
    assert transvection_vector(gen) == (2, -4, 2, 0)
    with pytest.raises(InvariantFormError, match="not cyclic"):
        invariant_symplectic_form(gen)


def test_krylov_and_form_determinants_are_a_power_of_the_pairing():
    """K^T Omega = lambda R with lambda = Omega(u, e_n) and det R = +-1, so
    |det K det Omega| = |lambda|^n: on a nonsingular K, det Omega != 0
    follows from lambda != 0, which is all invariant_symplectic_form checks.
    Every class of degrees 4 and 6, and a seeded sample of degree 8."""
    pairs8 = enumerate_qualified_pairs(8)
    assert len(pairs8) == 2983
    pairs = enumerate_qualified_pairs(4) + enumerate_qualified_pairs(6)
    assert len(pairs) == 58 + 458
    for pair in pairs + random.Random(8).sample(pairs8, 500):
        gen = build_generators(pair)
        n = gen.degree
        u = transvection_vector(gen)
        krylov = [u]
        for _ in range(n - 1):
            krylov.append(mat_vec(gen.a, krylov[-1]))
        form = invariant_symplectic_form(gen)
        lam = form.pairing(u, basis_vector(n, n - 1))
        assert lam > 0
        assert abs(determinant(krylov) * determinant(form.omega)) == lam**n, pair.pair_id


def _companion_pair(f_coeffs, g_coeffs):
    return GeneratorPair(IntPoly(f_coeffs), IntPoly(g_coeffs))


def test_form_refuses_generators_without_an_alternating_solution():
    """f = x^4 + x^3 - 2x^2 - 2x + 1 is not self-reciprocal, and the one
    Krylov column has y_0 != 0: no invariant alternating form exists."""
    gen = _companion_pair((1, -2, -2, 1, 1), (1, 0, 1, 2, 1))
    with pytest.raises(InvariantFormError, match="not alternating"):
        invariant_symplectic_form(gen)


def test_form_refuses_an_alternating_solution_that_is_not_invariant():
    """Here y_0 = 0, so the Toeplitz solution is alternating, but the
    last-column condition of preserves_form fails."""
    gen = _companion_pair((1, -1, -1, -1, 1), (1, 0, -1, -1, 1))
    with pytest.raises(InvariantFormError, match="not invariant"):
        invariant_symplectic_form(gen)


@lru_cache(maxsize=None)
def _degree_four_forms():
    """(kernel-oracle form, coefficients of f or g) for every degree-4 class."""
    cases = []
    for pair in enumerate_qualified_pairs(4):
        omega = kernel_symplectic_form(build_generators(pair))
        cases += [(omega, pair.f.coeffs), (omega, pair.g.coeffs)]
    return cases


def _toeplitz(t):
    """The alternating Toeplitz matrix with entries t_(j-i), from t_0 = 0."""
    n = len(t)
    return tuple(
        tuple(t[j - i] if j >= i else -t[i - j] for j in range(n)) for i in range(n)
    )


small = st.integers(min_value=-3, max_value=3)


@st.composite
def forms_and_polynomials(draw):
    """(alternating Toeplitz Omega, coefficients of a monic p).

    Toeplitz is preserves_form's precondition, and the only shape the
    library builds.  A census form with the polynomial of its A or B, with
    one t_k perturbed or not, gives both answers; a random Toeplitz Omega
    with a random p usually fails.
    """
    if draw(st.booleans()):
        omega, coeffs = draw(st.sampled_from(_degree_four_forms()))
        t = list(omega[0])
        t[draw(st.integers(1, 3))] += draw(st.sampled_from((0, 1, -1)))
        return _toeplitz(t), coeffs
    n = draw(st.sampled_from((2, 4, 6)))
    coeffs = tuple(draw(st.lists(small, min_size=n, max_size=n))) + (1,)
    t = [0] + draw(st.lists(small, min_size=n - 1, max_size=n - 1))
    return _toeplitz(t), coeffs


def test_preserves_form_checks_the_second_column_too():
    """A census form with A's own last column and B's plus e_1 is refused:
    B's column follows from A's only for a true companion pair, so the
    check must read both.  Adding e_1 adds Omega e_1 to Omega c_B, whose
    entries 1 .. n-1 are -t_1, ..., -t_(n-1), not all zero for Omega != 0."""
    for pair in enumerate_qualified_pairs(4) + enumerate_qualified_pairs(6):
        gen = build_generators(pair)
        omega = invariant_symplectic_form(gen).omega
        c_a, c_b = gen.columns[:2]
        assert preserves_form(omega, (c_a, c_b))
        bent = (c_b[0] + 1,) + c_b[1:]
        assert not preserves_form(omega, (c_a, bent)), pair.pair_id


@settings(max_examples=300, deadline=None)
@given(forms_and_polynomials())
# the last-column condition fails (n = 2, p = x^2)
@example((_toeplitz((0, 1)), (0, 0, 1)))
def test_preserves_form_agrees_with_the_dense_product(case):
    omega, coeffs = case
    m = companion_matrix(IntPoly(coeffs))
    dense = mat_mul(mat_mul(transpose(m), omega), m) == omega
    assert preserves_form(omega, [tuple(row[-1] for row in m)]) == dense
