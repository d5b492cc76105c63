"""Exact linear algebra against independent rational oracles.

The oracles here use plain Fraction arithmetic (Gaussian elimination,
cofactor expansion, Faddeev-LeVerrier) so a bug in the fraction-free
Bareiss code, the library's square solve or the general elimination in
``oracles``, cannot hide behind itself.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hgsp.hgroup import GeneratorPair
from hgsp.linalg import (
    NonUnimodularError,
    companion_matrix,
    companion_row_step,
    companion_step,
    inverse_first_column,
    inverse_row_step,
    inverse_step,
    linearly_independent,
    mat_vec,
    solve_scaled,
)
from hgsp.poly import IntPoly
from oracles import (
    companion_inverse_entries,
    companion_matrix_entries,
    determinant,
    identity_matrix,
    kernel_basis,
    mat_mul,
    mat_sub,
    nullspace,
    rank,
    solve_unimodular,
    transpose,
    unimodular_inverse,
)


# -- oracles -----------------------------------------------------------------


def det_cofactor(a) -> int:
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        if a[0][j] == 0:
            continue
        minor = tuple(
            tuple(a[i][k] for k in range(n) if k != j) for i in range(1, n)
        )
        total += (-1) ** j * a[0][j] * det_cofactor(minor)
    return total


def charpoly_faddeev_leverrier(a) -> list[int]:
    """Coefficients of det(xI - A), ascending, via the FL recurrence."""
    n = len(a)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = [[Fraction(0)] * n for _ in range(n)]
    c = Fraction(1)
    for k in range(1, n + 1):
        # M_k = A M_{k-1} + c_{n-k+1} I
        for i in range(n):
            m[i][i] += c
        m = [
            [sum(Fraction(a[i][t]) * m[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        c = -sum(m[i][i] for i in range(n)) / k
        coeffs[n - k] = c
    out = []
    for x in coeffs:
        assert x.denominator == 1
        out.append(int(x))
    return out


def rref_rank(rows) -> int:
    """Row reduce over Fraction, count pivots."""
    if not rows:
        return 0
    mat = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(mat), len(mat[0])
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][col]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][col]:
                factor = mat[i][col]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[r])]
        r += 1
        if r == nrows:
            break
    return r


def rref_nullspace(rows, ncols):
    """Nullspace basis over Fraction, one vector per free column."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = {}
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][col]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                factor = mat[i][col]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[r])]
        pivots[col] = r
        r += 1
        if r == len(mat):
            break
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for col, row in pivots.items():
            vec[col] = -mat[row][free]
        basis.append(tuple(vec))
    return basis


def rational_solve(a, b):
    """Gauss-Jordan over Fraction; None for a singular system."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    for c in range(n):
        sel = next((i for i in range(c, n) if aug[i][c]), None)
        if sel is None:
            return None
        aug[c], aug[sel] = aug[sel], aug[c]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c] / aug[c][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return tuple(aug[i][n] / aug[i][i] for i in range(n))


def random_matrix(rng, n, lo=-6, hi=6):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(n))


# -- companion matrices ------------------------------------------------------


def test_companion_quadratic():
    p = IntPoly((1, -3, 1))
    assert companion_matrix(p) == ((0, -1), (1, 3))


def test_companion_mum_sextic():
    p = IntPoly((1, -6, 15, -20, 15, -6, 1))
    m = companion_matrix(p)
    last_col = tuple(m[i][5] for i in range(6))
    assert last_col == (-1, 6, -15, 20, -15, 6)
    for i in range(6):
        for j in range(5):
            assert m[i][j] == (1 if i == j + 1 else 0)


def test_companion_phi9():
    m = companion_matrix(IntPoly((1, 0, 0, 1, 0, 0, 1)))
    assert tuple(m[i][5] for i in range(6)) == (-1, 0, 0, -1, 0, 0)


lower_coeffs = st.lists(st.integers(min_value=-20, max_value=20), min_size=0, max_size=9)


def _inverse_with_first_column(first):
    """The matrix with this first column and ones on the superdiagonal."""
    n = len(first)
    return tuple((c,) + tuple(int(j == i + 1) for j in range(1, n)) for i, c in enumerate(first))


@given(st.sampled_from((1, -1)), lower_coeffs)
def test_companion_inverse_is_inverse(c0, rest):
    p = IntPoly((c0, *rest, 1))
    a = companion_matrix(p)
    inv = _inverse_with_first_column(inverse_first_column(p))
    n = p.degree
    assert mat_mul(a, inv) == identity_matrix(n)
    assert mat_mul(inv, a) == identity_matrix(n)


@st.composite
def unimodular_monics(draw):
    """A monic polynomial of degree 2 to 12 with constant term +-1."""
    n = draw(st.integers(2, 12))
    rest = draw(st.lists(st.integers(-20, 20), min_size=n - 1, max_size=n - 1))
    return IntPoly((draw(st.sampled_from((1, -1))), *rest, 1))


@given(unimodular_monics())
def test_companion_matrices_equal_the_entrywise_oracles(p):
    a, inv = companion_matrix(p), companion_inverse_entries(p)
    assert a == companion_matrix_entries(p)
    assert _inverse_with_first_column(inverse_first_column(p)) == inv
    assert mat_mul(a, inv) == identity_matrix(p.degree)


# small entries, and entries past 2^64 like the search's packed fields
entries = st.one_of(st.integers(-50, 50), st.integers(2**64, 2**70), st.integers(-(2**70), -(2**64)))


@given(unimodular_monics(), st.data())
def test_companion_steps_equal_the_dense_products(p, data):
    """The four O(n) letter steps A x, A^-1 x, r^T A and r^T A^-1, on the
    columns a GeneratorPair keeps, against the entrywise dense matrices."""
    a, inv = companion_matrix_entries(p), companion_inverse_entries(p)
    vec = st.lists(entries, min_size=p.degree, max_size=p.degree).map(tuple)
    x, r = data.draw(vec), data.draw(vec)
    last, _, first, _ = GeneratorPair(p, p).columns
    assert companion_step(last, x) == mat_vec(a, x)
    assert inverse_step(first, x) == mat_vec(inv, x)
    assert companion_row_step(last, r) == mat_vec(transpose(a), r)
    assert inverse_row_step(first, r) == mat_vec(transpose(inv), r)


@given(st.integers(min_value=-20, max_value=20).filter(lambda c: c not in (1, -1)), lower_coeffs)
def test_companion_inverse_rejects_non_unit_constant(c0, rest):
    p = IntPoly((c0, *rest, 1))
    with pytest.raises(NonUnimodularError) as err:
        inverse_first_column(p)
    assert err.value.determinant == determinant(companion_matrix(p))


def test_companion_requires_monic():
    with pytest.raises(ValueError):
        companion_matrix(IntPoly((1, 2)))
    with pytest.raises(ValueError):
        companion_matrix(IntPoly((1,)))


@pytest.mark.parametrize(
    "coeffs",
    [
        (1, -3, 1),
        (1, -6, 15, -20, 15, -6, 1),
        (1, 0, 0, 1, 0, 0, 1),
        (1, 1, 2, 1, 2, 1, 1),
        (-1, 0, 2, 1),
    ],
)
def test_companion_characteristic_polynomial(coeffs):
    """charpoly(companion(p)) = p, via the Faddeev-LeVerrier oracle."""
    p = IntPoly(coeffs)
    m = companion_matrix(p)
    assert tuple(charpoly_faddeev_leverrier(m)) == p.coeffs


# -- determinant and rank (the elimination in oracles) -----------------------


def test_determinant_examples():
    assert determinant(((2, 0), (0, 3))) == 6
    assert determinant(((1, 2), (3, 4))) == -2
    assert determinant(identity_matrix(5)) == 1
    assert determinant(((1, 2), (2, 4))) == 0


def test_determinant_against_cofactor_oracle():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n)
        assert determinant(a) == det_cofactor(a)


def test_rank_against_rref_oracle():
    rng = random.Random(202)
    for _ in range(300):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        rows = [tuple(rng.randint(-4, 4) for _ in range(ncols)) for _ in range(nrows)]
        assert rank(rows, ncols) == rref_rank(rows)


def test_rank_edge_cases():
    assert rank([], 3) == 0
    assert rank([(0, 0, 0)], 3) == 0
    assert rank(identity_matrix(4)) == 4


# -- independence and the square solve --------------------------------------


@st.composite
def triples(draw):
    """Three vectors of one length: random ones, or a third that is an
    integer combination of the first two (entries past 2^64 included)."""
    n = draw(st.integers(1, 8))
    vec = st.lists(entries, min_size=n, max_size=n).map(tuple)
    x, y, z = draw(vec), draw(vec), draw(vec)
    if draw(st.booleans()):
        a, b = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
        z = tuple(a * xi + b * yi for xi, yi in zip(x, y))
    return draw(st.permutations((x, y, z)))


@given(triples())
def test_linearly_independent(vectors):
    """The Gram determinant against the rank from general elimination."""
    assert linearly_independent(*vectors) == (rank(vectors) == 3)


def test_linearly_independent_examples():
    assert linearly_independent((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert not linearly_independent((1, 0), (0, 1), (1, 1))  # three in the plane
    assert not linearly_independent((1, 2, 3), (2, 4, 6), (0, 0, 1))
    assert not linearly_independent((0, 0, 0), (1, 0, 0), (0, 1, 0))
    with pytest.raises(ValueError):
        linearly_independent((1, 0), (0, 1), (0, 1, 2))


def test_solve_scaled_against_the_oracles():
    """(det a, det(a) x) against the cofactor determinant and the rational
    solution; (0, ()) for singular a."""
    rng = random.Random(707)
    singular = 0
    for _ in range(400):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, -3, 3)
        y = tuple(rng.randint(-6, 6) for _ in range(n))
        det, x = solve_scaled(a, y)
        assert det == det_cofactor(a)
        if det == 0:
            assert x == ()
            singular += 1
        else:
            assert tuple(Fraction(xi, det) for xi in x) == rational_solve(a, y)
    assert singular > 10


# -- nullspace and kernels ---------------------------------------------------


def test_nullspace_matches_rref_oracle_span():
    rng = random.Random(303)
    for _ in range(200):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 5)
        rows = [tuple(rng.randint(-3, 3) for _ in range(ncols)) for _ in range(nrows)]
        ours = nullspace(rows, ncols)
        oracle = rref_nullspace(rows, ncols)
        assert len(ours) == len(oracle)
        # same count and every vector of ours killed by the rows
        for vec in ours:
            for row in rows:
                assert sum(r * x for r, x in zip(row, vec)) == 0
        # our basis is independent
        if ours:
            assert rank(ours, ncols) == len(ours)


def test_nullspace_vectors_are_primitive():
    rows = [(2, 4, 6)]
    basis = nullspace(rows, 3)
    assert len(basis) == 2
    from math import gcd

    for vec in basis:
        g = 0
        for x in vec:
            g = gcd(g, x)
        assert g == 1
        assert next(x for x in vec if x) > 0


def test_kernel_basis_shapes():
    # kernel of the transpose-minus-identity constraint on 2x2 matrices:
    # rows express x_01 - x_10 = 0 (symmetric matrices)
    constraints = [(0, 1, -1, 0)]
    basis = kernel_basis(constraints, (2, 2))
    assert len(basis) == 3
    for m in basis:
        assert m[0][1] == m[1][0]


# -- solving and inverses ----------------------------------------------------


def test_solve_unimodular_roundtrip():
    rng = random.Random(404)
    found = 0
    while found < 50:
        a = random_matrix(rng, 3, -3, 3)
        if abs(determinant(a)) != 1:
            continue
        found += 1
        x = tuple(rng.randint(-5, 5) for _ in range(3))
        b = mat_vec(a, x)
        assert solve_unimodular(a, b) == x


def test_solve_unimodular_rejects_non_integral_solutions():
    with pytest.raises(NonUnimodularError):
        solve_unimodular(((2, 0), (0, 1)), (1, 0))
    # an integral solution is returned even off the unimodular happy path
    assert solve_unimodular(((2, 0), (0, 1)), (2, 0)) == (1, 0)


def test_solve_unimodular_against_rational_oracle():
    """Integral solutions agree; a fractional one raises, a singular one too."""
    rng = random.Random(606)
    for _ in range(400):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, -3, 3)
        b = tuple(rng.randint(-6, 6) for _ in range(n))
        expected = rational_solve(a, b)
        if expected is None:
            with pytest.raises(ValueError):
                solve_unimodular(a, b)
        elif all(x.denominator == 1 for x in expected):
            assert solve_unimodular(a, b) == tuple(int(x) for x in expected)
        else:
            with pytest.raises(NonUnimodularError):
                solve_unimodular(a, b)


def test_unimodular_inverse():
    rng = random.Random(505)
    found = 0
    while found < 50:
        a = random_matrix(rng, 4, -2, 2)
        if abs(determinant(a)) != 1:
            continue
        found += 1
        inv = unimodular_inverse(a)
        assert mat_mul(a, inv) == identity_matrix(4)
        assert mat_mul(inv, a) == identity_matrix(4)


def test_unimodular_inverse_rejects():
    with pytest.raises(NonUnimodularError) as err:
        unimodular_inverse(((2, 0), (0, 1)))
    assert err.value.determinant == 2


def test_matrix_helpers():
    a = ((1, 2), (3, 4))
    b = ((0, 1), (1, 0))
    assert mat_mul(a, b) == ((2, 1), (4, 3))
    assert mat_vec(a, (1, 1)) == (3, 7)
    assert transpose(a) == ((1, 3), (2, 4))
    assert mat_sub(a, a) == ((0, 0), (0, 0))
    assert mat_mul(a, identity_matrix(2)) == a
