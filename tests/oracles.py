"""Plain computations, kept as independent oracles for the tests.

The library computes the invariant form from one Krylov solve
(``hgsp.hgroup.invariant_symplectic_form``).  The code here gets the same
objects the slow, generic way: it writes the invariance conditions
M^T X M = X as linear rows in the n^2 entries of X and takes the kernel by
Bareiss elimination and rational back substitution.  It also yields the
dimensions of the invariant alternating and symmetric spaces, which the
Krylov solve does not compute.

``canonical_search`` does the same for the witness engine
(``hgsp.search.search_witness``): it lists the reduced words level by level
in canonical order and tests each one on its full matrix product, with the
generic inverse.  ``reference_search`` is a plain recursive first-hit
searcher on full matrix products, used to cross-check existence and
depth bounds.

``_bareiss_echelon`` is general rectangular Bareiss elimination, and
``rank``, ``determinant`` and ``nullspace`` read off it.  The library
solves only one square system (``hgsp.linalg.solve_scaled``), tells
nondegeneracy from one pairing and independence from a Gram determinant;
the searches and the certificate here test independence by ``rank``
instead.  ``solve_unimodular`` and ``unimodular_inverse`` solve with a
generic unimodular matrix through ``solve_scaled``, one column at a time;
the library only ever inverts companion matrices, in closed form.

``matrix_certificate`` is the witness certificate
(``hgsp.certify.verify_witness``) computed on full n x n products: gamma and
gamma^-1 from ``evaluate_word``, the conjugates C1, C2, C3 as matrices, and
``is_transvection`` from a rank and a square.  The library writes the
conjugates in rank-one form instead; both must give the same report.

``all_ordered_pairs_census`` is the class enumeration
(``hgsp.pairs.enumerate_qualified_pairs``) done the plain way: every ordered
pair of factorizations, kept when it is its own orbit minimum and passes
``make_pair``.  The library walks each class once instead.

``companion_matrix_entries`` and ``companion_inverse_entries`` write the
companion matrix and its inverse entry by entry; the library keeps one
column of each and acts with it in O(n) instead.  ``letter_matrix`` is
the dense matrix of one letter, built from them.

``mat_mul``, ``transpose``, ``word_inverse`` and ``coefficient`` are small
helpers that only the tests need.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd
from dataclasses import dataclass
from typing import Optional, Sequence

from hgsp.certify import CHECK_ORDER, CertificateReport, RatMatrix, _primitive
from hgsp.hgroup import (
    GeneratorPair,
    build_generators,
    invariant_symplectic_form,
    transvection_vector,
)
from hgsp.linalg import Matrix, NonUnimodularError, Vector, dot, mat_vec, solve_scaled
from hgsp.pairs import (
    NotQualifiedError,
    QualifiedPair,
    _orbit_minimum,
    enumerate_factorizations,
    make_pair,
    mum_oriented,
)
from hgsp.poly import IntPoly
from hgsp.words import Word, inverse_letter


# -- matrix products -----------------------------------------------------------


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a)}x{len(a[0])} times {len(b)}x{len(b[0])}")
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def companion_matrix_entries(p: IntPoly) -> Matrix:
    n = p.degree
    return tuple(
        tuple(
            -p.coeffs[i] if j == n - 1 else (1 if i == j + 1 else 0)
            for j in range(n)
        )
        for i in range(n)
    )


def companion_inverse_entries(p: IntPoly) -> Matrix:
    """The inverse for constant term c_0 = +-1: first column
    -c_0 (c_1, ..., c_(n-1), 1), ones on the superdiagonal."""
    n = p.degree
    first = tuple(-p.constant_term * c for c in p.coeffs[1:])
    return tuple(
        tuple(first[i] if j == 0 else (1 if j == i + 1 else 0) for j in range(n))
        for i in range(n)
    )


def coefficient(p: IntPoly, k: int) -> int:
    """Coefficient of x^k in p (zero when k exceeds the degree)."""
    return p.coeffs[k] if k < len(p.coeffs) else 0


def poly_sum(p: IntPoly, q: IntPoly, scale: int = 1) -> IntPoly:
    """p + scale * q, coefficient-wise: sums the library never forms."""
    n = max(len(p.coeffs), len(q.coeffs))
    return IntPoly(coefficient(p, k) + scale * coefficient(q, k) for k in range(n))


def word_inverse(word: Word) -> Word:
    """The inverse word: the letters reversed, each one inverted."""
    return Word(inverse_letter(code) for code in reversed(word.letters))


def letter_matrix(gen: GeneratorPair, code: int) -> Matrix:
    """The dense matrix of the letter A, B, A^-1 or B^-1 (codes 0 to 3)."""
    p = (gen.f, gen.g)[code % 2]
    return companion_matrix_entries(p) if code < 2 else companion_inverse_entries(p)


def evaluate_word(word: Word, gen: GeneratorPair) -> Matrix:
    """Left-to-right product of the generator matrices named by the word."""
    m = identity_matrix(gen.degree)
    for code in word.letters:
        m = mat_mul(m, letter_matrix(gen, code))
    return m


def is_transvection(c: Matrix) -> bool:
    """rank(C - I) = 1 and (C - I)^2 = 0."""
    n = len(c)
    d = mat_sub(c, identity_matrix(n))
    if rank(d) != 1:
        return False
    zero = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    return mat_mul(d, d) == zero


# -- census --------------------------------------------------------------------


def all_ordered_pairs_census(degree: int, *, mum_only: bool = False) -> list[QualifiedPair]:
    """One qualified pair per class, from every ordered pair of factorizations."""
    facs = enumerate_factorizations(degree)
    reps = []
    for f_fac in facs:
        for g_fac in facs:
            if _orbit_minimum(f_fac, g_fac) != (f_fac, g_fac):
                continue
            try:
                reps.append(make_pair(f_fac, g_fac))
            except NotQualifiedError:
                continue
    if mum_only:
        reps = [mum_oriented(p) for p in reps if p.is_mum()]
        reps.sort(key=lambda p: (p.f_fac.factors, p.g_fac.factors))
    return reps


# -- fraction-free elimination -------------------------------------------------


def _bareiss_echelon(rows: Sequence[Sequence[int]], ncols: int):
    """Forward eliminate; return (echelon rows, pivot columns, swap parity).

    The one-step Bareiss update keeps every intermediate entry an integer
    minor of the input, so all the divisions below are exact.
    """
    work = [list(r) for r in rows]
    for r in work:
        if len(r) != ncols:
            raise ValueError("ragged constraint rows")
    pivot_cols: list[int] = []
    rank = 0
    prev = 1
    swaps = 0
    for c in range(ncols):
        sel = None
        for i in range(rank, len(work)):
            if work[i][c]:
                sel = i
                break
        if sel is None:
            continue
        if sel != rank:
            work[rank], work[sel] = work[sel], work[rank]
            swaps += 1
        piv_row = work[rank]
        piv = piv_row[c]
        for i in range(rank + 1, len(work)):
            row = work[i]
            t = row[c]
            if t:
                for j in range(c + 1, ncols):
                    row[j] = (piv * row[j] - t * piv_row[j]) // prev
            elif prev != 1 or piv != 1:
                for j in range(c + 1, ncols):
                    if row[j]:
                        row[j] = piv * row[j] // prev
            row[c] = 0
        pivot_cols.append(c)
        prev = piv
        rank += 1
        if rank == len(work):
            break
    return work[:rank], pivot_cols, swaps


def rank(rows: Sequence[Sequence[int]], ncols: int | None = None) -> int:
    rows = [tuple(r) for r in rows]
    if not rows:
        return 0
    if ncols is None:
        ncols = len(rows[0])
    return len(_bareiss_echelon(rows, ncols)[1])


def determinant(a: Matrix) -> int:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return 1
    ech, pivots, swaps = _bareiss_echelon(a, n)
    if len(pivots) < n:
        return 0
    d = ech[n - 1][pivots[n - 1]]
    return -d if swaps % 2 else d


# -- unimodular solves --------------------------------------------------------


def solve_unimodular(a: Matrix, b: Vector) -> Vector:
    """Integer solution of a x = b; raises NonUnimodularError when it is not integral."""
    det, x = solve_scaled(a, b)
    if det == 0:
        raise ValueError("singular system")
    if any(xi % det for xi in x):
        raise NonUnimodularError(det)
    return tuple(xi // det for xi in x)


def unimodular_inverse(a: Matrix) -> Matrix:
    """Exact inverse of an integer matrix with determinant +-1, one column
    at a time."""
    cols = []
    for e in identity_matrix(len(a)):
        det, x = solve_scaled(a, e)
        if det not in (1, -1):
            raise NonUnimodularError(det)
        cols.append(tuple(det * xi for xi in x))
    return transpose(cols)


# -- kernels -------------------------------------------------------------------


def _primitive_int_vector(x: Sequence[Fraction]) -> Vector:
    """Scale a rational vector to primitive integers, first nonzero entry positive."""
    denom = 1
    for r in x:
        denom = denom * r.denominator // gcd(denom, r.denominator)
    ints = [int(r * denom) for r in x]
    content = 0
    for c in ints:
        content = gcd(content, c)
    if content == 0:
        raise ValueError("zero vector has no primitive form")
    ints = [c // content for c in ints]
    first = next(c for c in ints if c)
    if first < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def nullspace(rows: Sequence[Sequence[int]], ncols: int) -> list[Vector]:
    """Primitive integer basis of the solution space of a homogeneous system.

    One basis vector per free column, ordered by free column index, each
    normalized to content 1 with positive first nonzero entry.
    """
    ech, pivot_cols, _ = _bareiss_echelon([tuple(r) for r in rows], ncols)
    pivot_set = set(pivot_cols)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        for i in range(len(pivot_cols) - 1, -1, -1):
            pc = pivot_cols[i]
            s = Fraction(0)
            row = ech[i]
            for j in range(pc + 1, ncols):
                if row[j] and x[j]:
                    s += row[j] * x[j]
            if s:
                x[pc] = -s / row[pc]
        basis.append(_primitive_int_vector(x))
    return basis


def kernel_basis(
    constraints: Sequence[Sequence[int]], shape: tuple[int, int]
) -> list[Matrix]:
    """Basis of the space of r x c integer matrices killed by linear constraints.

    Each constraint is a flat row of r*c coefficients against the row-major
    matrix entries.  With no constraints this is the full matrix space.
    """
    nrows, ncols = shape
    size = nrows * ncols
    for row in constraints:
        if len(row) != size:
            raise ValueError(f"constraint length {len(row)} does not match shape {shape}")
    flat = nullspace(constraints, size)
    return [
        tuple(tuple(vec[i * ncols + j] for j in range(ncols)) for i in range(nrows))
        for vec in flat
    ]


# -- invariant forms -----------------------------------------------------------


def invariance_rows(m: Matrix) -> list[tuple[int, ...]]:
    """Rows of the linear system M^T X M - X = 0 in the n^2 entries of X."""
    n = len(m)
    rows = []
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            for k in range(n):
                mki = m[k][i]
                if not mki:
                    continue
                for l in range(n):
                    if m[l][j]:
                        row[k * n + l] += mki * m[l][j]
            row[i * n + j] -= 1
            if any(row):
                rows.append(tuple(row))
    return rows


def antisymmetry_rows(n: int) -> list[tuple[int, ...]]:
    rows = []
    for i in range(n):
        for j in range(i, n):
            row = [0] * (n * n)
            row[i * n + j] += 1
            row[j * n + i] += 1
            rows.append(tuple(row))
    return rows


def symmetry_rows(n: int) -> list[tuple[int, ...]]:
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            row = [0] * (n * n)
            row[i * n + j] += 1
            row[j * n + i] -= 1
            rows.append(tuple(row))
    return rows


def invariant_alternating_space(gen: GeneratorPair) -> list[Matrix]:
    n = gen.degree
    # The sparse antisymmetry rows go first; they clear half the unknowns
    # cheaply before the dense invariance rows enter the elimination.
    rows = antisymmetry_rows(n) + invariance_rows(gen.a) + invariance_rows(gen.b)
    return kernel_basis(rows, (n, n))


def symmetric_invariant_dimension(gen: GeneratorPair) -> int:
    """Dimension of invariant symmetric forms (0 exactly when the symmetric
    space attached to the pair carries no invariant quadratic form)."""
    n = gen.degree
    rows = symmetry_rows(n) + invariance_rows(gen.a) + invariance_rows(gen.b)
    return len(kernel_basis(rows, (n, n)))


def kernel_symplectic_form(gen: GeneratorPair, v: Vector | None = None) -> Matrix:
    """The invariant alternating form from the kernel: primitive, Omega(v, e_n) > 0."""
    basis = invariant_alternating_space(gen)
    assert len(basis) == 1, f"alternating space has dimension {len(basis)}"
    omega = basis[0]
    if v is None:
        v = transvection_vector(gen)
    n = gen.degree
    v_en = sum(v[i] * omega[i][n - 1] for i in range(n))
    assert v_en != 0
    if v_en < 0:
        omega = tuple(tuple(-x for x in row) for row in omega)
    return omega


# -- witness search --------------------------------------------------------------


def canonical_search(
    pair: QualifiedPair, max_depth: int
) -> tuple[Optional[Word], tuple[tuple[int, int], ...], tuple[Word, ...]]:
    """(canonical witness or None, per-depth word counts, every passing word
    of the minimal length), testing the levels 1 .. max_depth in order."""
    gen = build_generators(pair)
    v = transvection_vector(gen)
    per_depth = []
    for depth in range(1, max_depth + 1):
        words = [
            Word(letters)
            for letters in product(range(4), repeat=depth)
            if all(y != inverse_letter(x) for x, y in zip(letters, letters[1:]))
        ]
        per_depth.append((depth, len(words)))
        hits = []
        for word in words:
            m = evaluate_word(word, gen)
            mv = mat_vec(m, v)
            if mv[-1] in (1, -1, 2, -2) and rank(
                (v, mv, mat_vec(unimodular_inverse(m), v))
            ) == 3:
                hits.append(word)
        if hits:
            return hits[0], tuple(per_depth), tuple(hits)
    return None, tuple(per_depth), ()


@dataclass(frozen=True)
class ReferenceResult:
    found: bool
    word: Optional[Word]
    nodes: int


def reference_search(pair: QualifiedPair, max_depth: int) -> ReferenceResult:
    """First-hit recursive search, as plain as possible.

    Checks each node before its children (the empty word included), walks
    children in canonical order skipping only the letter that would cancel,
    multiplies complete matrices at every step and inverts with the generic
    routine.  Stops at the first passing word in preorder, which need not be
    the canonical witness; use it to cross-check existence and depth bounds.
    """
    gen = build_generators(pair)
    v = transvection_vector(gen)
    n = gen.degree
    counter = [0]

    def passes(m: Matrix) -> bool:
        counter[0] += 1
        mv = mat_vec(m, v)
        if mv[n - 1] not in (1, -1, 2, -2):
            return False
        miv = mat_vec(unimodular_inverse(m), v)
        return rank((miv, v, mv)) == 3

    def walk(m: Matrix, path: list[int], last: Optional[int]):
        if passes(m):
            return tuple(path)
        if len(path) == max_depth:
            return None
        for y in range(4):
            if last is not None and y == inverse_letter(last):
                continue
            path.append(y)
            hit = walk(mat_mul(m, letter_matrix(gen, y)), path, y)
            if hit is not None:
                return hit
            path.pop()
        return None

    hit = walk(identity_matrix(n), [], None)
    if hit is None:
        return ReferenceResult(found=False, word=None, nodes=counter[0])
    return ReferenceResult(found=True, word=Word(hit), nodes=counter[0])


# -- matrix-product certificate ------------------------------------------------


def _scaled_restrictions(
    basis: Sequence[Vector], maps: Sequence[Matrix]
) -> tuple[int, list[Optional[Matrix]]]:
    """(d, [d * M|span(basis) for M in maps]) for d the Gram determinant.

    The Gram system G x = B^T y, solved once for every image y, gives
    the coordinates of y's projection onto the span; y lies in the span
    exactly when B (d x) == d y, and a map with an image outside it gets
    None.  d is 0 exactly when the basis is dependent.
    """
    images = [mat_vec(m, b) for m in maps for b in basis]
    gram = tuple(tuple(dot(x, y) for y in basis) for x in basis)
    xs = []
    for y in images:
        d, x = solve_scaled(gram, tuple(dot(b, y) for b in basis))
        if d == 0:
            return 0, [None] * len(maps)
        xs.append(x)
    inside = [
        all(dot(x, col) == d * yi for col, yi in zip(zip(*basis), y))
        for x, y in zip(xs, images)
    ]
    k = len(basis)
    return d, [
        tuple(zip(*xs[t : t + k])) if all(inside[t : t + k]) else None
        for t in range(0, len(xs), k)
    ]


def matrix_certificate(pair: QualifiedPair, word: Word) -> CertificateReport:
    """The certificate of ``hgsp.certify.verify_witness``, on full matrix products."""
    gen = build_generators(pair)
    v = transvection_vector(gen)
    form = invariant_symplectic_form(gen, v)
    n = gen.degree
    gamma = evaluate_word(word, gen)
    gamma_inv = evaluate_word(word_inverse(word), gen)
    w1 = v
    w2 = mat_vec(gamma_inv, v)
    w3 = mat_vec(gamma, v)
    c = w3[n - 1]

    checks: dict[str, Optional[bool]] = dict.fromkeys(CHECK_ORDER)
    checks["last_entry"] = c in (1, -1, 2, -2)
    checks["independence"] = rank((w1, w2, w3)) == 3

    unit = lambda j: tuple(1 if i == j else 0 for i in range(n))
    omega_v_en = form.pairing(v, unit(n - 1))
    checks["omega_v_prefix_zero"] = all(
        form.pairing(v, unit(j)) == 0 for j in range(n - 1)
    )
    checks["omega_v_last_nonzero"] = omega_v_en != 0
    checks["omega_word_relation"] = form.pairing(w3, v) == -c * omega_v_en

    c1 = mat_mul(letter_matrix(gen, 2), gen.b)
    c2 = mat_mul(mat_mul(gamma_inv, c1), gamma)
    c3 = mat_mul(mat_mul(gamma, c1), gamma_inv)
    checks["c1_transvection"] = is_transvection(c1)
    checks["c2_transvection"] = is_transvection(c2)
    checks["c3_transvection"] = is_transvection(c3)

    radical_dim: Optional[int] = None
    e_vec: Optional[Vector] = None
    restrictions: list[Optional[RatMatrix]] = [None, None, None]
    l1: Optional[Fraction] = None

    if checks["independence"]:
        gram = [
            tuple(form.pairing(wj, wi) for wj in (w1, w2, w3))
            for wi in (w1, w2, w3)
        ]
        # An alternating 3x3 Gram matrix has rank 0 or 2; when it is nonzero
        # its radical is spanned by (G12, -G02, G01).
        coeffs = (gram[1][2], -gram[0][2], gram[0][1])
        radical_dim = 1 if any(coeffs) else 3
        checks["radical_dimension"] = radical_dim == 1
        if checks["radical_dimension"]:
            _, e_vec = _primitive(
                tuple(dot(coeffs, col) for col in zip(w1, w2, w3))
            )
            d, scaled = _scaled_restrictions((e_vec, w1, w2), (c1, c2, c3))
            checks["basis"] = d != 0
            if checks["basis"]:
                checks["fixed_e"] = all(
                    mat_vec(m, e_vec) == e_vec for m in (c1, c2, c3)
                )
                restrictions = [
                    None if s is None
                    else tuple(tuple(Fraction(x, d) for x in row) for row in s)
                    for s in scaled
                ]
                s1, s2, s3 = scaled
                if None in scaled:
                    # Some image escapes W; report it on the form checks.
                    checks["c1_form"] = s1 is not None
                    checks["c2_form"] = s2 is not None
                    checks["c3_first_column"] = s3 is not None
                else:
                    checks["c1_form"] = s1 == ((d, 0, 0), (0, d, -c * d), (0, 0, d))
                    checks["c2_form"] = s2 == ((d, 0, 0), (0, d, 0), (0, c * d, d))
                    checks["c3_first_column"] = (s3[0][0], s3[1][0], s3[2][0]) == (d, 0, 0)
                    l1 = restrictions[2][0][1]
                    checks["l1_nonzero"] = s3[0][1] != 0
                    trace_u = s3[1][1] + s3[2][2]
                    det_u = s3[1][1] * s3[2][2] - s3[1][2] * s3[2][1]
                    checks["u_unipotent"] = trace_u == 2 * d and det_u == d * d

    verdict = all(checks.values())
    first_failure = next(
        (name for name in CHECK_ORDER if checks[name] is not True), None
    )

    return CertificateReport(
        pair_id=pair.pair_id,
        word=str(word),
        degree=n,
        c=c,
        omega_v_en=omega_v_en,
        radical_dimension=radical_dim,
        e_vector=e_vec,
        c1_restriction=restrictions[0],
        c2_restriction=restrictions[1],
        c3_restriction=restrictions[2],
        l1=l1,
        verdict=verdict,
        first_failure=first_failure,
        **{name + "_ok": checks[name] for name in CHECK_ORDER},
    )
