"""Witness search over reduced words in the generators.

A word gamma passes the candidate check when the last entry of gamma(v)
is one of +-1, +-2 and {v, gamma(v), gamma^-1(v)} is linearly independent;
such a gamma certifies arithmeticity.  The engine below runs iterative
deepening with every level enumerated in full, in lexicographic letter
order A < B < A^-1 < B^-1, so the reported witness is the shortest passing
word and lexicographically least among those of that length, the per-depth
node counts are the exact reduced-word counts 4 * 3^(d-1), and the result
is identical no matter how many worker processes share the tree.

Everything here is exact integer arithmetic.  The inner loop never builds
a full matrix product: multiplying on the right by a companion matrix (or
its inverse) only shifts columns and forms one new column, and the last
entry of (M L) v is a single dot product against the precomputed L v.

``reference_search`` is a deliberately plain recursive first-hit searcher,
kept slow and obvious, used to cross-check the engine.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

from .hgroup import build_generators, transvection_vector
from .linalg import (
    Matrix,
    NonUnimodularError,
    Vector,
    identity_matrix,
    linearly_independent,
    mat_mul,
    mat_vec,
    solve_unimodular,
    unimodular_inverse,
)
from .pairs import QualifiedPair
from .words import LETTER_NAMES, Word, inverse_letter

FOUND = "found"
NOT_FOUND = "not_found"
OBSTRUCTED = "obstructed"

_GOOD_LAST = (1, -1, 2, -2)
_ALL_LETTERS = (0, 1, 2, 3)
# Children of a node whose last letter is x: every letter except x's inverse,
# in canonical order.
_ALLOWED = tuple(
    tuple(y for y in _ALL_LETTERS if y != inverse_letter(x)) for x in _ALL_LETTERS
)


@dataclass(frozen=True)
class SearchConfig:
    max_depth: int = 9
    workers: int = 1
    pivot_depth: int = 4
    node_budget: Optional[int] = None
    all_at_min_depth: bool = False


@dataclass(frozen=True)
class SearchOutcome:
    status: str
    max_depth: int
    nodes_visited: int
    nodes_per_depth: tuple[tuple[int, int], ...]
    word: Optional[Word] = None
    matrix: Optional[Matrix] = None
    gamma_v: Optional[Vector] = None
    gamma_inv_v: Optional[Vector] = None
    gcd: Optional[int] = None
    words_at_depth: Optional[tuple[Word, ...]] = None

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "max_depth": self.max_depth,
            "nodes_visited": self.nodes_visited,
            "nodes_per_depth": [list(item) for item in self.nodes_per_depth],
            "word": str(self.word) if self.word is not None else None,
            "word_letters": (
                [LETTER_NAMES[c] for c in self.word] if self.word is not None else None
            ),
            "word_length": len(self.word) if self.word is not None else None,
            "gamma_v": list(self.gamma_v) if self.gamma_v else None,
            "gamma_inv_v": list(self.gamma_inv_v) if self.gamma_inv_v else None,
            "gcd": self.gcd,
            "words_at_depth": (
                [str(w) for w in self.words_at_depth]
                if self.words_at_depth is not None
                else None
            ),
        }


class NodeBudgetExceeded(RuntimeError):
    """Raised before starting a level that would overrun the node budget."""

    def __init__(self, depth_completed: int, nodes_visited: int):
        self.depth_completed = depth_completed
        self.nodes_visited = nodes_visited
        super().__init__(
            f"node budget reached after depth {depth_completed} "
            f"({nodes_visited} words tested)"
        )


def gcd_obstruction(v: Vector) -> Optional[int]:
    """gcd of the entries of v when it rules a witness out (> 2), else None.

    Every gamma in the group is integral with inverse integral, so the
    entries of gamma(v) keep the gcd of v as a common divisor; a gcd above
    2 leaves no room for a last entry in {+-1, +-2}.
    """
    if not any(v):
        raise ValueError("zero vector")
    g = 0
    for x in v:
        g = math.gcd(g, x)
    return g if g > 2 else None


# -- engine internals ---------------------------------------------------------


def _column_plan(mat: Matrix):
    """How to form M L column by column: either copy a column of M (when the
    column of L is a standard basis vector) or combine columns of M."""
    plan = []
    for col in zip(*mat):
        nz = tuple((i, c) for i, c in enumerate(col) if c)
        if len(nz) == 1 and nz[0][1] == 1:
            plan.append(nz[0][0])
        else:
            plan.append(nz)
    return tuple(plan)


class _Engine:
    """Shared state for one search: generator data in column-major form."""

    def __init__(self, mats: tuple[Matrix, Matrix, Matrix, Matrix], v: Vector):
        self.n = len(v)
        self.v = v
        self.mats = mats
        self.lv = tuple(mat_vec(m, v) for m in mats)
        self.plans = tuple(_column_plan(m) for m in mats)
        self.identity_cols = tuple(
            tuple(1 if r == j else 0 for r in range(self.n)) for j in range(self.n)
        )

    def _right_mul(self, cols, letter: int):
        n = self.n
        out = []
        for item in self.plans[letter]:
            if isinstance(item, int):
                out.append(cols[item])
            else:
                out.append(tuple(sum(c * cols[i][r] for i, c in item) for r in range(n)))
        return tuple(out)

    def _confirm(self, child_cols) -> bool:
        m = tuple(zip(*child_cols))
        mv = mat_vec(m, self.v)
        try:
            miv = solve_unimodular(m, self.v)
        except NonUnimodularError:
            return False
        return linearly_independent((self.v, mv, miv))

    def scan(self, cols, last: int, remaining: int, path: list[int],
             hits: list[tuple[int, ...]], collect_all: bool) -> int:
        """Test every reduced extension of `path` by exactly `remaining`
        letters; append passing words to hits; return the number tested."""
        allowed = _ALLOWED[last] if last >= 0 else _ALL_LETTERS
        if remaining == 1:
            n1 = self.n - 1
            lastrow = tuple(col[n1] for col in cols)
            count = 0
            for y in allowed:
                count += 1
                if (collect_all or not hits):
                    t = sum(a * b for a, b in zip(lastrow, self.lv[y]))
                    if t in _GOOD_LAST:
                        child = self._right_mul(cols, y)
                        if self._confirm(child):
                            hits.append(tuple(path) + (y,))
            return count
        count = 0
        for y in allowed:
            child = self._right_mul(cols, y)
            path.append(y)
            count += self.scan(child, y, remaining - 1, path, hits, collect_all)
            path.pop()
        return count

    def scan_level(self, depth: int, collect_all: bool):
        hits: list[tuple[int, ...]] = []
        count = self.scan(self.identity_cols, -1, depth, [], hits, collect_all)
        return count, hits

    def prefixes(self, depth: int):
        """All reduced words of the given length with their column data,
        in lexicographic order."""
        out = []

        def rec(cols, last, remaining, path):
            if remaining == 0:
                out.append((tuple(path), last, cols))
                return
            for y in (_ALLOWED[last] if last >= 0 else _ALL_LETTERS):
                path.append(y)
                rec(self._right_mul(cols, y), y, remaining - 1, path)
                path.pop()

        rec(self.identity_cols, -1, depth, [])
        return out


# Worker-side state, installed once per process by the pool initializer.
_WORKER_ENGINE: Optional[_Engine] = None
_WORKER_PREFIXES = None


def _worker_init(mats, v, pivot_depth):
    global _WORKER_ENGINE, _WORKER_PREFIXES
    _WORKER_ENGINE = _Engine(mats, v)
    _WORKER_PREFIXES = _WORKER_ENGINE.prefixes(pivot_depth)


def _worker_scan(args):
    index, depth, collect_all = args
    letters, last, cols = _WORKER_PREFIXES[index]
    hits: list[tuple[int, ...]] = []
    count = _WORKER_ENGINE.scan(cols, last, depth - len(letters),
                                list(letters), hits, collect_all)
    return count, hits


def _count_reduced_words(depth: int) -> int:
    return 4 * 3 ** (depth - 1)


def search_witness(pair: QualifiedPair, cfg: SearchConfig = SearchConfig()) -> SearchOutcome:
    """Iterative-deepening search for the canonical witness of a pair.

    Returns an obstructed outcome without touching the tree when gcd(v) > 2,
    a found outcome with the canonical word (plus every passing word of that
    length when cfg.all_at_min_depth is set), or a not-found outcome after
    the full tree up to cfg.max_depth has been tested.
    """
    if cfg.max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    if cfg.workers < 1:
        raise ValueError("workers must be at least 1")
    if cfg.pivot_depth < 1:
        raise ValueError("pivot_depth must be at least 1")
    gen = build_generators(pair)
    v = transvection_vector(gen)
    g = gcd_obstruction(v)
    if g is not None:
        return SearchOutcome(
            status=OBSTRUCTED, max_depth=cfg.max_depth, nodes_visited=0,
            nodes_per_depth=(), gcd=g,
        )
    mats = (gen.a, gen.b, gen.a_inv, gen.b_inv)
    engine = _Engine(mats, v)
    use_pool = cfg.workers > 1 and cfg.max_depth > cfg.pivot_depth
    pool = None
    prefix_count = 0
    try:
        if use_pool:
            prefix_count = len(engine.prefixes(cfg.pivot_depth))
            pool = ProcessPoolExecutor(
                max_workers=cfg.workers,
                initializer=_worker_init,
                initargs=(mats, v, cfg.pivot_depth),
            )
        nodes_total = 0
        per_depth: list[tuple[int, int]] = []
        for depth in range(1, cfg.max_depth + 1):
            projected = _count_reduced_words(depth)
            if cfg.node_budget is not None and nodes_total + projected > cfg.node_budget:
                raise NodeBudgetExceeded(depth - 1, nodes_total)
            if pool is not None and depth > cfg.pivot_depth:
                count = 0
                hits: list[tuple[int, ...]] = []
                tasks = ((i, depth, cfg.all_at_min_depth) for i in range(prefix_count))
                chunk = max(1, prefix_count // (4 * cfg.workers))
                for sub_count, sub_hits in pool.map(_worker_scan, tasks, chunksize=chunk):
                    count += sub_count
                    hits.extend(sub_hits)
            else:
                count, hits = engine.scan_level(depth, cfg.all_at_min_depth)
            nodes_total += count
            per_depth.append((depth, count))
            if hits:
                word = Word(hits[0])
                matrix = identity_matrix(gen.degree)
                for code in word.letters:
                    matrix = mat_mul(matrix, gen.letter_matrix(code))
                return SearchOutcome(
                    status=FOUND,
                    max_depth=cfg.max_depth,
                    nodes_visited=nodes_total,
                    nodes_per_depth=tuple(per_depth),
                    word=word,
                    matrix=matrix,
                    gamma_v=mat_vec(matrix, v),
                    gamma_inv_v=solve_unimodular(matrix, v),
                    words_at_depth=(
                        tuple(Word(h) for h in hits) if cfg.all_at_min_depth else None
                    ),
                )
        return SearchOutcome(
            status=NOT_FOUND,
            max_depth=cfg.max_depth,
            nodes_visited=nodes_total,
            nodes_per_depth=tuple(per_depth),
        )
    finally:
        if pool is not None:
            pool.shutdown()


# -- reference implementation -------------------------------------------------


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
        if mv[n - 1] not in _GOOD_LAST:
            return False
        miv = mat_vec(unimodular_inverse(m), v)
        return linearly_independent((miv, v, mv))

    def walk(m: Matrix, path: list[int], last: Optional[int]):
        if passes(m):
            return tuple(path)
        if len(path) == max_depth:
            return None
        for y in _ALL_LETTERS:
            if last is not None and y == inverse_letter(last):
                continue
            path.append(y)
            hit = walk(mat_mul(m, gen.letter_matrix(y)), path, y)
            if hit is not None:
                return hit
            path.pop()
        return None

    hit = walk(identity_matrix(n), [], None)
    if hit is None:
        return ReferenceResult(found=False, word=None, nodes=counter[0])
    return ReferenceResult(found=True, word=Word(hit), nodes=counter[0])
