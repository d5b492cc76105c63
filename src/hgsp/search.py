"""Witness search over reduced words in the generators.

A word gamma passes the candidate check when the last entry of gamma(v)
is one of +-1, +-2 and {v, gamma(v), gamma^-1(v)} is linearly independent;
such a gamma certifies arithmeticity.  The engine below runs iterative
deepening and settles every level in full, in lexicographic letter order
A < B < A^-1 < B^-1, so the reported witness is the shortest passing word
and lexicographically least among those of that length, the per-depth
node counts are the exact reduced-word counts 4 * 3^(d-1) (words settled,
not words tested; see below), and the result is identical no matter how
many worker processes share the tree.

Everything here is exact integer arithmetic.  The last entry of gamma(v)
is r . v for the last row r = e_n^T gamma, so r (n ints, e_n at the root)
is the only state the search carries.  A step r -> r L copies entry i of r
where column j of L is e_i and takes one dot product over the nonzeros of
every other column.  The last 6 letters of every word (all of a shorter
one) are tested as a suffix block: the at most 547 reduced suffixes s that
may follow the prefix, in lexicographic order, with each coordinate of
w_s = L_s v packed into one big int at 64 bits per suffix.  A block stores
only its count; the suffix at position j is decoded from j by counting
suffixes, counts that do not depend on the pair.  One dot product of r with
the packed coordinates gives every r . w_s at once.  Each block carries a
per-coordinate bound, bound[i] >= max_s |w_s[i]|, and the packed test is
used only when sum_i |r_i| bound[i] < 2^63; that keeps each r . w_s + 2^63
inside its unsigned 64-bit field, and the hits are read from the fields.
The four good fields are fixed 8-byte strings, so a block with none of
them in its bytes is dismissed without decoding.  A row that does not fit
its block steps one more letter and tests the shorter blocks, down to
length 0, where r . v is taken alone.  A word whose last entry passes is
confirmed with 2k matrix-vector products, gamma(v) from its last letter
back and gamma^-1(v) from its first letter on, and the independence test.

The block of length k that follows a letter x holds y s for each letter y
allowed after x and each s in the block of length k - 1 that follows y, so
it is three runs joined in letter order.  Each run L_y (block k - 1 after
y) is built once per length, packed: L_y applied to the block's n packed
columns, with bound |L_y| times the block's bound, |L_y| taken entrywise.
Joining signed packings is exact whatever the fields' sizes: a run goes in
shifted up by 64 bits per suffix before it, and the joined bound is the
runs' coordinate-wise max.  The bound at length 0 is |v|.  So every length
stays packed, however large its entries.

Pruning rule: no tested word ends in B or starts with B^-1.  Proof:
T = A^-1 B fixes e_1 .. e_{n-1} and Tv = v (v_n = 0 as f and g are
monic), so gamma, gamma T and T gamma share the last entry and the span
{v, gamma(v), gamma^-1(v)}; as B = AT and B^-1 = T^-1 A^-1, uB passes iff
uA does and B^-1 u iff A^-1 u, and the A-version comes first in the
order or reduces to a word two letters shorter.  So no block holds a
suffix ending in B (the empty suffix does not follow B), the root skips
B^-1, and with workers each level deeper than 4 is split over the 81
reduced words of length 4 that do not start with B^-1, each task stepping
its prefix's row from the root.  With all_at_min_depth the passing words
found are closed under both swaps (a final A becomes B, a first A^-1
becomes B^-1); at the minimal depth every swapped word is reduced, since
otherwise a word two letters shorter would pass.
"""

from __future__ import annotations

import operator
import os
import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product
from typing import Optional

from .hgroup import GeneratorPair, build_generators, transvection_vector
from .linalg import Matrix, Vector, linearly_independent, transpose
from .pairs import QualifiedPair, gcd_obstruction
from .words import A, A_INV, B, B_INV, LETTER_NAMES, Word, inverse_letter, word_images

FOUND = "found"
NOT_FOUND = "not_found"
OBSTRUCTED = "obstructed"

_PIVOT_DEPTH = 4  # workers split every deeper level over the prefixes of this length
_BLOCK_DEPTH = 6  # the last letters of every word are tested as one suffix block
_GOOD_LAST = frozenset((1, -1, 2, -2))
_HALF = 1 << 63
_GOOD_FIELDS = frozenset(_HALF + t for t in _GOOD_LAST)
_GOOD_BYTES = tuple(x.to_bytes(8, sys.byteorder) for x in sorted(_GOOD_FIELDS))
_ALL_LETTERS = (0, 1, 2, 3)
# Children of a node whose last letter is x: every letter except x's inverse,
# in canonical order.
_ALLOWED = tuple(
    tuple(y for y in _ALL_LETTERS if y != inverse_letter(x)) for x in _ALL_LETTERS
)
# The root is scanned as if it followed a B: neither is followed by B^-1.
_ROOT_LAST = B
# The reduced words of length _PIVOT_DEPTH that do not start with B^-1, in
# lexicographic order: with workers, every deeper level is split over them.
_PREFIXES = tuple(
    p for p in product(_ALL_LETTERS, repeat=_PIVOT_DEPTH)
    if all(y in _ALLOWED[x] for x, y in zip((_ROOT_LAST,) + p, p))
)


@dataclass(frozen=True)
class SearchConfig:
    max_depth: int = 9
    workers: int = 1
    all_at_min_depth: bool = False


@dataclass(frozen=True)
class SearchOutcome:
    status: str
    max_depth: int
    word: Optional[Word] = None
    gamma_v: Optional[Vector] = None
    gamma_inv_v: Optional[Vector] = None
    gcd: Optional[int] = None
    words_at_depth: Optional[tuple[Word, ...]] = None

    @property
    def nodes_per_depth(self) -> tuple[tuple[int, int], ...]:
        """(d, 4 * 3^(d-1)) for every level settled: up to the witness's
        length, up to max_depth if none was found, none if obstructed."""
        if self.status == OBSTRUCTED:
            depth = 0
        else:
            depth = len(self.word) if self.word is not None else self.max_depth
        return tuple((d, 4 * 3 ** (d - 1)) for d in range(1, depth + 1))

    @property
    def nodes_visited(self) -> int:
        return sum(count for _, count in self.nodes_per_depth)

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


# -- engine internals ---------------------------------------------------------


def _row_plan(mat: Matrix):
    """How to form r L entry by entry: copy r[i] where column j of L is e_i,
    otherwise take the dot product with that column's nonzeros."""
    plan = []
    for col in zip(*mat):
        nz = tuple((i, c) for i, c in enumerate(col) if c)
        plan.append(nz[0][0] if len(nz) == 1 and nz[0][1] == 1 else nz)
    return tuple(plan)


def _apply(plan, x):
    """The entries of a plan's product, taken from x (ints or packed ints)."""
    return tuple([
        x[item] if type(item) is int else sum(c * x[i] for i, c in item)
        for item in plan
    ])


def _close_hits(hits) -> list[tuple[int, ...]]:
    """Every passing word of the minimal length, in canonical order, from the
    passing words tested: a final A may become B and a first A^-1 may
    become B^-1."""
    words = set(hits)
    words |= {w[:-1] + (B,) for w in words if w[-1] == A}
    words |= {(B_INV,) + w[1:] for w in words if w[0] == A_INV}
    return sorted(words)


@lru_cache(maxsize=None)
def _bias(count: int) -> int:
    """sum_j 2^63 2^(64 j) over count fields."""
    return int.from_bytes(array("Q", [_HALF]).tobytes() * count, sys.byteorder)


@lru_cache(maxsize=None)
def _size(k: int, last: int) -> int:
    """How many reduced suffixes of length k may follow last and do not end in B."""
    if k == 0:
        return int(last != B)
    return sum(_size(k - 1, y) for y in _ALLOWED[last])


def _suffix(k: int, last: int, j: int) -> tuple[int, ...]:
    """The suffix at position j of the block of length k that follows last."""
    letters = []
    for rest in range(k - 1, -1, -1):  # the letters left after this one
        for y in _ALLOWED[last]:
            if j < _size(rest, y):
                break
            j -= _size(rest, y)
        letters.append(y)
        last = y
    return tuple(letters)


class _Block:
    """The w_s = L_s v for the reduced suffixes s of one length that may
    follow one letter and do not end in B, in lexicographic order, packed:
    with j the position of s, columns[i] = sum_s w_s[i] 2^(64 j), a signed
    packing, and bound[i] >= max_s |w_s[i]|.

    If sum_i |r_i| bound[i] < 2^63 then every |r . w_s| < 2^63, so field j
    of sum_i r_i columns[i] + bias is exactly r . w_s + 2^63, with no carry.
    """

    def __init__(self, count: int, columns, bound):
        self.count = count
        self.columns = columns
        self.bound = bound
        self.bias = _bias(count)

    def fits(self, row) -> bool:
        """Whether the packed test is exact for this row."""
        return sum(map(operator.mul, map(abs, row), self.bound)) < _HALF

    def candidates(self, row) -> list[int]:
        """Positions of the suffixes s with r . w_s in {+-1, +-2}, ascending,
        for a row that fits."""
        packed = sum(map(operator.mul, row, self.columns), self.bias)
        data = packed.to_bytes(8 * self.count, sys.byteorder)
        # a pattern may straddle two fields, so only a match decodes them
        if not (_GOOD_BYTES[0] in data or _GOOD_BYTES[1] in data
                or _GOOD_BYTES[2] in data or _GOOD_BYTES[3] in data):
            return []
        return [j for j, x in enumerate(memoryview(data).cast("Q")) if x in _GOOD_FIELDS]


class _Engine:
    """Shared state for one search: each letter's row plan, and the suffix
    blocks and the runs they are joined from, built on first use."""

    def __init__(self, gen: GeneratorPair, v: Vector):
        self.v = v
        self.mats = (gen.a, gen.b, gen.a_inv, gen.b_inv)
        self.plans = tuple(_row_plan(m) for m in self.mats)
        self.vec_plans = tuple(_row_plan(transpose(m)) for m in self.mats)  # L w, row by row
        self.bound_plans = tuple(  # |L| b, row by row
            _row_plan(transpose([list(map(abs, r)) for r in m])) for m in self.mats
        )
        self.root = (0,) * (gen.degree - 1) + (1,)
        # The empty suffix may follow every letter except B: no tested word
        # ends in B.
        zero = (0,) * len(v)
        self.blocks: dict[tuple[int, int], _Block] = {  # by (length, previous letter)
            (0, x): _Block(0, zero, zero) if x == B else _Block(1, v, tuple(map(abs, v)))
            for x in _ALL_LETTERS
        }
        self.runs: dict[tuple[int, int], _Block] = {}  # by (length, first letter)

    def _step(self, row, letter: int):
        return _apply(self.plans[letter], row)

    def _run(self, k: int, y: int) -> _Block:
        """The suffixes y s of length k: L_y applied to the n packed columns of
        block (k - 1, y), with bound |L_y| times that block's bound."""
        key = (k, y)
        if key not in self.runs:
            part = self.block(k - 1, y)
            self.runs[key] = _Block(
                part.count, _apply(self.vec_plans[y], part.columns),
                _apply(self.bound_plans[y], part.bound),
            )
        return self.runs[key]

    def block(self, k: int, last: int) -> _Block:
        """The runs of length k whose first letter may follow last, joined in
        letter order: each run's signed packing moves up 64 bits for every
        suffix in the runs before it, and the bound is the runs' coordinate-wise
        max."""
        key = (k, last)
        if key not in self.blocks:
            runs = [self._run(k, y) for y in _ALLOWED[last]]
            columns, shift = runs[0].columns, 0
            for below, run in zip(runs, runs[1:]):
                shift += 64 * below.count
                columns = tuple(c + (d << shift) for c, d in zip(columns, run.columns))
            bound = tuple(map(max, *(run.bound for run in runs)))
            self.blocks[key] = _Block(sum(run.count for run in runs), columns, bound)
        return self.blocks[key]

    def _confirm(self, word: tuple[int, ...], hits: list[tuple[int, ...]]) -> None:
        if linearly_independent((self.v, *word_images(self.mats, self.v, word))):
            hits.append(word)

    def scan(self, row, last: int, remaining: int, path: list[int],
             hits: list[tuple[int, ...]], collect_all: bool) -> None:
        """Test every extension of `path` (whose last row is `row`) by exactly
        `remaining` letters that does not end in B; append passing words to
        hits.  A row too large for its block's packed test steps one more
        letter and tests the shorter blocks; at length 0 it is tested alone."""
        if hits and not collect_all:
            return
        if remaining == 0:
            if last != B and sum(map(operator.mul, row, self.v)) in _GOOD_LAST:
                self._confirm(tuple(path), hits)
            return
        if remaining <= _BLOCK_DEPTH:
            block = self.block(remaining, last)
            if block.fits(row):
                for j in block.candidates(row):
                    self._confirm(tuple(path) + _suffix(remaining, last, j), hits)
                    if hits and not collect_all:
                        break
                return
        for y in _ALLOWED[last]:
            path.append(y)
            self.scan(self._step(row, y), y, remaining - 1, path, hits, collect_all)
            path.pop()


# Worker-side state, installed once per process by the pool initializer.
_WORKER_ENGINE: Optional[_Engine] = None


def _worker_init(gen, v):
    global _WORKER_ENGINE
    _WORKER_ENGINE = _Engine(gen, v)


def _worker_scan(args):
    letters, depth, collect_all = args
    engine = _WORKER_ENGINE
    hits: list[tuple[int, ...]] = []
    row = reduce(engine._step, letters, engine.root)
    engine.scan(row, letters[-1], depth - _PIVOT_DEPTH, list(letters), hits, collect_all)
    return hits


def search_witness(pair: QualifiedPair, cfg: SearchConfig = SearchConfig()) -> SearchOutcome:
    """Iterative-deepening search for the canonical witness of a pair.

    Returns an obstructed outcome without touching the tree when gcd(v) > 2,
    a found outcome with the canonical word (plus every passing word of that
    length when cfg.all_at_min_depth is set), or a not-found outcome after
    the full tree up to cfg.max_depth has been tested.  At most
    os.cpu_count() worker processes are started, whatever cfg.workers asks.
    """
    if cfg.max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    if cfg.workers < 1:
        raise ValueError("workers must be at least 1")
    gen = build_generators(pair)
    v = transvection_vector(gen)
    g = gcd_obstruction(v)
    if g is not None:
        return SearchOutcome(status=OBSTRUCTED, max_depth=cfg.max_depth, gcd=g)
    engine = _Engine(gen, v)
    workers = min(cfg.workers, os.cpu_count() or 1)
    pool = None
    try:
        if workers > 1 and cfg.max_depth > _PIVOT_DEPTH:
            from concurrent.futures import ProcessPoolExecutor  # loaded only when used

            pool = ProcessPoolExecutor(
                max_workers=workers, initializer=_worker_init, initargs=(gen, v),
            )
        for depth in range(1, cfg.max_depth + 1):
            hits: list[tuple[int, ...]] = []
            if pool is not None and depth > _PIVOT_DEPTH:
                tasks = ((p, depth, cfg.all_at_min_depth) for p in _PREFIXES)
                chunk = max(1, len(_PREFIXES) // (4 * workers))
                for sub_hits in pool.map(_worker_scan, tasks, chunksize=chunk):
                    hits.extend(sub_hits)
            else:
                engine.scan(engine.root, _ROOT_LAST, depth, [], hits, cfg.all_at_min_depth)
            if hits:
                gamma_v, gamma_inv_v = word_images(engine.mats, v, hits[0])
                return SearchOutcome(
                    status=FOUND,
                    max_depth=cfg.max_depth,
                    word=Word(hits[0]),
                    gamma_v=gamma_v,
                    gamma_inv_v=gamma_inv_v,
                    words_at_depth=(
                        tuple(Word(h) for h in _close_hits(hits))
                        if cfg.all_at_min_depth else None
                    ),
                )
        return SearchOutcome(status=NOT_FOUND, max_depth=cfg.max_depth)
    finally:
        if pool is not None:
            pool.shutdown()

