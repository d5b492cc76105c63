"""Witness search over reduced words in the generators.

A word gamma passes the candidate check when the last entry of gamma(v)
is one of +-1, +-2 and {v, gamma(v), gamma^-1(v)} is linearly independent;
such a gamma certifies arithmeticity.  The engine below runs iterative
deepening and settles every level in full, in lexicographic letter order
A < B < A^-1 < B^-1, so the reported witness is the shortest passing word
and lexicographically least among those of that length, the per-depth
node counts are the exact reduced-word counts 4 * 3^(d-1) (words settled,
not words tested; see below).  Every level runs in the calling process;
to use more cores, search more pairs at once, one process per pair.

Everything here is exact integer arithmetic.  The last entry of gamma(v) is
r . v for the last row r = e_n^T gamma, so r (n ints, e_n at the root) is
the only state the search carries.  A step r -> r L is one O(n) row step on
the letter's column (words.LETTER_ROW_STEPS), as every letter is a shift
but for that column.  The last 6 letters of every word (all of a shorter
one) are tested as a suffix block: the at most 486 suffixes s that may
follow the prefix, in lexicographic order, with each coordinate of
w_s = L_s v packed into one big int at W bits per suffix.  A block stores
only its count; the suffix at position j is decoded from j by counting
suffixes, counts that do not depend on the pair.  One dot product of r with
the packed coordinates gives every r . w_s at once.  Each block carries a
per-coordinate bound, bound[i] >= max_s |w_s[i]|, the same at every width,
and the row's load sum_i |r_i| bound[i] picks the width: the fewest whole
bytes, at least four, with load + 2 < 2^(W-1).  Each field then holds
r . w_s + 2^(W-1) + 2 inside [0, 2^W), with no carry, and any load gets a
wide enough field, so every row is tested by its block.  The four good
fields are 2^(W-1) + {0, 1, 3, 4}: little-endian, they share their top
W/8 - 1 bytes, 00 .. 00 80.  A block without that pattern in its bytes is
dismissed by one scan; otherwise the four good fields are looked up, and a
match counts only at a field boundary.  A word whose last entry passes is
confirmed with 2k O(n) steps, gamma(v) from its last letter back and
gamma^-1(v) from its first letter on, and the independence test.

The block of length k that follows a letter x holds y s for each letter y
allowed after x and each s in the block of length k - 1 that follows y, so
it is three runs joined in letter order.  Each run L_y (block k - 1 after
y) is built once per length and width, packed: L_y's column step
(words.LETTER_STEPS) applied to the block's n packed columns, and the same
step on |column| applied to the block's bound, which gives |L_y| times it,
|L_y| taken entrywise.  Joining signed packings is exact whatever the
fields' sizes: a run goes in shifted up by W bits per suffix before it, and
the joined bound is the runs' coordinate-wise max.  The bound at length 0
is |v|.  So every length stays packed at every width, however large its
entries.

Pruning rules.  T = A^-1 B fixes e_1 .. e_{n-1}, so T = I + v e_n^T with
Tv = v (v_n = 0 as f and g are monic), e_n^T T = e_n^T and Tx = x + x_n v.
So gamma, gamma T^+-1 and T^+-1 gamma share the last entry of gamma(v)
and the span {v, gamma(v), gamma^-1(v)}, and pass together.
- No tested word ends in B or starts with B^-1: as B = AT and
  B^-1 = T^-1 A^-1, uB passes iff uA does and B^-1 u iff A^-1 u, and the
  A-version comes first in the order or reduces to a word two letters
  shorter.
- No tested word ends in B^-1 A, and none that the scan steps from the
  root starts with A^-1 B: u B^-1 A = u T^-1 and A^-1 B u = T u pass iff
  u does, a word two letters shorter, so they are never a minimal-depth
  witness.  Inside a root block (depth <= 6) the A^-1 B words are still
  tested; they cannot pass.
The suffix rules look up to two letters back, so the scan state is the
last letter, or a fifth state "A after B^-1": its children are A's, and
the empty suffix follows neither it nor B.  The suffix counts and the
length-0 blocks follow from that table, and from length 1 on the block
after the fifth state is the block after A.  With all_at_min_depth the
passing words found are closed under both swaps (a final A becomes B, a
first A^-1 becomes B^-1); at the minimal depth every swapped word is
reduced, since otherwise a word two letters shorter would pass.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .hgroup import GeneratorPair, build_generators, transvection_vector
from .linalg import Vector, linearly_independent
from .pairs import QualifiedPair, gcd_obstruction
from .words import A, A_INV, B, B_INV, LETTER_NAMES, Word, inverse_letter, word_images
from .words import LETTER_ROW_STEPS, LETTER_STEPS

FOUND = "found"
NOT_FOUND = "not_found"
OBSTRUCTED = "obstructed"

_BLOCK_DEPTH = 6  # the last letters of every word are tested as one suffix block
_GOOD_LAST = frozenset((1, -1, 2, -2))
_ALL_LETTERS = (0, 1, 2, 3)
# A scan state is the last letter of the word so far, or _A_AFTER_B_INV: an A
# whose letter before is B^-1.  A tested word may not end in B or in B^-1 A.
_A_AFTER_B_INV = 4
_LETTER = (A, B, A_INV, B_INV, A)  # the last letter of each state
_MAY_END = (True, False, True, True, False)
# Children of a state: every letter except its last letter's inverse, in
# canonical order, each as the state it leads to.
_ALLOWED = tuple(
    tuple(
        _A_AFTER_B_INV if x == B_INV and y == A else y
        for y in _ALL_LETTERS if y != inverse_letter(x)
    )
    for x in _LETTER
)
# The root is scanned as if it followed a B: neither is followed by B^-1.
_ROOT_LAST = B


@dataclass(frozen=True)
class SearchConfig:
    """Search settings.  workers must be at least 1 and changes nothing
    else: every search runs in one process, whatever its value."""

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


def _close_hits(hits) -> list[tuple[int, ...]]:
    """Every passing word of the minimal length, in canonical order, from the
    passing words tested: a final A may become B and a first A^-1 may
    become B^-1."""
    words = set(hits)
    words |= {w[:-1] + (B,) for w in words if w[-1] == A}
    words |= {(B_INV,) + w[1:] for w in words if w[0] == A_INV}
    return sorted(words)


@lru_cache(maxsize=None)
def _packing(count: int, width: int) -> tuple[int, tuple[bytes, ...], bytes]:
    """A block's bias, sum_j (2^(width-1) + 2) 2^(width j) over count fields;
    the good fields, 2^(width-1) + 2 + (-2, -1, 1, 2), as little-endian bytes;
    and the bytes all four share, all but the lowest."""
    zero = (1 << (width - 1)) + 2  # the field of r . w_s = 0
    good = tuple((zero + t).to_bytes(width // 8, "little") for t in sorted(_GOOD_LAST))
    bias = int.from_bytes(zero.to_bytes(width // 8, "little") * count, "little")
    return bias, good, good[0][1:]


def _width(load: int) -> int:
    """The narrowest field for a row of this load: the fewest whole bytes,
    at least four, with load + 2 < 2^(width-1)."""
    return max(32, ((load + 2).bit_length() + 8) // 8 * 8)


@lru_cache(maxsize=None)
def _size(k: int, last: int) -> int:
    """How many suffixes of length k may follow the state last."""
    if k == 0:
        return int(_MAY_END[last])
    return sum(_size(k - 1, y) for y in _ALLOWED[last])


def _suffix(k: int, last: int, j: int) -> tuple[int, ...]:
    """The suffix at position j of the block of length k that follows the
    state last."""
    letters = []
    for rest in range(k - 1, -1, -1):  # the letters left after this one
        for y in _ALLOWED[last]:
            if j < _size(rest, y):
                break
            j -= _size(rest, y)
        letters.append(_LETTER[y])
        last = y
    return tuple(letters)


class _Block:
    """The w_s = L_s v for the suffixes s of one length that may follow one
    state, in lexicographic order, packed at width bits per suffix (a whole
    number of bytes): with j the position of s, columns[i] =
    sum_s w_s[i] 2^(width j), a signed packing, and bound[i] >= max_s |w_s[i]|,
    the same at every width.

    If the load sum_i |r_i| bound[i] satisfies load + 2 < 2^(width-1) then
    field j of sum_i r_i columns[i] + bias is exactly r . w_s + 2^(width-1) + 2,
    in [0, 2^width), with no carry.  `good` holds the fields of
    r . w_s = -2, -1, 1, 2 as little-endian bytes, and `top` the bytes they
    share.
    """

    def __init__(self, count: int, columns, bound, width: int):
        self.count = count
        self.columns = columns
        self.bound = bound
        self.width = width
        self.bias, self.good, self.top = _packing(count, width)

    def load(self, row) -> int:
        """sum_i |r_i| bound[i]: the packed test is exact when load + 2 is
        below 2^(width-1)."""
        return sum(map(operator.mul, map(abs, row), self.bound))

    def candidates(self, row) -> list[int]:
        """Positions of the suffixes s with r . w_s in {+-1, +-2}, ascending,
        for a row with load + 2 below 2^(width-1)."""
        size = self.width // 8
        packed = sum(map(operator.mul, row, self.columns), self.bias)
        data = packed.to_bytes(size * self.count, "little")
        if self.top not in data:
            return []
        # a pattern may straddle two fields: only a match at a field boundary counts
        hits = []
        for field in self.good:
            i = data.find(field)
            while i >= 0:
                if i % size == 0:
                    hits.append(i // size)
                i = data.find(field, i + 1)
        return sorted(hits)


class _Engine:
    """Shared state for one search: each letter's column, and the suffix
    blocks and the runs they are joined from, at each width, built on first
    use."""

    def __init__(self, gen: GeneratorPair, v: Vector):
        self.v = v
        self.columns = gen.columns
        self.root = (0,) * (gen.degree - 1) + (1,)
        # by (length, state, width) and (length, first state, width); a block
        # of length k >= 1 depends only on the state's letter, and so does a
        # run of length k >= 2
        self.blocks: dict[tuple[int, int, int], _Block] = {}
        self.runs: dict[tuple[int, int, int], _Block] = {}

    def _step(self, row, letter: int):
        return LETTER_ROW_STEPS[letter](self.columns[letter], row)

    def _run(self, k: int, y: int, width: int) -> _Block:
        """The suffixes of length k that start in the state y: L_y applied
        to the n packed columns of block (k - 1, y), with bound |L_y| times
        that block's bound, the same step on |column|."""
        key = (k, _LETTER[y] if k > 1 else y, width)
        if key not in self.runs:
            part, letter = self.block(k - 1, y, width), _LETTER[y]
            step, column = LETTER_STEPS[letter], self.columns[letter]
            self.runs[key] = _Block(
                part.count, step(column, part.columns),
                step(tuple(map(abs, column)), part.bound), width,
            )
        return self.runs[key]

    def block(self, k: int, last: int, width: int = 32) -> _Block:
        """The runs of length k whose first state may follow the state last,
        joined in letter order: each run's signed packing moves up width bits
        for every suffix in the runs before it, and the bound is the runs'
        coordinate-wise max.  At length 0 the block is v alone, or empty
        where a tested word may not end."""
        key = (k, _LETTER[last] if k else last, width)
        if key not in self.blocks:
            if k == 0:
                v = self.v if _MAY_END[last] else (0,) * len(self.v)
                block = _Block(int(_MAY_END[last]), v, tuple(map(abs, v)), width)
            else:
                runs = [self._run(k, y, width) for y in _ALLOWED[last]]
                columns, shift = runs[0].columns, 0
                for below, run in zip(runs, runs[1:]):
                    shift += width * below.count
                    columns = tuple(c + (d << shift) for c, d in zip(columns, run.columns))
                bound = tuple(map(max, *(run.bound for run in runs)))
                block = _Block(sum(run.count for run in runs), columns, bound, width)
            self.blocks[key] = block
        return self.blocks[key]

    def fitting(self, k: int, last: int, row) -> _Block:
        """Block (k, last) at the narrowest width whose packed test is exact
        for row."""
        return self.block(k, last, _width(self.block(k, last).load(row)))

    def _confirm(self, word: tuple[int, ...], hits: list[tuple[int, ...]]) -> None:
        if linearly_independent(self.v, *word_images(self.columns, self.v, word)):
            hits.append(word)

    def scan(self, row, last: int, remaining: int, path: list[int],
             hits: list[tuple[int, ...]], collect_all: bool) -> None:
        """Test every extension of `path` (whose last row is `row` and whose
        state is `last`) by exactly `remaining` >= 1 letters that ends in
        neither B nor B^-1 A; append passing words to hits.  The last
        _BLOCK_DEPTH letters are one block test.  Where the scan steps a
        first A^-1 from the root it skips the B after it."""
        if hits and not collect_all:
            return
        if remaining <= _BLOCK_DEPTH:
            for j in self.fitting(remaining, last, row).candidates(row):
                self._confirm(tuple(path) + _suffix(remaining, last, j), hits)
                if hits and not collect_all:
                    break
            return
        children = _ALLOWED[last]
        if last == A_INV and len(path) == 1:
            children = children[1:]  # the first child, B, would start the word with A^-1 B
        for y in children:
            letter = _LETTER[y]
            path.append(letter)
            self.scan(self._step(row, letter), y, remaining - 1, path, hits, collect_all)
            path.pop()


def search_witness(pair: QualifiedPair, cfg: SearchConfig = SearchConfig()) -> SearchOutcome:
    """Iterative-deepening search for the canonical witness of a pair.

    Returns an obstructed outcome without touching the tree when gcd(v) > 2,
    a found outcome with the canonical word (plus every passing word of that
    length when cfg.all_at_min_depth is set), or a not-found outcome after
    the full tree up to cfg.max_depth has been tested, every level in this
    process.
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
    for depth in range(1, cfg.max_depth + 1):
        hits: list[tuple[int, ...]] = []
        engine.scan(engine.root, _ROOT_LAST, depth, [], hits, cfg.all_at_min_depth)
        if hits:
            gamma_v, gamma_inv_v = word_images(engine.columns, v, hits[0])
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
