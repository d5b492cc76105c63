"""Reduced words over the alphabet {A, B, A^-1, B^-1}.

Letters are coded 0, 1, 2, 3 in that order, which is also the canonical
ordering used everywhere a "lexicographically least" word is promised.
The text form collapses runs, so the letter tuple (0, 0, 1, 2, 2) prints
as "A^2BA^-2" and parses back to itself.  Parenthesized groups with
exponents, as in "(A^2B)^-1", are also accepted on input so that witness
words quoted from tables paste straight in.  Words that are not reduced
are rejected rather than silently cancelled, and so is any text that
would expand to more than MAX_WORD_LENGTH letters or nests groups deeper
than MAX_NESTING.  A word acts on vectors through word_images and on rows
through word_row_images, one O(n) step per letter on the four columns of
a hgroup.GeneratorPair; the library never forms its matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .linalg import Vector, companion_row_step, companion_step, inverse_row_step, inverse_step

A, B, A_INV, B_INV = 0, 1, 2, 3
LETTER_NAMES = ("A", "B", "A^-1", "B^-1")
BASE_LETTER = ("A", "B", "A", "B")
#: Longest word the parser expands; about 70 times the longest tabulated
#: witness (14 letters).
MAX_WORD_LENGTH = 1000
#: Deepest nesting of parenthesized groups the parser accepts; the parser
#: recurses once per level.
MAX_NESTING = 50


#: By letter code, the steps x -> L x and r -> r^T L on L's column.
LETTER_STEPS = (companion_step, companion_step, inverse_step, inverse_step)
LETTER_ROW_STEPS = (companion_row_step, companion_row_step, inverse_row_step, inverse_row_step)


def inverse_letter(code: int) -> int:
    return code ^ 2


class WordSyntaxError(ValueError):
    pass


class NotReducedError(ValueError):
    pass


@dataclass(frozen=True, init=False)
class Word:
    """A reduced word; construction rejects adjacent inverse letters."""

    letters: tuple[int, ...]

    def __init__(self, letters: Iterable[int] = ()):
        ls = tuple(letters)
        for code in ls:
            if code not in (0, 1, 2, 3):
                raise ValueError(f"bad letter code {code!r}")
        for x, y in zip(ls, ls[1:]):
            if y == inverse_letter(x):
                raise NotReducedError(
                    f"word contains cancelling letters {LETTER_NAMES[x]}{LETTER_NAMES[y]}"
                )
        object.__setattr__(self, "letters", ls)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __str__(self) -> str:
        ls, parts, start = self.letters, [], 0
        for j in range(1, len(ls) + 1):  # a run of ls[start] ends before j
            if j == len(ls) or ls[j] != ls[start]:
                parts.append(_format_run(ls[start], j - start))
                start = j
        return "".join(parts)

    @classmethod
    def parse(cls, text: str) -> "Word":
        letters, pos = _parse_sequence(text, 0, depth=0)
        if pos != len(text):
            raise WordSyntaxError(f"unexpected {text[pos]!r} at position {pos}")
        if not letters:
            raise WordSyntaxError("empty word")
        return cls(letters)


def _format_run(code: int, run_len: int) -> str:
    base = BASE_LETTER[code]
    if code >= 2:
        return f"{base}^-{run_len}"
    if run_len == 1:
        return base
    return f"{base}^{run_len}"


def _parse_exponent(text: str, pos: int) -> tuple[int, int]:
    """Parse an optional ^ exponent at pos; return (exponent, new pos)."""
    if pos >= len(text) or text[pos] != "^":
        return 1, pos
    pos += 1
    negative = False
    if pos < len(text) and text[pos] == "-":
        negative = True
        pos += 1
    start = pos
    while pos < len(text) and text[pos] in "0123456789":  # ASCII only
        pos += 1
    if pos == start:
        raise WordSyntaxError(f"missing exponent digits at position {start}")
    digits = text[start:pos].lstrip("0")
    if len(digits) > len(str(MAX_WORD_LENGTH)):
        raise _too_long()  # no int() of an arbitrarily long digit string
    value = int(digits or "0")
    if value == 0:
        raise WordSyntaxError("exponent 0 is not allowed")
    return (-value if negative else value), pos


def _too_long() -> WordSyntaxError:
    return WordSyntaxError(f"word longer than {MAX_WORD_LENGTH} letters")


def _parse_sequence(text: str, pos: int, depth: int) -> tuple[list[int], int]:
    """Parse letters and groups from pos up to an unmatched ')' or the end;
    depth counts the groups that enclose pos."""
    letters: list[int] = []
    while pos < len(text):
        ch = text[pos]
        if ch == ")":
            if depth == 0:
                raise WordSyntaxError(f"unmatched ')' at position {pos}")
            return letters, pos
        if ch == "(":
            if depth == MAX_NESTING:
                raise WordSyntaxError(
                    f"groups nested deeper than {MAX_NESTING} at position {pos}"
                )
            inner, pos = _parse_sequence(text, pos + 1, depth + 1)
            if pos >= len(text) or text[pos] != ")":
                raise WordSyntaxError("unmatched '('")
            if not inner:
                raise WordSyntaxError("empty parenthesized group")
            pos += 1
            exp, pos = _parse_exponent(text, pos)
            if len(letters) + len(inner) * abs(exp) > MAX_WORD_LENGTH:
                raise _too_long()
            block = inner if exp > 0 else [inverse_letter(c) for c in reversed(inner)]
            for _ in range(abs(exp)):
                letters.extend(block)
        elif ch in ("A", "B"):
            base = A if ch == "A" else B
            exp, pos2 = _parse_exponent(text, pos + 1)
            if len(letters) + abs(exp) > MAX_WORD_LENGTH:
                raise _too_long()
            code = base if exp > 0 else inverse_letter(base)
            letters.extend([code] * abs(exp))
            pos = pos2
        else:
            raise WordSyntaxError(f"unexpected {ch!r} at position {pos}")
    return letters, pos


def word_images(columns, x: Vector, letters: tuple[int, ...]) -> tuple[Vector, Vector]:
    """gamma x and gamma^-1 x for gamma the word's left-to-right product of
    its letters, one step per letter each; columns are the generators'."""
    return _images(LETTER_STEPS, columns, x, letters[::-1])


def word_row_images(columns, r: Vector, letters: tuple[int, ...]) -> tuple[Vector, Vector]:
    """r^T gamma and r^T gamma^-1, as word_images for rows."""
    return _images(LETTER_ROW_STEPS, columns, r, letters)


def _images(steps, columns, x: Vector, order) -> tuple[Vector, Vector]:
    """x moved by the letters in order, and by their inverses in reverse."""
    gx = gix = x
    for y in order:
        gx = steps[y](columns[y], gx)
    for y in map(inverse_letter, reversed(order)):
        gix = steps[y](columns[y], gix)
    return gx, gix
