"""Reduced words over the alphabet {A, B, A^-1, B^-1}.

Letters are coded 0, 1, 2, 3 in that order, which is also the canonical
ordering used everywhere a "lexicographically least" word is promised.
The text form collapses runs, so the letter tuple (0, 0, 1, 2, 2) prints
as "A^2BA^-2" and parses back to itself.  Parenthesized groups with
exponents, as in "(A^2B)^-1", are also accepted on input so that witness
words quoted from tables paste straight in.  Words that are not reduced
are rejected rather than silently cancelled, and so is any text that
would expand to more than MAX_WORD_LENGTH letters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .hgroup import GeneratorPair
from .linalg import Matrix, identity_matrix, mat_mul

A, B, A_INV, B_INV = 0, 1, 2, 3
LETTER_NAMES = ("A", "B", "A^-1", "B^-1")
BASE_LETTER = ("A", "B", "A", "B")
#: Longest word the parser expands; about 70 times the longest tabulated
#: witness (14 letters).
MAX_WORD_LENGTH = 1000


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

    def inverse(self) -> "Word":
        return Word(tuple(inverse_letter(code) for code in reversed(self.letters)))

    def __str__(self) -> str:
        if not self.letters:
            return ""
        parts = []
        run_letter = self.letters[0]
        run_len = 1
        for code in self.letters[1:]:
            if code == run_letter:
                run_len += 1
            else:
                parts.append(_format_run(run_letter, run_len))
                run_letter, run_len = code, 1
        parts.append(_format_run(run_letter, run_len))
        return "".join(parts)

    @classmethod
    def parse(cls, text: str) -> "Word":
        letters, pos = _parse_sequence(text, 0, top=True)
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
    while pos < len(text) and text[pos].isdigit():
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


def _parse_sequence(text: str, pos: int, top: bool) -> tuple[list[int], int]:
    letters: list[int] = []
    while pos < len(text):
        ch = text[pos]
        if ch == ")":
            if top:
                raise WordSyntaxError(f"unmatched ')' at position {pos}")
            return letters, pos
        if ch == "(":
            inner, pos = _parse_sequence(text, pos + 1, top=False)
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


def evaluate_word(word: Word, gen: GeneratorPair) -> Matrix:
    """Left-to-right product of the generator matrices named by the word."""
    m = identity_matrix(gen.degree)
    for code in word.letters:
        m = mat_mul(m, gen.letter_matrix(code))
    return m
