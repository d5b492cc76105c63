"""Word grammar: parsing, formatting, reduction, evaluation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hgsp.linalg import identity_matrix, mat_mul
from hgsp.pairs import enumerate_qualified_pairs
from hgsp.hgroup import build_generators
from hgsp.words import (
    A,
    A_INV,
    B,
    B_INV,
    MAX_WORD_LENGTH,
    NotReducedError,
    Word,
    WordSyntaxError,
    evaluate_word,
    inverse_letter,
)


def test_letter_codes_and_inverses():
    assert (A, B, A_INV, B_INV) == (0, 1, 2, 3)
    assert inverse_letter(A) == A_INV
    assert inverse_letter(A_INV) == A
    assert inverse_letter(B) == B_INV
    assert inverse_letter(B_INV) == B


def test_parse_simple():
    assert tuple(Word.parse("B^3")) == (B, B, B)
    assert tuple(Word.parse("AB")) == (A, B)
    assert tuple(Word.parse("A^-2")) == (A_INV, A_INV)


def test_parse_row_17_witness():
    word = Word.parse("A^2BA^-1B^4A")
    assert tuple(word) == (A, A, B, A_INV, B, B, B, B, A)
    assert len(word) == 9
    assert str(word) == "A^2BA^-1B^4A"


def test_parse_parenthesized_inverse():
    # (AB)^-1 = B^-1 A^-1
    word = Word.parse("(AB)^-1")
    assert tuple(word) == (B_INV, A_INV)
    # row 40 witness: A^4 B^4 A (A^2 B)^-1 = A^4 B^4 A B^-1 A^-2
    word40 = Word.parse("A^4B^4A(A^2B)^-1")
    assert tuple(word40) == (A, A, A, A, B, B, B, B, A, B_INV, A_INV, A_INV)
    assert len(word40) == 12
    assert str(word40) == "A^4B^4AB^-1A^-2"
    # row 27 witness
    word27 = Word.parse("A^4B^4A(AB)^-1")
    assert len(word27) == 11


def test_parse_nested_groups():
    word = Word.parse("((AB)^2)^-1")
    assert tuple(word) == (B_INV, A_INV, B_INV, A_INV)


def test_parse_rejects_syntax_errors():
    for bad in ("", "C", "A^", "A^0", "A^-", "(AB", "AB)", "()", "A^1.5"):
        with pytest.raises(WordSyntaxError):
            Word.parse(bad)
    # longer than MAX_WORD_LENGTH, refused before the letters are expanded
    too_long = (
        "A^1001", "A^-1001", "A" * 1001, "A^999B^2", "(AB)^501", "B(AB)^500",
        "((A^10B)^10A)^10", "A^3000000", "A^10000000000", "(AB)^1000000000",
        "A^" + "9" * 5000,
    )
    for bad in too_long:
        with pytest.raises(WordSyntaxError, match="longer than 1000 letters"):
            Word.parse(bad)


def test_parse_accepts_words_up_to_the_length_limit():
    assert MAX_WORD_LENGTH == 1000
    assert len(Word.parse("A^1000")) == 1000
    assert len(Word.parse("(AB)^500")) == 1000
    assert len(Word.parse("A^999B")) == 1000
    assert Word.parse("A^0002") == Word.parse("A^2")


def test_parse_rejects_unreduced():
    with pytest.raises(NotReducedError):
        Word.parse("AA^-1")
    with pytest.raises(NotReducedError):
        Word.parse("B^-1B")
    with pytest.raises(NotReducedError):
        Word.parse("A(A^-1B)")


def test_constructor_validates():
    with pytest.raises(ValueError):
        Word((0, 4))
    with pytest.raises(NotReducedError):
        Word((0, 2))
    assert len(Word(())) == 0
    assert str(Word(())) == ""


def test_inverse():
    word = Word.parse("A^2B")
    assert tuple(word.inverse()) == (B_INV, A_INV, A_INV)
    assert str(word.inverse()) == "B^-1A^-2"
    assert word.inverse().inverse() == word


def _free_reduce(codes) -> Word:
    out: list[int] = []
    for c in codes:
        if out and c == inverse_letter(out[-1]):
            out.pop()
        else:
            out.append(c)
    return Word(out)


reduced_words = st.builds(
    _free_reduce, st.lists(st.sampled_from([0, 1, 2, 3]), max_size=12)
)


@given(reduced_words)
def test_format_parse_roundtrip(word):
    assert Word.parse(str(word)) == word if len(word) else True
    if len(word):
        assert tuple(Word.parse(str(word))) == tuple(word)


@given(reduced_words)
def test_inverse_is_involution(word):
    assert word.inverse().inverse() == word
    assert len(word.inverse()) == len(word)


def test_evaluate_word_products():
    pair = enumerate_qualified_pairs(6, mum_only=True)[0]
    gen = build_generators(pair)
    assert evaluate_word(Word(()), gen) == identity_matrix(6)
    b3 = evaluate_word(Word.parse("B^3"), gen)
    assert b3 == mat_mul(mat_mul(gen.b, gen.b), gen.b)
    ab = evaluate_word(Word.parse("AB"), gen)
    assert ab == mat_mul(gen.a, gen.b)


@given(reduced_words)
def test_evaluate_word_respects_inverse(word):
    pair = enumerate_qualified_pairs(4, mum_only=True)[0]
    gen = build_generators(pair)
    m = evaluate_word(word, gen)
    m_inv = evaluate_word(word.inverse(), gen)
    assert mat_mul(m, m_inv) == identity_matrix(4)
