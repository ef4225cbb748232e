import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordpower import (
    WordFormatError,
    complement,
    conjugates,
    enumerate_words,
    is_power_free,
    parse_word,
)

binary_words = st.text(alphabet="01", max_size=32)


def test_complement_examples():
    assert complement("") == ""
    assert complement("01") == "10"
    assert complement("0110100110010110") == "1001011001101001"


@given(binary_words)
def test_complement_is_involution(word):
    assert complement(complement(word)) == word
    assert len(complement(word)) == len(word)


def test_conjugates_examples():
    assert conjugates("00") == {"00"}
    assert conjugates("010010") == {"010010", "100100", "001001"}
    assert conjugates("011011") == {"011011", "110110", "101101"}
    assert conjugates("") == {""}


@given(binary_words.filter(bool))
def test_conjugates_closed_under_rotation(word):
    rotations = conjugates(word)
    assert word in rotations
    assert len(rotations) <= len(word)
    for w in rotations:
        assert w[1:] + w[:1] in rotations


def test_conjugate_count_is_primitive_period():
    # xx ... x of a primitive word has as many rotations as the period
    assert len(conjugates("010010")) == 3
    assert len(conjugates("0101")) == 2
    assert len(conjugates("0110")) == 4


@given(binary_words.filter(bool))
def test_conjugate_count_law(word):
    from wordpower import smallest_period

    period = smallest_period(word)
    expected = period if len(word) % period == 0 else len(word)
    assert len(conjugates(word)) == expected


def test_enumerate_words_examples():
    assert list(enumerate_words(1)) == ["0", "1"]
    is_square = lambda w: w[: len(w) // 2] == w[len(w) // 2 :]
    assert [w for w in enumerate_words(2) if is_square(w)] == ["00", "11"]
    overlap_free_square = lambda w: is_square(w) and is_power_free(w, 2, plus=True)
    assert [w for w in enumerate_words(4) if overlap_free_square(w)] == ["0101", "1010"]


@pytest.mark.parametrize("n", [0, 1, 5, 10, 16])
def test_enumerate_words_counts(n):
    assert sum(1 for _ in enumerate_words(n)) == 2**n


def test_enumerate_words_is_lexicographic():
    listed = list(enumerate_words(4))
    assert listed == sorted(listed)
    assert len(set(listed)) == len(listed)


def test_enumerate_words_rejects_negative_length():
    with pytest.raises(ValueError):
        list(enumerate_words(-1))


def test_parse_word_roundtrip():
    assert parse_word("00") == "00"
    assert len(parse_word("01101001")) == 8
    assert parse_word("0110") == "0110"


def test_parse_word_reports_position():
    with pytest.raises(WordFormatError) as info:
        parse_word("002")
    assert info.value.position == 2
    assert "index 2" in str(info.value)


@given(binary_words)
def test_parse_format_roundtrip(word):
    assert parse_word(word) == word


def first_invalid_index(text):
    """The per-character definition: the first index whose letter is not 0 or 1."""
    return next((i for i, ch in enumerate(text) if ch not in "01"), None)


@settings(max_examples=300)
@given(
    st.text(alphabet="01234", max_size=40),
    st.lists(st.tuples(st.integers(0, 40), st.characters()), max_size=4),
)
def test_parse_word_reports_first_invalid_index(text, injections):
    for position, character in injections:
        text = text[:position] + character + text[position:]
    expected = first_invalid_index(text)
    if expected is None:
        assert parse_word(text) == text
        return
    with pytest.raises(WordFormatError) as info:
        parse_word(text)
    assert (info.value.position, info.value.character) == (expected, text[expected])
    assert str(info.value).endswith("; expected one of '01'")
