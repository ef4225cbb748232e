from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from wordpower import (
    CapExceeded,
    F,
    Factorization,
    G,
    H,
    MU,
    Morphism,
    PowerOccurrence,
    descend_power,
    factorize,
    is_power_free,
    list_repetitions,
    mu_decode,
)

SEVEN_THIRDS = Fraction(7, 3)
binary_words = st.text(alphabet="01", max_size=24)


def test_apply_examples():
    assert MU.apply("0") == "01"
    assert MU.apply("") == ""
    assert MU.iterate("0", 3) == "01101001"
    assert H.apply("0") == "0134"


def test_apply_rejects_foreign_letters():
    with pytest.raises(ValueError):
        MU.apply("012")
    with pytest.raises(ValueError):
        MU.iterate("2", 1)
    # the message names the smallest foreign letter, wherever it occurs
    with pytest.raises(ValueError, match="letter 'a' outside morphism domain"):
        MU.apply("01b0a1")
    with pytest.raises(ValueError, match="letter '5' outside morphism domain"):
        H.image_length("01234x5")


@given(st.text(alphabet="01234", max_size=40))
def test_image_length_matches_image(word):
    assert H.image_length(word) == len(H.apply(word))
    assert G.image_length(word) == len(G.apply(word))


def test_iterate_examples():
    assert MU.iterate("0", 4) == "0110100110010110"
    assert MU.iterate("00", 2) == "01100110"
    assert H.iterate("0", 1) == "0134"
    assert MU.iterate("01", 0) == "01"


def test_iterate_cap_is_resource_error():
    with pytest.raises(CapExceeded):
        MU.iterate("0", 30, cap=1 << 20)
    # n=0 never applies the table, so no cap check is needed
    assert MU.iterate("0", 0, cap=1) == "0"


def test_fixed_point_prefix_examples():
    assert MU.fixed_point_prefix("0", 16) == "0110100110010110"
    assert MU.fixed_point_prefix("0", 1) == "0"
    assert MU.fixed_point_prefix("0", 0) == ""
    assert H.fixed_point_prefix("0", 8) == "01342134"


def test_fixed_point_prefix_consistency():
    long = MU.fixed_point_prefix("0", 500)
    for n in (0, 1, 17, 499):
        assert MU.fixed_point_prefix("0", n) == long[:n]


def test_fixed_point_requires_prolongable_seed():
    assert MU.is_prolongable("0") and MU.is_prolongable("1")
    assert not G.is_prolongable("0")  # image is a single letter
    with pytest.raises(ValueError):
        G.fixed_point_prefix("0", 4)
    with pytest.raises(ValueError):
        MU.fixed_point_prefix("2", 4)
    with pytest.raises(CapExceeded):
        MU.fixed_point_prefix("0", 100, cap=50)


def test_mu_decode_examples():
    assert mu_decode("0110") == "01"
    assert mu_decode("00110011") is None
    assert mu_decode("01100110") == "0101"
    assert mu_decode(mu_decode("01100110")) == "00"
    assert mu_decode("") == ""
    assert mu_decode("011") is None
    # Only binary letters decode, however the blocks pair up.
    for word in ("2222", "0220", "2020", "0120", "01a0"):
        assert mu_decode(word) is None, word


@given(binary_words)
def test_mu_decode_roundtrip(word):
    assert mu_decode(MU.apply(word)) == word


@given(binary_words)
def test_mu_apply_after_decode(word):
    decoded = mu_decode(word)
    if decoded is not None:
        assert MU.apply(decoded) == word


def test_prefix_suffix_transport_small_exhaustive():
    words = list(oracles.all_binary_words(7))
    images = {w: MU.apply(w) for w in words}
    for x in words:
        for y in words:
            assert y.startswith(x) == images[y].startswith(images[x])
            assert y.endswith(x) == images[y].endswith(images[x])


def test_freeness_transport_small_exhaustive():
    for w in oracles.all_binary_words(10):
        assert is_power_free(w, SEVEN_THIRDS) == is_power_free(MU.apply(w), SEVEN_THIRDS)


def test_coding_identity_on_letters_and_words():
    for letter in "01234":
        assert G.apply(F.apply(letter)) == MU.iterate(G.apply(letter), 2)
    word = "0134210342"[:8]
    assert G.apply(F.apply(word)) == MU.iterate(G.apply(word), 2)


@settings(max_examples=200)
@given(binary_words)
def test_forward_power_transport(word):
    image = MU.apply(word)
    for occ in list_repetitions(word, 1, strict=True):
        doubled = PowerOccurrence(2 * occ.start, 2 * occ.period, 2 * occ.length)
        assert doubled.is_valid_in(image)
        assert doubled.exponent == occ.exponent


def test_descend_power_example():
    word = "1000"
    assert MU.apply(word) == "10010101"
    got = descend_power(word, PowerOccurrence(2, 2, 6))
    assert got == PowerOccurrence(1, 1, 3)
    assert got.factor(word) == "000"


def test_descend_power_preconditions():
    with pytest.raises(ValueError, match="exponent"):
        descend_power("00", PowerOccurrence(0, 2, 4))  # exponent exactly 2
    with pytest.raises(ValueError, match="even"):
        descend_power("000", PowerOccurrence(0, 1, 3))  # odd period
    with pytest.raises(ValueError, match="valid"):
        descend_power("00", PowerOccurrence(0, 2, 6))  # does not fit in the image


@settings(max_examples=200)
@given(binary_words)
def test_descend_power_property(word):
    image = MU.apply(word)
    for occ in list_repetitions(image, 2, strict=True):
        if occ.period % 2:
            continue
        got = descend_power(word, occ)
        assert got.is_valid_in(word)
        assert got.period == occ.period // 2
        assert got.length >= -(-occ.length // 2)


def test_factorize_examples():
    result = factorize("00110011", SEVEN_THIRDS)
    assert result[0] == Factorization("0", "010", "1")
    assert result[0].reconstruct() == "00110011"
    assert Factorization("", "0", "") in factorize("01", SEVEN_THIRDS)
    for f in factorize("0110100110", SEVEN_THIRDS):
        assert f.reconstruct() == "0110100110"
        assert is_power_free(f.core, SEVEN_THIRDS)


def test_factorize_sorted_by_edge_lengths():
    for word in ["00110011", "010011", "0110"]:
        result = factorize(word)
        keys = [(len(f.head), len(f.tail)) for f in result]
        assert keys == sorted(keys)


def test_factorize_small_exhaustive():
    for word in oracles.all_binary_words(9):
        if is_power_free(word, SEVEN_THIRDS):
            result = factorize(word, SEVEN_THIRDS)
            assert result, word
            assert all(f.reconstruct() == word for f in result)


def test_factorize_preconditions():
    with pytest.raises(ValueError):
        factorize("000", SEVEN_THIRDS)  # contains a cube
    with pytest.raises(ValueError):
        factorize("01", Fraction(2))  # threshold must exceed 2
    with pytest.raises(ValueError):
        factorize("01", Fraction(5, 2))  # threshold above 7/3


def test_morphism_equality_and_repr():
    assert "0:01" in repr(MU)
    with pytest.raises(ValueError):
        Morphism({"ab": "0"})
