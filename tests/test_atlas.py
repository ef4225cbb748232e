import tracemalloc
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from wordpower import (
    AtlasMembership,
    MU,
    atlas,
    atlas_members,
    atlas_membership,
    check_extension_lemma,
    is_extendable_square,
    max_overlap_free_extension,
    mu_decode,
    squares_in,
    word_t,
)
from wordpower.repetition import _free_words
from wordpower.words import DEFAULT_CAP

binary_words = st.text(alphabet="01", max_size=30)


def test_membership_examples():
    assert atlas_membership("00") == AtlasMembership("A", 0, "00")
    got = atlas_membership("01100110")
    assert (got.family, got.level, got.base) == ("A", 2, "00")
    assert not atlas_membership("011011").in_atlas
    assert atlas_membership("001001").family == "B"
    assert not atlas_membership("00110011").in_atlas
    assert not atlas_membership("").in_atlas
    assert not atlas_membership("01").in_atlas


def test_membership_reconstructs_word():
    for word in ["00", "0101", "01100110", "001001", MU.iterate("110110", 3)]:
        got = atlas_membership(word)
        assert got.in_atlas
        assert MU.iterate(got.base, got.level) == word


def test_membership_agrees_with_forward_enumeration():
    # The forward definition: the MU-images of the bases, each with its
    # family, up to 512 letters.
    forward = {}
    for base, family in oracles.ATLAS_BASES.items():
        word = base
        while len(word) <= 512:
            forward[word] = family
            word = MU.apply(word)
    for families in ("A", "B", "AB"):
        expected = sorted((w for w in forward if forward[w] in families), key=lambda w: (len(w), w))
        assert atlas_members(512, families=families) == expected, families
    for member, family in forward.items():
        assert atlas_membership(member).family == family, member
    # and short non-members are rejected
    members = set(atlas_members(16))
    for word in oracles.all_binary_words(8):
        square = word + word
        assert atlas_membership(square).in_atlas == (square in members)


def reference_membership(word):
    family, level, base = oracles.atlas_membership(word) or (None, None, None)
    return AtlasMembership(family, level, base)


def test_membership_matches_decoding_reference_on_short_words():
    for word in oracles.all_binary_words(14):
        # the reference decodes exactly as the package's mu_decode does
        assert oracles.mu_decode(word) == mu_decode(word), word
        assert atlas_membership(word) == reference_membership(word), word


@pytest.mark.parametrize("base", sorted(oracles.ATLAS_BASES))
def test_membership_matches_decoding_reference_on_mutated_images(base):
    for level in range(11):
        image = MU.iterate(base, level)
        assert atlas_membership(image) == AtlasMembership(oracles.ATLAS_BASES[base], level, base)
        half = len(image) // 2
        for i in range(len(image)):
            flipped = "10"[int(image[i])]
            mutant = image[:i] + flipped + image[i + 1 :]
            assert atlas_membership(mutant) == reference_membership(mutant), (base, level, i)
            if i < half:
                # the same letter flipped in both halves keeps a square
                twin = mutant[: i + half] + flipped + mutant[i + half + 1 :]
                assert atlas_membership(twin) == reference_membership(twin), (base, level, i)


def test_squares_in_examples():
    assert squares_in("01") == []
    assert squares_in("01101001") == [(1, "11"), (2, "1010"), (5, "00")]
    # fixture frozen from the brute-force oracle before the build
    assert squares_in("011011") == [(0, "011011"), (1, "11"), (4, "11")]


@settings(max_examples=200)
@given(binary_words)
def test_squares_in_matches_oracle(word):
    assert squares_in(word) == oracles.squares(word)


@pytest.mark.parametrize("block", [1, 3, 40])
def test_squares_in_blocks_of_positions_match_oracle(monkeypatch, block):
    monkeypatch.setattr(atlas, "_SQUARES_BLOCK", block)
    words = ["", "0", "01", "0" * 40, "01" * 20, "001" * 13, "00110011", word_t(64), "001001" + word_t(58)]
    for word in words:
        assert squares_in(word) == oracles.squares(word), word
        # Blocks hold consecutive positions, with fewer than `block`
        # squares before the last position of each.
        last = -1
        for positions, _ in atlas._square_blocks(word):
            if len(positions):
                assert positions[0] > last and (positions < positions[-1]).sum() < block
                last = positions[-1]


def test_is_extendable_square_examples():
    assert is_extendable_square("001001")
    assert not is_extendable_square("00110011")
    assert not is_extendable_square("011011")
    assert is_extendable_square("00")


def test_is_extendable_square_preconditions():
    with pytest.raises(ValueError, match="square"):
        is_extendable_square("01")  # not a square
    with pytest.raises(ValueError, match="overlap"):
        is_extendable_square("0000")  # a square, but not overlap-free
    with pytest.raises(ValueError):
        is_extendable_square("")


def test_max_overlap_free_extension_examples():
    assert max_overlap_free_extension("0", 32) == 32
    assert max_overlap_free_extension("011011", 64) == 6
    assert max_overlap_free_extension("100100", 64) == 6
    assert max_overlap_free_extension("00110011", 64) == 8
    assert max_overlap_free_extension("001001", 256) == 256


def test_max_overlap_free_extension_preconditions():
    with pytest.raises(ValueError):
        max_overlap_free_extension("000", 64)  # not overlap-free
    with pytest.raises(ValueError):
        max_overlap_free_extension("0110", 2)  # cap below the word


def naive_free_words(word, max_length):
    """Depth first, 1 pushed before 0, keeping w + a when the letter loop
    of the oracle sees no overlap end at its last letter."""
    found, stack = [], [word]
    while stack:
        found.append(current := stack.pop())
        if len(current) < max_length:
            stack += [w for w in (current + "1", current + "0") if not oracles.appending_creates_overlap(w)]
    return found


def test_ends_in_power_matches_letter_loop():
    # The grower's packed end test against the oracle's letter loop: from
    # every overlap-free square of up to 16 letters (the squares main
    # searches from), and from the empty word.
    squares = [
        w
        for w in oracles.all_binary_words(16)
        if w and w[: len(w) // 2] * 2 == w and oracles.is_power_free(w, 2, plus=True)
    ]
    assert len(squares) == 34
    # One word more than expected is enough to fail: a grower that keeps
    # too many words would otherwise run for as long as it finds them.
    for start, max_length in [(square, 40) for square in squares] + [("", 14)]:
        expected = naive_free_words(start, max_length)
        assert list(islice(_free_words(start, 2, True, max_length), len(expected) + 1)) == expected, start


def test_extension_table_follows_the_depth_reached_not_the_cap():
    tracemalloc.start()
    try:
        assert max_overlap_free_extension("011011", DEFAULT_CAP) == 6
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_extension_results_are_cap_independent_when_finite():
    assert max_overlap_free_extension("011011", 64) == max_overlap_free_extension(
        "011011", 200
    )


def test_check_extension_lemma_small_depths():
    for k in range(3):
        assert check_extension_lemma(k)
    with pytest.raises(ValueError):
        check_extension_lemma(-1)


def test_squares_of_thue_morse_prefix_sit_in_family_a():
    for _, square in squares_in(word_t(512)):
        assert atlas_membership(square).family == "A"


@settings(max_examples=100)
@given(binary_words)
def test_every_reported_square_is_a_square(word):
    for position, square in squares_in(word):
        half = len(square) // 2
        assert square == word[position : position + 2 * half]
        assert square[:half] == square[half:]
