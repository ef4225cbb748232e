from fractions import Fraction
from types import SimpleNamespace

import pytest

from wordpower import MU, Morphism, enumerate_words, is_power_free, verify
from wordpower.repetition import _free_words


def test_suite_registry_is_complete_and_ordered():
    assert verify.suite_names() == [
        "tmmorph",
        "shur",
        "stronger",
        "fact",
        "pansiot",
        "square",
        "conj",
        "extend",
        "main",
        "finite-overlaps",
        "infinite",
        "uncount",
        "automatic",
        "beta",
    ]


# Every suite is cheap enough for tier-1: a round of all 14 takes about 0.1–0.2 s.
@pytest.mark.parametrize("name", verify.suite_names())
def test_cheap_suites_pass(name):
    result = verify.run_suite(name)
    assert result.passed, result.detail
    assert result.suite == name
    assert result.seconds >= 0
    assert result.detail


def test_unknown_suite_raises():
    with pytest.raises(ValueError, match="unknown suite"):
        verify.run_suite("nosuch")


@pytest.mark.parametrize(
    "images, reason",
    [
        ({"0": "01", "1": "01"}, "not injective"),
        ({"0": "0", "1": "01"}, "not 2-uniform"),
    ],
)
def test_tmmorph_fails_without_its_premises(monkeypatch, images, reason):
    monkeypatch.setattr(verify, "MU", Morphism(images))
    result = verify.run_suite("tmmorph")
    assert not result.passed
    assert reason in result.detail


def test_tmmorph_passes_on_mu():
    assert verify.MU is MU
    result = verify.run_suite("tmmorph")
    assert result.passed
    assert result.detail == "2794155 ordered pairs checked"


def test_shur_names_the_first_word_whose_image_differs(monkeypatch):
    # mu(00) = 0000 is a 4th power while 00 is 7/3-power-free.
    monkeypatch.setattr(verify, "MU", Morphism({"0": "00", "1": "11"}))
    result = verify.run_suite("shur")
    assert (result.passed, result.detail) == (False, "freeness transport fails for '00'")


@pytest.mark.parametrize("images", [{"0": "0", "1": "1"}, {"0": "0", "1": "10"}], ids=["1-uniform", "not uniform"])
def test_shur_looks_each_image_up_at_its_own_length(monkeypatch, images):
    morphism = Morphism(images)
    monkeypatch.setattr(verify, "MU", morphism)
    words = [w for n in range(13) for w in enumerate_words(n)]
    first = next(
        (w for w in words if is_power_free(w, Fraction(7, 3)) != is_power_free(morphism.apply(w), Fraction(7, 3))),
        None,
    )
    expected = (True, "8191 words checked") if first is None else (False, f"freeness transport fails for {first!r}")
    result = verify.run_suite("shur")
    assert (result.passed, result.detail) == expected


def _words(max_length):
    return [w for n in range(max_length + 1) for w in enumerate_words(n)]


def _transport_by_group(apply):
    """tmmorph's verdict decided one group at a time with a dict of
    preimages, given that ``apply`` is 2-uniform and injective."""
    words = _words(10)
    preimage = {apply(w): w for w in words}
    pairs = 0
    for y in words:
        my = apply(y)
        for k in range(len(y) + 1):
            for side, x, image in (("prefix", y[:k], my[: 2 * k]), ("suffix", y[len(y) - k :], my[len(my) - 2 * k :])):
                got = preimage.get(image)
                if got != x:
                    return False, f"{side} transport fails for x={x if got is None else got!r} y={y!r}"
            pairs += 2**k
    return True, f"{pairs} ordered pairs checked"


def _freeness_by_word(apply):
    """shur's verdict with one ``apply`` call a word."""
    words = _words(12)
    images = [apply(w) for w in words]
    free = set(_free_words("", Fraction(7, 3), False, max(map(len, words + images))))
    first = next((w for w, image in zip(words, images) if (w in free) != (image in free)), None)
    return (True, "8191 words checked") if first is None else (False, f"freeness transport fails for {first!r}")


# The last has letters of two UTF-8 bytes: a comparison of image bytes
# would see 4 bytes where it expects 2 letters.
RELABELLED_MU = [{"0": "10", "1": "01"}, {"0": "ab", "1": "ba"}, {"0": "αβ", "1": "βα"}]


@pytest.mark.parametrize("images", RELABELLED_MU, ids=["swapped", "relabelled", "non-ascii"])
def test_tmmorph_passes_on_relabelled_mu(monkeypatch, images):
    monkeypatch.setattr(verify, "MU", Morphism(images))
    result = verify.run_suite("tmmorph")
    assert (result.passed, result.detail) == (True, "2794155 ordered pairs checked")


# 2-uniform and injective, so both premises hold, but not morphisms.  The
# first group that fails has a prefix and a suffix that fail (reversed),
# only a suffix that fails (running xor), or an image factor that is no
# image at all (first letter doubled).  The last two are mu but on the
# 10-letter words, where the image is reversed (a prefix fails) or the
# last letter complemented first (only a suffix fails).
NOT_MORPHISMS = {
    "reversed": lambda w: MU.apply(w[::-1]),
    "running xor": lambda w: MU.apply("".join(str(w[: i + 1].count("1") % 2) for i in range(len(w)))),
    "first letter doubled": lambda w: w[:1] * 2 + MU.apply(w[1:]),
    "image reversed at 10": lambda w: MU.apply(w)[:: -1 if len(w) == 10 else 1],
    "last letter complemented at 10": lambda w: MU.apply(w[:-1] + "10"[int(w[-1])] if len(w) == 10 else w),
}


@pytest.mark.parametrize("apply", NOT_MORPHISMS.values(), ids=NOT_MORPHISMS)
def test_tmmorph_names_the_group_the_loop_names_first(monkeypatch, apply):
    monkeypatch.setattr(verify, "MU", SimpleNamespace(apply=apply))
    result = verify.run_suite("tmmorph")
    expected = _transport_by_group(apply)
    assert not expected[0]
    assert (result.passed, result.detail) == expected


@pytest.mark.parametrize("name, side", [("image reversed at 10", "prefix"), ("last letter complemented at 10", "suffix")])
def test_tmmorph_decides_the_longest_words(monkeypatch, name, side):
    # The pair count alone cannot show that the last length is decided.
    apply = NOT_MORPHISMS[name]
    monkeypatch.setattr(verify, "MU", SimpleNamespace(apply=apply))
    expected = (False, f"{side} transport fails for x='1' y='0000000000'")
    assert _transport_by_group(apply) == expected
    result = verify.run_suite("tmmorph")
    assert (result.passed, result.detail) == expected


# mu swapped and relabelled, and a morphism whose verdict names another
# word when its two letter images trade places.
@pytest.mark.parametrize(
    "images", [*RELABELLED_MU, {"0": "0", "1": "001"}], ids=["swapped", "relabelled", "non-ascii", "asymmetric"]
)
def test_shur_matches_per_word_apply(monkeypatch, images):
    morphism = Morphism(images)
    monkeypatch.setattr(verify, "MU", morphism)
    result = verify.run_suite("shur")
    assert (result.passed, result.detail) == _freeness_by_word(morphism.apply)


def test_shur_applies_mu_to_its_two_letters_only(monkeypatch):
    calls = []
    apply = Morphism.apply

    def spy(self, word):
        calls.append(word)
        return apply(self, word)

    monkeypatch.setattr(Morphism, "apply", spy)
    result = verify.run_suite("shur")
    assert (result.passed, result.detail) == (True, "8191 words checked")
    assert sorted(calls) == ["0", "1"]
