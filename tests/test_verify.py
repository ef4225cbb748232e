import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from wordpower import MU, Morphism, enumerate_words, is_power_free, list_repetitions, verify, word_s
from wordpower.atlas import atlas_membership, max_overlap_free_extension
from wordpower.repetition import _free_words
from wordpower.words import complement


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


# Every suite is cheap enough for tier-1: a round of all 14 takes about 0.07–0.1 s.
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
    """shur's verdict with one ``apply`` call a word, the image letters
    renamed 0 and 1 in order of first appearance in mu(0) mu(1)."""
    words = _words(12)
    letters = "".join(dict.fromkeys(apply("0") + apply("1")))
    rename = str.maketrans(letters, "01"[: len(letters)])
    images = [apply(w).translate(rename) for w in words]
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
# image at all (first letter doubled).  The last three are mu but on the
# 10-letter words, where the image is reversed (a prefix fails) or the
# last letter complemented first (only a suffix fails), or on the
# 5-letter words, where the middle letter is complemented first: neither
# end of the image changes, only its middle.
NOT_MORPHISMS = {
    "reversed": lambda w: MU.apply(w[::-1]),
    "running xor": lambda w: MU.apply("".join(str(w[: i + 1].count("1") % 2) for i in range(len(w)))),
    "first letter doubled": lambda w: w[:1] * 2 + MU.apply(w[1:]),
    "image reversed at 10": lambda w: MU.apply(w)[:: -1 if len(w) == 10 else 1],
    "last letter complemented at 10": lambda w: MU.apply(w[:-1] + "10"[int(w[-1])] if len(w) == 10 else w),
    "middle block complemented at 5": lambda w: MU.apply(w[:2] + complement(w[2]) + w[3:] if len(w) == 5 else w),
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


def _corruption(rng):
    """A random change to mu's images of the n-letter words, n random: one
    letter flipped in about half of them, two blocks swapped, the images
    reversed, or an inner block complemented.  Returns (n, change)."""
    kind = rng.choice(["flip", "swap", "reverse", "middle"])
    n = rng.randint({"swap": 2, "middle": 3}.get(kind, 1), 10)
    if kind == "flip":
        at, chosen = rng.randrange(2 * n), {w for w in enumerate_words(n) if rng.random() < 0.5}
        return n, lambda w, im: im[:at] + complement(im[at]) + im[at + 1 :] if w in chosen else im
    if kind == "swap":
        i, j = sorted(2 * b for b in rng.sample(range(n), 2))
        return n, lambda w, im: im[:i] + im[j : j + 2] + im[i + 2 : j] + im[i : i + 2] + im[j + 2 :]
    if kind == "reverse":
        return n, lambda w, im: im[::-1]
    b = 2 * rng.randrange(1, n - 1)
    return n, lambda w, im: im[:b] + complement(im[b : b + 2]) + im[b + 2 :]


def _corrupted_mu(rng):
    """mu with one or two random corruptions, which may share a length."""
    changes = [_corruption(rng) for _ in range(rng.randint(1, 2))]

    def apply(w):
        image = MU.apply(w)
        for n, change in changes:
            if len(w) == n:
                image = change(w, image)
        return image

    return apply


def test_tmmorph_matches_the_loop_by_group_on_corrupted_maps(monkeypatch):
    rng = random.Random(0x7A5)
    words = _words(10)
    verdicts = []
    for _ in range(50):
        apply = _corrupted_mu(rng)
        monkeypatch.setattr(verify, "MU", SimpleNamespace(apply=apply))
        images = [apply(w) for w in words]
        if len(set(images)) < len(images):  # every change keeps 2-uniformity
            assert not verify.run_suite("tmmorph").passed
            continue
        expected = _transport_by_group(apply)
        result = verify.run_suite("tmmorph")
        assert (result.passed, result.detail) == expected
        verdicts.append(expected[1].split()[0])
    # Most maps keep both premises, and their failures name both sides.
    assert len(verdicts) >= 40 and {"prefix", "suffix"} <= set(verdicts)


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


@pytest.mark.parametrize("images", RELABELLED_MU, ids=["swapped", "relabelled", "non-ascii"])
def test_shur_passes_on_relabelled_mu(monkeypatch, images):
    monkeypatch.setattr(verify, "MU", Morphism(images))
    result = verify.run_suite("shur")
    assert (result.passed, result.detail) == (True, "8191 words checked")


def test_shur_names_an_image_alphabet_of_three_letters(monkeypatch):
    monkeypatch.setattr(verify, "MU", Morphism({"0": "ab", "1": "ca"}))
    result = verify.run_suite("shur")
    assert (result.passed, result.detail) == (False, "mu's images use 3 letters")


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


def _stronger_images(monkeypatch):
    """The words ``stronger`` hands to ``_repetitions_by_word``."""
    seen = []
    by_word = verify._repetitions_by_word

    def spy(words, threshold, strict):
        seen.append(words)
        return by_word(words, threshold, strict)

    monkeypatch.setattr(verify, "_repetitions_by_word", spy)
    assert verify.run_suite("stronger").passed
    (images,) = seen
    return images


def _random_words():
    rng = random.Random(0x5E9A)
    return ["".join(rng.choice("01") for _ in range(rng.randrange(80))) for _ in range(500)]


WORD_LISTS = {
    "stronger images": _stronger_images,
    "random": lambda monkeypatch: _random_words(),
    "more words than separators": lambda monkeypatch: ["0110"] * 300,
    "periodic": lambda monkeypatch: [w * k for k in range(200) for w in ("0", "01")],
}
THRESHOLDS = [(2, False), (2, True), (Fraction(7, 3), False), (Fraction(5, 2), False)]


@pytest.mark.parametrize("threshold, strict", THRESHOLDS, ids=["2", "2+", "7/3", "5/2"])
@pytest.mark.parametrize("make", WORD_LISTS.values(), ids=WORD_LISTS)
def test_repetitions_by_word_matches_per_word_listing(monkeypatch, make, threshold, strict):
    words = make(monkeypatch)
    expected = [list_repetitions(w, threshold, strict) for w in words]
    assert verify._repetitions_by_word(words, threshold, strict) == expected


def test_repetitions_by_word_refuses_thresholds_below_2():
    # At 3/2 runs cross the separator x of 0110 x 0110: 0x0 at period 2
    # and 0110x0110 at period 5.
    with pytest.raises(ValueError, match="below 2"):
        verify._repetitions_by_word(["0110"] * 300, Fraction(3, 2), False)


@pytest.mark.parametrize("suite, calls", [("stronger", 3), ("uncount", 1)])
def test_suites_scan_their_words_in_few_kernel_calls(monkeypatch, suite, calls):
    seen = []

    def spy(word, threshold, strict=False):
        seen.append(word)
        return list_repetitions(word, threshold, strict)

    monkeypatch.setattr(verify, "list_repetitions", spy)
    result = verify.run_suite(suite)
    assert result.passed, result.detail
    assert len(seen) == calls


def _squares():
    return [square for of_half in verify._overlap_free_squares(8)[1:] for square in of_half]


def _spy_on_search(monkeypatch):
    searched = []

    def spy(word, cap):
        searched.append(word)
        return max_overlap_free_extension(word, cap)

    monkeypatch.setattr(verify, "max_overlap_free_extension", spy)
    return searched


def test_main_searches_only_outside_the_atlas(monkeypatch):
    searched = _spy_on_search(monkeypatch)
    result = verify.run_suite("main")
    assert (result.passed, result.detail) == (True, "34 overlap-free squares classified")
    outside = [square for square in _squares() if not atlas_membership(square).in_atlas]
    assert len(outside) == 18
    assert searched == outside


def test_main_witnesses_agree_with_the_search():
    bases = (word_s(512), MU.apply(word_s(256)))
    witnesses = [w for base in bases for w in (base, complement(base))]
    assert all(is_power_free(w, 2, plus=True) for w in witnesses)
    for square in _squares():
        found = any(0 <= w.find(square) <= len(w) - 256 for w in witnesses)
        assert found == (max_overlap_free_extension(square, 256) == 256), square


def test_main_fails_on_a_square_the_atlas_wrongly_admits(monkeypatch):
    def membership(square):
        if square == "00110011":
            return SimpleNamespace(in_atlas=True, family="A")
        return atlas_membership(square)

    monkeypatch.setattr(verify, "atlas_membership", membership)
    result = verify.run_suite("main")
    assert (result.passed, result.detail) == (False, "dichotomy fails for '00110011'")


# 0^n and mu(0^n) = (01)^n both hold overlaps, as do their complements;
# s and mu(s) cut to 128 letters hold no square 256 letters before an end.
WITNESS_STAND_INS = {"not overlap-free": lambda n: "0" * n, "too short": lambda n: word_s(n // 4)}


@pytest.mark.parametrize("stand_in", WITNESS_STAND_INS.values(), ids=WITNESS_STAND_INS)
def test_main_searches_when_the_witnesses_cannot_decide(monkeypatch, stand_in):
    monkeypatch.setattr(verify, "word_s", stand_in)
    searched = _spy_on_search(monkeypatch)
    result = verify.run_suite("main")
    assert (result.passed, result.detail) == (True, "34 overlap-free squares classified")
    assert searched == _squares()
