from fractions import Fraction

import pytest

from wordpower import MU, Morphism, enumerate_words, is_power_free, verify


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


# Every suite is cheap enough for tier-1: a round of all 14 takes about 0.5 s.
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
