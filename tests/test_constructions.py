import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from wordpower import (
    MU,
    BetaParams,
    BetaSearchError,
    BitSpec,
    CapExceeded,
    UnknownGeneratorError,
    beta_params,
    beta_word,
    complement,
    g_b,
    generator,
    is_power_free,
    list_repetitions,
    parse_bit_spec,
    word_a,
    word_a_automatic,
    word_a_finite,
    word_s,
    word_t,
    word_wb,
)

SEVEN_THIRDS = Fraction(7, 3)


def test_word_t_examples():
    assert word_t(0) == ""
    assert word_t(8) == "01101001"
    assert word_t(16) == "0110100110010110"


@given(st.integers(0, 300), st.integers(0, 300))
def test_word_t_prefix_consistency(n, m):
    lo, hi = sorted((n, m))
    assert word_t(hi)[:lo] == word_t(lo)


def test_word_s_examples():
    assert word_s(6) == "001001"
    assert word_s(7) == "0010011"
    assert word_s(3) == "001"
    assert word_s(20) == "001001" + complement(word_t(14))


def test_word_s_is_overlap_free():
    assert is_power_free(word_s(512), 2, plus=True)


def test_word_a_finite_examples():
    assert word_a_finite(0) == "00"
    assert word_a_finite(1) == "001100110"
    assert word_a_finite(2) == "0011001101001100101100110100110010110"


def test_word_a_finite_length_law():
    for level in range(8):
        assert len(word_a_finite(level)) == (4 ** (level + 1) + 3 * 4**level - 1) // 3


def test_word_a_finite_prefix_chain():
    for level in range(6):
        shorter, longer = word_a_finite(level), word_a_finite(level + 1)
        assert longer.startswith(shorter)


def test_word_a_finite_cap():
    with pytest.raises(CapExceeded):
        word_a_finite(4, cap=100)


def test_word_a_examples():
    assert word_a(2) == "00"
    assert word_a(9) == "001100110"
    assert word_a(0) == ""
    assert word_a(100) == word_a_finite(4)[:100]


def test_leading_square_of_a_occurs_only_at_start():
    for level in range(1, 7):
        prefix = word_a_finite(level)
        assert prefix.startswith("00110011")
        assert prefix.find("00110011", 1) == -1


def test_g_b_examples():
    assert g_b("", "00") == "00"
    assert g_b("1", "00") == "001100110"
    assert g_b("0", "00") == "01100110"
    with pytest.raises(ValueError):
        g_b("012", "00")


def test_g_b_cap():
    # The message names the exact length, 2 * 4^12, not a bound on it.
    with pytest.raises(CapExceeded, match="requested 33554432 letters, cap is 1048576"):
        g_b("0" * 12, "00", cap=1 << 20)


@pytest.mark.parametrize("k", range(5))
def test_trailing_one_bit_plants_the_only_overlap_at_the_end(k):
    # g_1(00) = 0 0110 0110 is an overlap of period 4; each of the k bits
    # before the 1 scales it by mu^2, so it ends as the last 9 * 4^k
    # letters at period 4^(k+1).  The uncount suite checks it by slicing.
    for bits in map("".join, itertools.product("01", repeat=k)):
        word = g_b(bits + "1", "00")
        planted = [(len(word) - 9 * 4**k, 4 ** (k + 1), 9 * 4**k)]
        ending = [occ for occ in list_repetitions(word, 2, strict=True) if occ.end == len(word)]
        assert [(occ.start, occ.period, occ.length) for occ in ending] == planted, bits
        if k <= 1:
            occurrences = oracles.maximal_occurrences(word, Fraction(2), strict=True)
            assert [occ for occ in occurrences if occ[0] + occ[2] == len(word)] == planted, bits


def test_bit_spec_parsing():
    assert parse_bit_spec("(0)") == BitSpec("", "0")
    assert parse_bit_spec("01(10)") == BitSpec("01", "10")
    assert parse_bit_spec("01(10)").bits(7) == "0110101"
    assert BitSpec("", "1").bits(0) == ""
    for bad in ["", "01", "()", "(2)", "01(", "0)1("]:
        with pytest.raises(ValueError):
            parse_bit_spec(bad)


def test_word_wb_examples():
    assert word_wb("(1)", 9) == "001100110"
    assert word_wb(BitSpec("", "1"), 9) == "001100110"
    # the all-zeros stream just iterates mu^2, so its limit is word t
    assert word_wb("(0)", 64) == word_t(64)
    # the all-ones stream rebuilds the 0-mu^2 recursion, so its limit is word a
    assert word_wb("(1)", 500) == word_a(500)


@given(st.sampled_from(["(0)", "(1)", "1(0)", "01(10)", "(011)"]), st.integers(0, 200), st.integers(0, 200))
def test_word_wb_prefix_consistency(spec, n, m):
    lo, hi = sorted((n, m))
    assert word_wb(spec, hi)[:lo] == word_wb(spec, lo)


def test_word_wb_is_seven_thirds_free():
    for spec in ["(0)", "(1)", "10(01)"]:
        assert is_power_free(word_wb(spec, 1024), SEVEN_THIRDS)


def test_word_a_automatic_examples():
    assert word_a_automatic(2) == "00"
    assert word_a_automatic(4) == "0011"
    assert word_a_automatic(1024) == word_a(1024)


def test_beta_params_examples():
    got = beta_params(Fraction(11, 5), 3)
    assert got == BetaParams(Fraction(11, 5), 3, 3, 5, Fraction(19, 8))
    got = beta_params(Fraction(7, 2), 4)
    assert (got.r, got.t, got.beta) == (4, 5, Fraction(59, 16))


def test_beta_params_integer_alpha_edge():
    got = beta_params(3, 5)
    assert got.r == 4
    assert got.beta > 3


def test_beta_params_invariants():
    for alpha, s in [(Fraction(11, 5), 3), (Fraction(7, 2), 4), (Fraction(5, 2), 6)]:
        got = beta_params(alpha, s)
        assert got.beta == got.r - Fraction(got.t, 2**s)
        assert got.beta > alpha
        assert 1 <= got.t < 2**s
        assert word_t(2**s)[got.t : got.t + 2] == "00"
        assert abs(alpha - got.beta) <= Fraction(8, 2**s)


def test_beta_params_error_paths():
    with pytest.raises(BetaSearchError):
        beta_params(Fraction(29, 10), 3)  # alpha too close to r for this s
    with pytest.raises(ValueError):
        beta_params(2, 3)
    with pytest.raises(ValueError):
        beta_params(Fraction(5, 2), 2)


def test_beta_word_examples():
    params = beta_params(Fraction(11, 5), 3)
    assert beta_word(params, 2) == "00"
    head = beta_word(params, 19)
    # the construction opens with a 19/8 power of period 8
    assert all(head[i] == head[i + 8] for i in range(19 - 8))
    assert head == "0010110100101101001"


@given(st.integers(0, 400), st.integers(0, 400))
def test_beta_word_prefix_consistency(n, m):
    params = beta_params(Fraction(11, 5), 3)
    lo, hi = sorted((n, m))
    assert beta_word(params, hi)[:lo] == beta_word(params, lo)


def test_beta_word_with_a_large_alpha_pads_only_what_it_keeps():
    from wordpower import MU

    # The rounds as the construction states them, padding 0^(r-2) in full.
    params = beta_params(Fraction(1000), 6)
    word = "00"
    while len(word) < 300:
        word = MU.iterate("0" * (params.r - 2) + word, params.s)[params.t :]
    assert beta_word(params, 300) == word[:300]
    # Here 0^(r-2) in full would not fit in memory, nor its length in an index.
    assert beta_word(beta_params(Fraction(10**20, 3), 3), 5) == "00101"


def test_beta_word_carries_powers_at_both_scales():
    from wordpower import list_repetitions

    params = beta_params(Fraction(11, 5), 3)
    # the transported power of the next level lives inside 2^(2s) * (r+1) letters
    head = beta_word(params, 256)
    periods = {o.period for o in list_repetitions(head, params.beta) if o.period in (8, 64)}
    assert periods == {8, 64}


def test_generator_names():
    assert generator("t")(16) == word_t(16)
    assert generator("s")(7) == "0010011"
    assert generator("a")(9) == "001100110"
    assert generator("a-automatic")(4) == "0011"
    assert generator("wb:(1)")(9) == "001100110"
    assert generator("beta:11/5:3")(2) == "00"


def test_generator_unknown_names():
    for bad in ["nope", "wb:", "wb:xyz", "beta:11/5", "beta:x:3", "beta:11/5:y"]:
        with pytest.raises(UnknownGeneratorError):
            generator(bad)


def test_generator_cap_is_enforced():
    with pytest.raises(CapExceeded):
        generator("t", cap=100)(200)


@pytest.mark.parametrize(
    "name", ["t", "s", "a", "a-automatic", "wb:(10)", "wb:01(10)", "beta:11/5:3"]
)
def test_generator_contract_at_the_cap(name):
    # a prefix of exactly the cap is served and agrees with a long prefix;
    # one letter more is refused
    long = generator(name)(1 << 14)
    for n in [*range(8, 301), 4096, 5000]:
        make = generator(name, cap=n)
        assert make(n) == long[:n]
        with pytest.raises(CapExceeded):
            make(n + 1)


@settings(max_examples=30)
@given(st.integers(0, 2000))
def test_cross_generator_agreement(n):
    assert word_a_automatic(n) == word_a(n)


# Each generator's defining identity, stated with MU alone: applied to the
# word's prefix, it must give that prefix back.
IDENTITIES = {
    "t": MU.apply,
    "a": lambda a: "0" + MU.apply(MU.apply(a)),
    "s": lambda s: "001001" + MU.apply(s[6:]),
    # r = 3, s = 3, t = 5: pad with one 0, apply mu^3, drop 5 letters.
    "beta:11/5:3": lambda b: MU.iterate("0" + b, 3)[5:],
    # The stream 01(10) is 0 followed by the stream 1(10): bit 0 applies mu^2.
    "wb:01(10)": lambda _: MU.apply(MU.apply(generator("wb:1(10)")(1 << 14))),
}


@pytest.mark.parametrize("name", IDENTITIES)
def test_generator_obeys_its_identity(name):
    word = generator(name)(1 << 14)
    assert IDENTITIES[name](word)[: 1 << 14] == word


# Peak traced MiB while one 2^20-letter prefix is generated: 4 at most, and
# no more than before every generator step was one _morphic call (t 1.50,
# s 2.50, wb 2.33), each rounded up to the next 0.01 MiB.
PEAK_MIB_AT_THE_CAP = {"t": 1.51, "s": 2.51, "a": 4, "wb:01(10)": 2.34, "beta:11/5:3": 4}


@pytest.mark.parametrize("name", PEAK_MIB_AT_THE_CAP)
def test_generator_peak_memory_at_the_cap(name):
    make = generator(name)
    tracemalloc.start()
    try:
        assert len(make(1 << 20)) == 1 << 20
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < PEAK_MIB_AT_THE_CAP[name] * 2**20, f"{name} peaked at {peak / 2**20:.2f} MiB"
