"""The repetition kernel at scale and at its edges.

* Differential checks against a plain per-period scan at 2^10-2^14
  letters, where the checkpoint scan does the work (the Hypothesis
  strategies of test_repetition stop at 40 letters).
* Exactness: thresholds whose need(p) overflows int64, alphabets beyond
  {0, 1}, the integer-only LCE, and smallest_period, all against
  tests/oracles.py.
* A memory guard, smallest_period in linear time on 0^m 1, and the
  queries at the 2^20-letter cap.
"""

import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import oracles
from wordpower import (
    exponent_of,
    find_power,
    generator,
    is_power_free,
    list_repetitions,
    max_exponent,
    smallest_period,
    squares_in,
    word_a,
    word_t,
)
from wordpower.repetition import _windows

THRESHOLDS = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 3), Fraction(19, 8), Fraction(5, 2), Fraction(3)]
SEVEN_THIRDS = Fraction(7, 3)


def random_word(n, seed, alphabet="01"):
    rng = random.Random(seed)
    return "".join(rng.choice(alphabet) for _ in range(n))


def sparse_ones(n, seed):
    rng = random.Random(seed)
    return "".join("1" if rng.random() < 0.02 else "0" for _ in range(n))


SCALE_WORDS = {
    "random-2^10": lambda: random_word(1 << 10, 1),
    "random-2^14": lambda: random_word(1 << 14, 2),
    "zeros-2^11": lambda: "0" * (1 << 11),
    "01-2^10": lambda: "01" * (1 << 9),
    "sparse-ones-2^12": lambda: sparse_ones(1 << 12, 3),
    "t-2^14": lambda: word_t(1 << 14),
    "a-2^13": lambda: word_a(1 << 13),
    "beta-2^12": lambda: generator("beta:11/5:3")(1 << 12),
}


def meets(length, period, threshold, strict):
    if strict:
        return length * threshold.denominator > threshold.numerator * period
    return length * threshold.denominator >= threshold.numerator * period


class PerPeriodScan:
    """Reference answers from comparing the word with each of its shifts
    (quadratic).  Keeps every maximal repetition of exponent >= ``floor``
    and, over all of them, the leftmost one and a maximum-exponent one."""

    def __init__(self, word, floor):
        arr = np.frombuffer(word.encode("ascii"), np.uint8)
        self.runs, self.leftmost = [], None
        self.top = (Fraction(1), (0, 1, 1))
        for p in range(1, len(word)):
            delta = np.diff(np.concatenate(([0], arr[:-p] == arr[p:], [0])).astype(np.int8))
            starts = np.flatnonzero(delta == 1)
            if not starts.size:
                continue
            totals = np.flatnonzero(delta == -1) - starts + p
            if self.leftmost is None or starts[0] < self.leftmost[0]:
                self.leftmost = (int(starts[0]), p, int(totals[0]))
            j = int(np.argmax(totals))
            exp = Fraction(int(totals[j]), p)
            if exp > self.top[0] or (exp == self.top[0] and (int(starts[j]), p) < self.top[1][:2]):
                self.top = (exp, (int(starts[j]), p, int(totals[j])))
            keep = totals * floor.denominator >= floor.numerator * p
            self.runs += zip(starts[keep].tolist(), [p] * int(keep.sum()), totals[keep].tolist())
        self.runs.sort()

    def repetitions(self, threshold, strict):
        return [run for run in self.runs if meets(run[2], run[1], threshold, strict)]

    def squares(self):
        """Every square as (position, half), sorted."""
        return sorted(
            (start + i, period)
            for start, period, length in self.repetitions(Fraction(2), False)
            for i in range(length - 2 * period + 1)
        )


def as_tuple(occ):
    return None if occ is None else (occ.start, occ.period, occ.length)


@pytest.mark.parametrize("name", list(SCALE_WORDS))
def test_kernel_matches_per_period_scan(name):
    word = SCALE_WORDS[name]()
    # Keeping every run of exponent >= 1 is quadratic in size beyond 2^11.
    floor = Fraction(1) if len(word) <= 1 << 11 else Fraction(3, 2)
    ref = PerPeriodScan(word, floor)
    for threshold in THRESHOLDS:
        for strict in (False, True):
            where = (name, threshold, strict)
            if threshold == 1 and not strict:
                lead = len(word) - len(word.lstrip(word[0]))
                expected = (0, 1, lead)
            elif threshold >= floor:
                listed = ref.repetitions(threshold, strict)
                got = [as_tuple(o) for o in list_repetitions(word, threshold, strict)]
                assert got == listed, where
                expected = listed[0] if listed else None
            else:
                expected = ref.leftmost
            assert as_tuple(find_power(word, threshold, strict)) == expected, where
            assert is_power_free(word, threshold, plus=strict) == (expected is None), where
    exp, occ = max_exponent(word)
    assert (exp, as_tuple(occ)) == ref.top, name
    squares = ref.squares()
    if sum(2 * half for _, half in squares) > 1 << 20:
        # Periodic words hold about n^3 / 12 letters of squares; check a
        # prefix short enough to spell them all out.
        word = word[:512]
        squares = PerPeriodScan(word, Fraction(2)).squares()
    assert squares_in(word) == [(i, word[i : i + 2 * half]) for i, half in squares], name


# --- exactness edge cases ---

EPSILON = Fraction(1, 2**69)


@pytest.mark.parametrize(
    "word",
    [word_t(1 << 12), random_word(1 << 11, 4), word_a(1 << 11), sparse_ones(1 << 11, 5)],
    ids=["t", "random", "a", "sparse-ones"],
)
def test_thresholds_beyond_int64_match_their_neighbours(word):
    # need(p) for 2 + 2^-69 equals need(p) for 2+ at every p < 2^69, and
    # need(p) for 2 - 2^-69 that for 2; the products overflow int64.
    for strict in (False, True):
        above, below = Fraction(2) + EPSILON, Fraction(2) - EPSILON
        assert list_repetitions(word, above, strict) == list_repetitions(word, 2, strict=True)
        assert list_repetitions(word, below, strict) == list_repetitions(word, 2, strict=False)
        assert find_power(word, above, strict) == find_power(word, 2, strict=True)
        assert is_power_free(word, below, plus=strict) == is_power_free(word, 2)


@pytest.mark.parametrize(
    "threshold",
    [Fraction(10**30 + 1, 10**30), Fraction(10**20, 3), Fraction(2) + EPSILON, Fraction(3, 2) - EPSILON],
    ids=["1+1e-30", "1e20/3", "2+2^-69", "3/2-2^-69"],
)
def test_huge_thresholds_match_oracle(threshold):
    words = [random_word(300, 6), word_t(300), "0" * 70 + "1" + "0" * 70, "0134213"]
    for word in words:
        for strict in (False, True):
            got = as_tuple(find_power(word, threshold, strict))
            assert got == oracles.find_power(word, threshold, strict), (word[:20], strict)
            got = [as_tuple(o) for o in list_repetitions(word, threshold, strict)]
            assert got == oracles.maximal_occurrences(word, threshold, strict), (word[:20], strict)


def planted(alphabet, seed):
    """A word over ``alphabet`` with repetitions at long periods: random
    blocks, each followed by a partial copy of itself."""
    rng = random.Random(seed)
    out = []
    for period in (37, 80, 45):
        block = random_word(period, rng.random(), alphabet)
        out += [block, block[: rng.randrange(period // 2, period)], random_word(9, rng.random(), alphabet)]
    return "".join(out)


@pytest.mark.parametrize("alphabet", ["012", "01234", "0123456789abcdefgh", "".join(map(chr, range(33, 127)))])
def test_letters_beyond_binary_match_oracle(alphabet):
    word = planted(alphabet, len(alphabet))
    for threshold in (Fraction(3, 2), Fraction(7, 4), Fraction(2)):
        for strict in (False, True):
            got = [as_tuple(o) for o in list_repetitions(word, threshold, strict)]
            assert got == oracles.maximal_occurrences(word, threshold, strict), (alphabet, threshold)
            assert as_tuple(find_power(word, threshold, strict)) == oracles.find_power(word, threshold, strict)
    exp, occ = max_exponent(word)
    assert (exp, as_tuple(occ)) == oracles.max_exponent(word)
    assert squares_in(word) == oracles.squares(word)


def test_short_word_over_five_letters():
    word = "0134213"
    for threshold in (Fraction(1), Fraction(4, 3), Fraction(3, 2)):
        for strict in (False, True):
            got = [as_tuple(o) for o in list_repetitions(word, threshold, strict)]
            assert got == oracles.maximal_occurrences(word, threshold, strict)
            assert as_tuple(find_power(word, threshold, strict)) == oracles.find_power(word, threshold, strict)
    exp, occ = max_exponent(word)
    assert (exp, as_tuple(occ)) == oracles.max_exponent(word)


@pytest.mark.parametrize("alphabet", ["01", "012", "0123456789", "".join(map(chr, range(33, 127)))])
def test_lce_matches_letter_by_letter_count(alphabet):
    rng = random.Random(7)
    # Periodic stretches give LCEs of hundreds of letters, so the doubling
    # rounds run too.
    word = "".join(random_word(rng.randrange(1, 40), rng.random(), alphabet) * rng.randrange(1, 30) for _ in range(40))
    n = len(word)
    forward, backward = _windows(word)
    a = np.array([rng.randrange(n) for _ in range(3000)])
    b = np.array([rng.randrange(n) for _ in range(3000)])
    limit = n - np.maximum(a, b)
    reversed_word = word[::-1]
    for windows, text in ((forward, word), (backward, reversed_word)):
        got = windows.lce(a, b, limit)
        for i, j, m, lce in zip(a.tolist(), b.tolist(), limit.tolist(), got.tolist()):
            expected = 0
            while expected < m and text[i + expected] == text[j + expected]:
                expected += 1
            assert lce == expected, (i, j)


def smallest_period_words():
    rng = random.Random(8)
    words = ["0", "01", "0" * 4096, "0" * 2047 + "1", word_t(4096), random_word(4096, 9)]
    for period in (1, 2, 3, 7, 64, 100, 1000, 2047, 2049, 4000):
        root = random_word(period, rng.random())
        words.append((root * (4096 // period + 1))[: rng.randrange(period, 4097)])
    return words


def test_smallest_period_matches_oracle():
    for word in smallest_period_words():
        expected = oracles.smallest_period(word)
        assert smallest_period(word) == expected, (len(word), expected)
        assert exponent_of(word) == Fraction(len(word), expected)


def test_smallest_period_is_linear_time_at_2_17():
    # Every shift of 0^m 1 matches for m - p letters, which made a scan
    # of LCE(0, p) over all p quadratic: 8 s at m = 2^17.
    m = 1 << 17
    for word, expected in [("0" * m + "1", m + 1), ("0" * m + "1" + "0" * m, m + 1), ("01" * m, 2)]:
        start = time.perf_counter()
        assert smallest_period(word) == expected
        assert exponent_of(word) == Fraction(len(word), expected)
        assert time.perf_counter() - start < 2.0, len(word)


# --- memory and the length cap ---

KERNEL_QUERIES = {
    "is_power_free 2+": lambda w: is_power_free(w, 2, plus=True),
    "is_power_free 7/3": lambda w: is_power_free(w, SEVEN_THIRDS),
    "find_power 2+": lambda w: find_power(w, 2, strict=True),
    "max_exponent": max_exponent,
    "list_repetitions 2+": lambda w: list_repetitions(w, 2, strict=True),
    "smallest_period": smallest_period,
}


@pytest.mark.parametrize("query", list(KERNEL_QUERIES))
def test_kernel_peak_memory_on_t_2_14(query):
    word, call = word_t(1 << 14), KERNEL_QUERIES[query]
    call(word)
    tracemalloc.start()
    try:
        call(word)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"{query} peaked at {peak / 2**20:.2f} MiB"


def test_queries_at_the_length_cap():
    t, a = word_t(1 << 20), word_a(1 << 20)
    timings = {}
    for name, call, expected in [
        ("is_power_free(t, 2+)", lambda: is_power_free(t, 2, plus=True), True),
        ("max_exponent(t)", lambda: max_exponent(t)[0], 2),
        ("find_power(a, 7/3)", lambda: find_power(a, SEVEN_THIRDS), None),
    ]:
        start = time.perf_counter()
        assert call() == expected, name
        timings[name] = time.perf_counter() - start
    print("2^20-letter queries:", ", ".join(f"{name} {s:.2f} s" for name, s in timings.items()))
