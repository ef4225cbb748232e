"""The repetition kernel at scale and at its edges.

* Differential checks against a plain per-period scan at 2^10-2^14
  letters, where the bands of anchors do the work (the Hypothesis
  strategies of test_repetition stop at 40 letters).
* Exactness: thresholds whose need(p) overflows int64, alphabets beyond
  {0, 1}, the integer-only LCE and its seam between a word and its
  reversal, and smallest_period, all against tests/oracles.py; a run at
  a period past the need table that a raised threshold starts.
* The power-free words that verify grows letter by letter
  (``_free_words``) against is_power_free, at periods past one chunk and
  from a long start word; and find_power's early exit against the
  oracles and the full scan, and its end at a witness at start 0.
* The direct scan on bit planes against the oracles: alphabets of 1 to
  5 planes, need(p) = 1, periods on both sides of the crossover, runs
  that end at the end of the word, find_power witnesses whose run
  reaches past the letters a bounded scan compares, and words under the
  floor, which it scans at every period.
* The bands of anchors against the oracles: the bands from need 16, 32,
  64 and 128 on windows of 64 to 8 letters, runs that just hold one
  anchor window, chains of hits across runs, band edges, runs that end
  at the end of the word and a threshold below 2; the narrower window
  views; the LCE pairs on periodic words and the windows an LCE round
  gathers.
* Memory guards at 2^14 and 2^20 letters and on a periodic word of 2^16,
  smallest_period in linear time on 0^m 1, and the queries, the
  witnesses at start 0 and the generators at the 2^20-letter cap.
"""

import random
import time
import tracemalloc
from fractions import Fraction
from itertools import product

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
from wordpower import repetition
from wordpower.atlas import _square_blocks, max_overlap_free_extension
from wordpower.repetition import _free_words, _windows

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


def test_max_exponent_at_a_period_past_two_chunks():
    # A factor of t, x x of period 12288 = mu^12 of the square 011 011 at
    # position 11 of t, then 4096 more letters of x.  The factor's squares
    # raise the threshold to 2 at period 1; the winning run, 7/3 at period
    # 12288, lies past the need table of 2 * _CHUNK = 8192 periods that
    # the raised threshold starts.
    t, start = word_t(1 << 17), 11 * 4096
    x = t[start : start + 12288]
    assert t[start : start + 2 * len(x)] == x + x
    word = t[start - 1024 : start + 2 * len(x)] + x[:4096]
    ref = PerPeriodScan(word, Fraction(2))
    exp, occ = max_exponent(word)
    assert (exp, as_tuple(occ)) == ref.top == (SEVEN_THIRDS, (1024, 12288, 28672))
    for strict in (False, True):
        assert as_tuple(find_power(word, exp, strict)) == next(iter(ref.repetitions(exp, strict)), None)
    assert as_tuple(find_power(word, 2, strict=True)) == ref.repetitions(Fraction(2), True)[0]


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
    [Fraction(1), Fraction(3, 2), Fraction(2), SEVEN_THIRDS, Fraction(2) + EPSILON, SEVEN_THIRDS - EPSILON,
     Fraction(2**57 + 1), Fraction(1 - (-(2**62) // 41)), Fraction(10**20, 3)],
    ids=["1", "3/2", "2", "7/3", "2+2^-69", "7/3-2^-69", "2^57+1", "2^62/41+1", "1e20/3"],
)
def test_need_is_the_least_run_that_meets_the_threshold(threshold):
    # need(p) against the least m with (p + m) / p at (or above) the
    # threshold, found by counting up; past the limit it is limit + 1,
    # also at the periods past the limit that the grower asks for.  At
    # 2^62/41 + 1 only those periods, up to 2 * limit + 2, make products
    # past int64.
    limit = 40
    for strict in (False, True):
        for first, stop in ((1, 2 * limit + 3), (17, 61), (5, 5)):
            expected = []
            for p in range(first, stop):
                meets_at = (lambda m: p + m > threshold * p) if strict else (lambda m: p + m >= threshold * p)
                expected.append(next((max(m, 1) for m in range(limit + 1) if meets_at(m)), limit + 1))
            got = repetition._need(threshold, strict, first, stop, limit)
            assert got.dtype == np.int64
            assert got.tolist() == expected, (strict, first, stop)


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
    # Periodic stretches give LCEs of hundreds of letters, so the extension
    # rounds run too.
    word = "".join(random_word(rng.randrange(1, 40), rng.random(), alphabet) * rng.randrange(1, 30) for _ in range(40))
    n = len(word)
    windows = _windows(word)
    a = np.array([rng.randrange(n) for _ in range(3000)])
    b = np.array([rng.randrange(n) for _ in range(3000)])
    limit = n - np.maximum(a, b)
    # The word at i and its reversal at n + i.
    for offset, text in ((0, word), (n, word[::-1])):
        got = windows.lce(a + offset, b + offset, limit)
        for i, j, m, lce in zip(a.tolist(), b.tolist(), limit.tolist(), got.tolist()):
            expected = 0
            while expected < m and text[i + expected] == text[j + expected]:
                expected += 1
            assert lce == expected, (offset, i, j)


def seam_words():
    """Words that end in a palindrome, or whose reversal continues their
    period, so an LCE that ran on across the seam between the word and
    its reversal would count letters past its end.  Each has at least
    _FLOOR letters, so that the bands of anchors measure its long runs."""
    u, v = random_word(130, 15), random_word(130, 16, "012")
    return {
        "u+reversal": u + u[::-1],
        "v+reversal-012": v + v[::-1],
        "0^k 1 0^k": "0" * 130 + "1" + "0" * 130,
        "t-4^4": word_t(4**4),
        "(0110)^k": "0110" * 65,
        "(00100)^k": "00100" * 52,
        "(01210)^k": "01210" * 52,
    }


@pytest.mark.parametrize("name", list(seam_words()))
def test_no_lce_counts_across_the_seam(name):
    word = seam_words()[name]
    for threshold in THRESHOLDS:
        for strict in (False, True):
            got = [as_tuple(o) for o in list_repetitions(word, threshold, strict)]
            assert got == oracles.maximal_occurrences(word, threshold, strict), (threshold, strict)
            assert as_tuple(find_power(word, threshold, strict)) == oracles.find_power(word, threshold, strict)
    exp, occ = max_exponent(word)
    assert (exp, as_tuple(occ)) == oracles.max_exponent(word)
    # run(p): the last letters that equal the letter p before them.
    expected = [oracles.extension(word[::-1], 0, p) for p in range(1, len(word) + 1)]
    assert repetition._end_runs(word).tolist() == expected


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


# --- the direct scan on bit planes ---

# Alphabets of 2, 4, 5 and 20 letters: codes of 1, 2, 3 and 5 bits.
PLANE_ALPHABETS = {"1-plane": "01", "2-planes": "0123", "3-planes": "01234", "5-planes": "abcdefghijklmnopqrst"}


def crossover_word(alphabet, seed):
    """Random letters with a repetition at each period from C - 3 to C + 1,
    around the crossover at need(p) = C = _CROSSOVER: of exponent 2 + 1/p,
    2, 2 + 1/p, just below 2 and 2 + 1/p again, the last ending at the end
    of the word.  At 2+ the runs at C - 3 and C - 2 meet need(p) = p + 1 <
    C with no letter to spare or miss it by one.  A random head makes the
    word at least _FLOOR letters long, so the periods of need C and more
    go to the anchors."""
    rng, c = random.Random(seed), repetition._CROSSOVER
    out = [random_word(repetition._FLOOR - 6 * c, rng.random(), alphabet)]
    for period, extra in ((c - 3, 1), (c - 2, 0), (c - 1, 1), (c, -1), (c + 1, 1)):
        block = random_word(period, rng.random(), alphabet)
        out += [random_word(5, rng.random(), alphabet), (block * 3)[: 2 * period + extra]]
    return "".join(out)


@pytest.mark.parametrize("planes", list(PLANE_ALPHABETS))
def test_direct_scan_matches_oracle(planes):
    alphabet, c = PLANE_ALPHABETS[planes], repetition._CROSSOVER
    word = crossover_word(alphabet, len(alphabet))
    assert len(word) >= repetition._FLOOR
    # Every maximal run once; each threshold keeps those that meet it.
    runs = oracles.maximal_occurrences(word, Fraction(1))
    assert any(p == c + 1 and start + length == len(word) for start, p, length in runs)  # ends at n - p
    assert {period for _, period, _ in runs} >= set(range(c - 3, c + 2))
    # need(p) = 1 at every period (1+) or up to p = 1000 (1001/1000);
    # need(p) = p + 1 is C - 1 at p = C - 2 (direct) and C at p = C - 1,
    # and need(p) = p is C - 1 at p = C - 1 and C at p = C (anchors).
    for threshold, strict in [(Fraction(1), True), (Fraction(1001, 1000), False), (Fraction(3, 2), False),
                              (Fraction(2), False), (Fraction(2), True), (Fraction(2 * c - 1, c - 1), False)]:
        listed = [run for run in runs if meets(run[2], run[1], threshold, strict)]
        assert [as_tuple(o) for o in list_repetitions(word, threshold, strict)] == listed, threshold
        assert as_tuple(find_power(word, threshold, strict)) == (listed[0] if listed else None), threshold
        assert is_power_free(word, threshold, plus=strict) == (not listed), threshold
    top = min(runs, key=lambda run: (-Fraction(run[2], run[1]), run[0], run[1]))
    exp, occ = max_exponent(word)
    assert (exp, as_tuple(occ)) == (Fraction(top[2], top[1]), top)


@pytest.mark.parametrize("planes", list(PLANE_ALPHABETS))
def test_find_power_witness_reaches_past_the_bound(planes):
    alphabet = PLANE_ALPHABETS[planes]
    # Past 4 * _CHUNK letters each direct chunk ends at its first period
    # with runs.  The first finds the overlap aaa at start 6; a later one
    # the leftmost witness, at start 1 and period 10 (need(10) < 16 at
    # each threshold: the direct scan), whose run reaches past the letters
    # that the scan bounded by start 6 compares: 6 + its first period (2
    # or more) + its periods (at most 13) + its largest need (at most 15).
    # find_power reports the run's whole length.
    rng = random.Random(len(alphabet))
    if alphabet == "01":
        block = word_t(1024)[300:310]  # overlap-free
    else:
        block = random_word(10, rng.random(), alphabet)
    block = block[:5] + alphabet[0] * 3 + block[8:]
    head = next(a for a in alphabet if a != block[-1])
    word = head + block * 5 + block[:7] + random_word(1 << 14, rng.random(), alphabet)
    assert len(word) > 4 * repetition._CHUNK
    first = next(runs for runs in repetition._runs(word, lambda: Fraction(2), True) if runs[0].size)
    assert 10 not in first[1]
    for threshold, strict in [(Fraction(2), True), (SEVEN_THIRDS, False), (Fraction(5, 2), False)]:
        got = find_power(word, threshold, strict)
        assert as_tuple(got) == oracles.find_power(word, threshold, strict), threshold
        assert (got.start, got.period) == (1, 10) and got.end > 6 + 2 + 13 + 15


# --- growing power-free words letter by letter, and find_power's early exit ---

# Strict thresholds with a large denominator exercise the packed need table.
ENUMERATED = [
    (Fraction(2), True),
    (SEVEN_THIRDS, False),
    (Fraction(5, 2), False),
    (Fraction(19, 8), True),
    (Fraction(11, 5), True),
    # Denominators past int64: the need table in Python integers.
    (Fraction(2) + EPSILON, True),
    (SEVEN_THIRDS - EPSILON, False),
]


@pytest.mark.parametrize(
    "threshold, plus", ENUMERATED, ids=["2+", "7/3", "5/2", "19/8+", "11/5+", "2+2^-69+", "7/3-2^-69"]
)
def test_power_free_words_match_is_power_free(threshold, plus):
    free = [[] for _ in range(25)]
    for w in _free_words("", threshold, plus, 24):
        free[len(w)].append(w)
    # Up to 12 letters: the is_power_free filter over every word.
    filtered = [[] for _ in range(13)]
    for w in oracles.all_binary_words(12):
        if is_power_free(w, threshold, plus):
            filtered[len(w)].append(w)
    assert free[:13] == filtered
    # From 13 to 24 letters: exactly the free children of the free words
    # one letter shorter, since every prefix of a free word is free.
    for n in range(13, 25):
        children = [w + a for w in free[n - 1] for a in "01"]
        assert free[n] == [w for w in children if is_power_free(w, threshold, plus)], n


def test_overlaps_that_end_the_word_beyond_one_chunk():
    # The only overlap that ends at the last letter has period 5000, above
    # the _CHUNK = 4096 periods that one chunk of _runs covers.
    x = word_t(1 << 14)[5:5005]
    word = x + x + x[0]
    ending = [occ for occ in list_repetitions(word, 2, strict=True) if occ.end == len(word)]
    assert [(occ.start, occ.period) for occ in ending] == [(0, 5000)]
    # The grower from a free start: the prefix of t that ends with the
    # square mu^11(010010), 6144 letters a half, at 15 * 2^11.  Appending
    # the first letter of the half makes an overlap of period 6144 and of
    # no other, so only t's own next letter is kept.
    t = word_t(1 << 16)
    start = t[: 15 * 2048 + 2 * 6144]
    overlap = start + start[-6144]
    ending = [occ for occ in list_repetitions(overlap, 2, strict=True) if occ.end == len(overlap)]
    assert [(occ.start, occ.period) for occ in ending] == [(15 * 2048, 6144)]
    grown = list(_free_words(start, 2, True, len(start) + 1))
    assert overlap not in grown
    assert grown == [start, t[: len(start) + 1]]


def test_extension_from_a_long_start_is_not_quadratic():
    # The grower's state for the start word comes from one backward LCE
    # pass; folding it in letter by letter would be quadratic in its length.
    word = word_t(1 << 16)
    start = time.perf_counter()
    assert max_overlap_free_extension(word, (1 << 16) + 8) == (1 << 16) + 8
    assert time.perf_counter() - start < 2.0


def early_exit_words():
    rng = random.Random(13)
    words = {f"random-2^{k}": random_word(1 << k, rng.random()) for k in (10, 11, 12, 13, 14)}
    words.update({f"{name}-2^{k}": generator(name)(1 << k) for name in ("a", "beta:11/5:3", "wb:01(10)") for k in (8, 10, 13)})
    # The leftmost overlap, at start 1, has a period in a later chunk than
    # the 000 at start 4, which the first chunk finds: past 4 * _CHUNK
    # letters each direct chunk ends at the first period with runs.  At
    # periods 20, 100 and 300 on the anchor path at 2+ (at 3/2 period 20
    # on the direct path), past the one anchor of the band of each period
    # that the bound of start 4 leaves.
    t = word_t(1 << 15)
    for period, copies in ((20, 5), (100, 5), (300, 2)):
        v = "011000" + t[3 * period : 4 * period - 7] + "0"
        words[f"late-period-{period}"] = "1" + v * copies + v[:7] + t[1000 : 1000 + (1 << 14)]
    return words


@pytest.mark.parametrize("name", list(early_exit_words()))
def test_find_power_early_exit_matches_full_scan(name):
    word = early_exit_words()[name]
    for threshold in [Fraction(3, 2), Fraction(2), SEVEN_THIRDS, Fraction(5, 2), Fraction(3)]:
        for strict in (False, True):
            listed = list_repetitions(word, threshold, strict)  # every period, no early exit
            got = find_power(word, threshold, strict)
            assert got == (listed[0] if listed else None), (name, threshold, strict)
            # The oracle is quadratic, or worse, until it meets the witness.
            if len(word) <= 1 << 8 or got is not None and got.start < 8:
                assert as_tuple(got) == oracles.find_power(word, threshold, strict), (name, threshold, strict)


def test_find_power_early_exit_finds_a_smaller_start_later():
    words = early_exit_words()
    for period, length in ((20, 107), (100, 507), (300, 607)):
        word = words[f"late-period-{period}"]
        assert find_power(word, 2, strict=True) == repetition.PowerOccurrence(1, period, length)
        first = next(runs for runs in repetition._runs(word, lambda: Fraction(2), True) if runs[0].size)
        assert first[0].min() == 4 and period not in first[1]


def test_find_power_ends_the_scan_at_a_witness_at_start_0(monkeypatch):
    # t opens with the overlap 01101 (start 0, period 3), so no chunk past
    # the one that yields it can hold a witness that starts before it; a
    # scan that went on would take all 8,192 chunks of this word.
    chunks, runs = [0], repetition._runs

    def counted(*args):
        for chunk in runs(*args):
            chunks[0] += 1
            yield chunk

    monkeypatch.setattr(repetition, "_runs", counted)
    assert as_tuple(find_power(word_t(1 << 14), 1, strict=True)) == (0, 3, 5)
    assert chunks[0] <= 2, chunks[0]


def start_0_words():
    rng = random.Random(25)
    yield from (w for n in range(13) for w in map("".join, product("01", repeat=n)))
    yield from (random_word(200, rng.random()) for _ in range(200))
    yield from ("1" + "0" * k for k in (1, 5, 300, 5000))
    yield from ("10" * k + "1" for k in (1, 5, 300, 5000))


@pytest.mark.parametrize("threshold, strict", [(Fraction(1), True), (Fraction(1001, 1000), False)], ids=["1+", "1001/1000"])
def test_find_power_below_2_matches_oracle(threshold, strict):
    # The witness at these thresholds mostly starts at 0 or 1.
    for word in start_0_words():
        assert as_tuple(find_power(word, threshold, strict)) == oracles.find_power(word, threshold, strict), word


def band_width(d, alphabet="01"):
    """The letters of the anchor windows of a band whose least need is d:
    the widest of 8, 16, 32 and 64 with 2 per - 1 <= d that the 64-bit
    windows of the alphabet hold."""
    per = max(w for w in (8, 16, 32, 64) if 2 * w - 1 <= d)
    return min(per, 64 // next(b for b in (1, 2, 4, 8) if len(alphabet) <= 1 << b))


def test_find_power_early_exit_skips_checkpoints(monkeypatch):
    # On a random word the direct path finds a witness near 0, below every
    # anchor step, after which each band of anchor-path periods p (need(p)
    # = p + 1 >= _CROSSOVER, 2p + 1 <= n) examines one anchor row, not the
    # (n - p - per + 1) // step rows that listing examines.
    word, bands = random_word(1 << 14, 14), []
    band_hits = repetition._band_hits

    def spy(windows, n, p, need, per, step, rows):
        bands.append((p, need.size, per, step, rows))
        return band_hits(windows, n, p, need, per, step, rows)

    monkeypatch.setattr(repetition, "_band_hits", spy)
    assert find_power(word, 2, strict=True).start < 8
    early = bands[:]
    bands.clear()
    list_repetitions(word, 2, strict=True)
    periods = list(range(repetition._CROSSOVER - 1, (len(word) - 1) // 2 + 1))
    for scanned in (early, bands):
        # Each period once, in bands of needs in [d, 2d), d = p + 1 for the
        # band's first period p, anchors d - per + 1 apart, windows of per
        # = 8, 16, 32 and 64 letters from d = 16, 31, 63 and 127.
        assert [p + k for p, size, *_ in scanned for k in range(size)] == periods
        assert all(p + size < 2 * (p + 1) for p, size, *_ in scanned)
        assert all(per == band_width(p + 1) and step == p + 1 - per + 1 for p, _, per, step, _ in scanned)
        assert {per for _, _, per, _, _ in scanned} == {8, 16, 32, 64}
    assert [rows for *_, rows in early] == [1] * len(early)
    assert [rows for *_, rows in bands] == [(len(word) - p - per + 1) // step for p, _, per, step, _ in bands]


# --- the bands of anchors ---

# Alphabets of 2, 3, 5 and 17 letters: windows of 64, 32, 16 and 8 letters.
ANCHOR_ALPHABETS = {"64-letter-windows": "01", "32-letter-windows": "012", "16-letter-windows": "01234",
                    "8-letter-windows": "abcdefghijklmnopq"}


def planted_runs(alphabet, length, runs, seed):
    """Random letters with, for each (start, period, size), a maximal run
    of exactly ``size`` letters w[i] == w[i + period] from ``start``."""
    rng = random.Random(seed)
    w = [rng.choice(alphabet) for _ in range(length)]
    for start, period, size in runs:
        for i in range(start, start + size):
            w[i + period] = w[i]
        if start:
            w[start - 1] = next(a for a in alphabet if a != w[start - 1 + period])
        if start + size + period < length:
            w[start + size + period] = next(a for a in alphabet if a != w[start + size])
    return "".join(w)


def anchor_band_runs(d, per):
    """(length, runs) for :func:`planted_runs`: at 2, need(p) = p, so the
    band from d holds periods d..2d - 1, anchors step - 1, 2 step - 1, ...
    with step = d - per + 1 for anchor windows of ``per`` letters."""
    step = d - per + 1
    # Each run's letters, its copy and the unequal letters around it stay
    # apart from the other runs' (the chain's two runs share one).
    tight = 2 * step  # the region's only whole anchor window ends where it ends
    apart = -(-(tight + 2 * d + 2) // (step + 1)) * (step + 1)  # anchors step + 1 apart hold none
    # A chain of three hits at consecutive anchors a, a + step, a + 2 step:
    # the first in a run of its own, which starts less than a step before
    # a, the others in one run that starts just past the first's window.
    lead = d // 2 - 4
    a = -(-(apart + 2 * d + lead + 3) // step) * step - 1
    edge = a + per + 2 * step + d + 7
    # A region of d letters that ends at the last letter, its one anchor
    # window ending there too.
    length = -(-(edge + 9 * d + 12 - per) // step) * step + d - 1 + per
    return length, [
        (tight, d, d),
        (apart, d, d),
        (a - lead, d, lead + per),
        (a + per + 1, d, 2 * step + 4),
        (edge, 2 * d - 1, 2 * d - 1),  # 2d - 1 and 2d: both sides of a band edge
        (edge + 4 * d + 8, 2 * d, 2 * d + 1),
        (length - 2 * d, d, d),
    ]


@pytest.mark.parametrize("windows", list(ANCHOR_ALPHABETS))
def test_anchor_bands_match_oracle(windows):
    # The bands from need 16, 32, 64 and 128: anchor windows of 8, 16, 32
    # and 64 letters, at most the letters of the alphabet's 64-bit window.
    alphabet = ANCHOR_ALPHABETS[windows]
    for d in (16, 32, 64, 128):
        length, runs = anchor_band_runs(d, band_width(d, alphabet))
        word = planted_runs(alphabet, length, runs, len(alphabet))
        assert length >= repetition._FLOOR
        listed = oracles.maximal_occurrences(word, Fraction(3, 2))
        assert {(start, period, period + size) for start, period, size in runs} <= set(listed), d
        for threshold, strict in [(Fraction(3, 2), False), (Fraction(2), False), (Fraction(2), True),
                                  (SEVEN_THIRDS, False)]:
            expected = [run for run in listed if meets(run[2], run[1], threshold, strict)]
            assert [as_tuple(o) for o in list_repetitions(word, threshold, strict)] == expected, (d, threshold)
            assert as_tuple(find_power(word, threshold, strict)) == (expected[0] if expected else None), (d, threshold)
            assert is_power_free(word, threshold, plus=strict) == (not expected), (d, threshold)
        top = min(listed, key=lambda run: (-Fraction(run[2], run[1]), run[0], run[1]))
        exp, occ = max_exponent(word)
        assert (exp, as_tuple(occ)) == (Fraction(top[2], top[1]), top), d
        # At 11/10 need(p) = ceil(p / 10) reaches d at p = 10 d - 9: a run
        # of exactly need(10 d + 10) = d + 1 letters at period 10 d + 10,
        # in a word of at least _FLOOR letters.
        period = 10 * d + 10
        word = planted_runs(alphabet, max(period + d + 42, repetition._FLOOR), [(5, period, d + 1)], len(alphabet))
        listed = oracles.maximal_occurrences(word, Fraction(11, 10))
        for strict in (False, True):
            expected = [run for run in listed if meets(run[2], run[1], Fraction(11, 10), strict)]
            assert ((5, period, period + d + 1) in expected) != strict, d
            assert [as_tuple(o) for o in list_repetitions(word, Fraction(11, 10), strict)] == expected, (d, strict)


# For each of these periodic words: the LCE pairs that the checkpoint
# scan gave (one checkpoint every need(p) letters of each period, both
# directions sent to the LCE), and the pairs of the anchors, whose first
# LCE batch measures only the first hit of each chain of hits.
PERIODIC_LCE_PAIRS = {
    ("0" * 4096, Fraction(2)): (20992, 4066),
    ("01" * 2048, Fraction(2)): (10508, 2034),
    ("0010" * 1024, SEVEN_THIRDS): (5148, 872),
}


def test_periodic_words_take_few_lce_pairs(monkeypatch):
    # A run holds up to n / step anchor windows; only the first hit of its
    # chain goes to the LCE, one pair each way, not every anchor.
    pairs, lce = [0], repetition._Windows.lce

    def counted(windows, a, b, limit):
        pairs[0] += a.size
        return lce(windows, a, b, limit)

    monkeypatch.setattr(repetition._Windows, "lce", counted)
    for (word, threshold), (checkpoints, heads) in PERIODIC_LCE_PAIRS.items():
        pairs[0] = 0
        got = [as_tuple(o) for o in list_repetitions(word, threshold)]
        assert got == PerPeriodScan(word, threshold).repetitions(threshold, False), word[:4]
        print(f"list_repetitions of {word[:4]!r}... ({len(word)} letters) at {threshold}: {pairs[0]} LCE pairs")
        assert pairs[0] <= checkpoints, (word[:4], pairs[0])
        assert pairs[0] <= heads, (word[:4], pairs[0])


@pytest.mark.parametrize("alphabet", ["01", "0123", "0123456789abcdef", "abcdefghijklmnopq"],
                         ids=["1-bit", "2-bit", "4-bit", "8-bit"])
def test_narrower_views_hold_the_first_letters(alphabet):
    # The windows are little-endian words, so the low 1, 2 or 4 bytes of
    # each hold its first letters on any host.
    windows = _windows(random_word(300, 17, alphabet))
    array = windows.windows
    assert array.dtype == np.dtype("<u8") and windows.per == 64 // windows.bits
    for per in (8, 16, 32, 64):
        if per <= windows.per:
            mask = np.uint64((1 << per * windows.bits) - 1)
            assert (windows.view(per, 0, array.shape, (1,)) == array & mask).all(), per
            strided = windows.view(per, 5, (3, 40), (1, 7))
            assert (strided == (array[5 : 5 + 7 * 40 + 2] & mask)[np.add.outer(np.arange(3), 7 * np.arange(40))]).all()


def test_lce_rounds_gather_only_what_their_pairs_need(monkeypatch):
    # 40 pairs equal far past their limits of 65 to 300 letters: each
    # round gathers ceil(most letters still needed / 64) windows a pair,
    # not _CHUNK // 40.
    gathered, window = [0], repetition._Windows._window

    def counted(windows, pos):
        gathered[0] += pos.size
        return window(windows, pos)

    monkeypatch.setattr(repetition._Windows, "_window", counted)
    rng = random.Random(18)
    windows = _windows("0" * 4096)
    a = np.array([rng.randrange(2000) for _ in range(40)])
    limit = np.array([rng.randrange(65, 301) for _ in range(40)])
    assert windows.lce(a, a + 1, limit).tolist() == limit.tolist()
    assert gathered[0] <= 2 * 40 * (1 + -(-300 // 64)), gathered[0]


def test_short_words_keep_the_direct_scan(monkeypatch):
    # Under _FLOOR letters every period goes to the direct scan: no window
    # array, no band of anchors.  At _FLOOR letters the anchors start.
    built, bands = [], []
    windows_class, band_hits = repetition._Windows, repetition._band_hits

    def spy_windows(*args):
        built.append(args)
        return windows_class(*args)

    def spy_bands(*args):
        bands.append(args)
        return band_hits(*args)

    monkeypatch.setattr(repetition, "_Windows", spy_windows)
    monkeypatch.setattr(repetition, "_band_hits", spy_bands)
    floor = repetition._FLOOR
    for word in [random_word(floor - 1, 19), word_t(floor - 1), "0" * (floor - 1), random_word(200, 20, "012")]:
        for threshold, strict in [(Fraction(3, 2), False), (Fraction(2), False), (Fraction(2), True),
                                  (SEVEN_THIRDS, False), (Fraction(3), False)]:
            list_repetitions(word, threshold, strict)
            find_power(word, threshold, strict)
            is_power_free(word, threshold, plus=strict)
        max_exponent(word)
    assert built == [] and bands == []
    list_repetitions(random_word(floor, 19), 2)
    assert built and bands


def test_direct_cut_covers_the_largest_need():
    # "1" 0^254 at 3: cubes at every period p <= 84, all from start 1.  The
    # first chunk ends after 4 * _CHUNK // 255 = 64 periods with runs; the
    # next, bounded by that witness at 1, holds periods whose need 2p runs
    # to 168 letters, far past the 16 of the crossover, so its planes must
    # be cut past 1 + p + its periods + its largest need.
    word, threshold, witness = "1" + "0" * 254, Fraction(3), [None]
    assert len(word) < repetition._FLOOR
    chunks = []
    for runs in repetition._runs(word, lambda: threshold, False, lambda: len(word) if witness[0] is None else witness[0]):
        chunks.append(sorted(zip(*(column.tolist() for column in runs))))
        if runs[0].size and witness[0] is None:
            witness[0] = int(runs[0].min())
    listed = oracles.maximal_occurrences(word, threshold)
    assert witness[0] == 1 and [period for _, period, _ in chunks[0]] == list(range(1, 65))
    later = [run for run in listed if run[1] > 64 and run[0] <= witness[0]]
    assert later == [(1, p, 254) for p in range(65, 85)]
    assert sorted(run for chunk in chunks[1:] for run in chunk if run[0] <= witness[0]) == later


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


def test_kernel_peak_memory_on_t_2_20():
    # The word and its reversal in one window array of 2n + 1 words
    # (16 MiB here), built without a temporary of its size.
    word = word_t(1 << 20)
    tracemalloc.start()
    try:
        assert is_power_free(word, 2, plus=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    print(f"is_power_free(t 2^20, 2+) traced peak {peak / 2**20:.2f} MiB")
    assert peak < 28 << 20, f"peaked at {peak / 2**20:.2f} MiB"


def test_kernel_peak_memory_on_a_periodic_word():
    # Every anchor of 0^n is a hit at every period: a chunk stops taking
    # bands at _CHUNK // 2 hits.
    word = "0" * (1 << 16)
    tracemalloc.start()
    try:
        list_repetitions(word, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    print(f'list_repetitions("0" * 2^16, 2) traced peak {peak / 2**20:.2f} MiB')
    assert peak < 20 << 20, f"peaked at {peak / 2**20:.2f} MiB"


def test_find_power_at_the_cap_stops_at_start_0():
    # Each direct chunk past 4 * _CHUNK letters stops at its first period
    # with runs; a scan that went on after the witness at start 0 decoded
    # all n bits a chunk, for minutes at this length.
    timings = {}
    for name, word, threshold, strict, expected in [
        ("find_power(t, 1+)", word_t(1 << 20), 1, True, (0, 3, 5)),
        ("find_power(0^n, 2)", "0" * (1 << 20), 2, False, (0, 1, 1 << 20)),
    ]:
        start = time.perf_counter()
        assert as_tuple(find_power(word, threshold, strict)) == expected, name
        timings[name] = time.perf_counter() - start
        assert timings[name] < 1, f"{name} took {timings[name]:.2f} s"
    print("2^20-letter witnesses at start 0:", ", ".join(f"{name} {s:.3f} s" for name, s in timings.items()))


def test_queries_at_the_length_cap():
    t, a = word_t(1 << 20), word_a(1 << 20)
    timings = {}
    for name, call, expected in [
        ("is_power_free(t, 2+)", lambda: is_power_free(t, 2, plus=True), True),
        ("max_exponent(t)", lambda: max_exponent(t)[0], 2),
        ("find_power(a, 7/3)", lambda: find_power(a, SEVEN_THIRDS), None),
        # The witness at start 0 bounds every later chunk to the first letters.
        ("find_power(a, 2+)", lambda: as_tuple(find_power(a, 2, strict=True)), (0, 4, 9)),
        ("_square_blocks(t)", lambda: sum(positions.size for positions, _ in _square_blocks(t)), 873784),
        *[
            (f"generate {name}", lambda name=name: len(generator(name)(1 << 20)), 1 << 20)
            for name in ["t", "s", "a", "a-automatic", "wb:01(10)", "beta:11/5:3"]
        ],
    ]:
        start = time.perf_counter()
        assert call() == expected, name
        timings[name] = time.perf_counter() - start
        assert timings[name] < 10, f"{name} took {timings[name]:.1f} s"
    print("2^20-letter queries:", ", ".join(f"{name} {s:.2f} s" for name, s in timings.items()))
