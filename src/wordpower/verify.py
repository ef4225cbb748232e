"""Named verification suites, each re-checking one structural guarantee
by brute force at desk scale: exhaustive enumeration of words up to 12
letters and of squares up to 24 letters, scans of prefixes up to
4^7 = 16,384 letters, 256-letter extensions found in witness words or by
search.  Suites that need the power-free words of a length (shur, fact,
conj, main) grow them letter by letter (``repetition._free_words``);
stronger and uncount scan their words joined, a kernel call per 126 words.

Every suite returns (passed, detail); :func:`run_suite` adds timing.
Suite names are stable CLI surface; :func:`suite_names` lists them.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from typing import Callable

from .atlas import (
    atlas_members,
    atlas_membership,
    check_extension_lemma,
    max_overlap_free_extension,
    squares_in,
)
from .constructions import (
    BetaSearchError,
    beta_params,
    beta_word,
    g_b,
    word_a,
    word_a_automatic,
    word_a_finite,
    word_s,
    word_t,
)
from .morphism import F, G, H, MU, descend_power, factorize
from .repetition import PowerOccurrence, _free_words, is_power_free, list_repetitions, max_exponent
from .words import complement, conjugates, enumerate_words

SEVEN_THIRDS = Fraction(7, 3)
_SEPARATORS = [chr(c) for c in range(128) if chr(c) not in "01"]  # not in binary words


@dataclass
class SuiteResult:
    suite: str
    passed: bool
    seconds: float
    detail: str


_CHECKS: dict[str, Callable[[], tuple[bool, str]]] = {}


def _suite(name: str):
    def register(fn: Callable[[], tuple[bool, str]]):
        _CHECKS[name] = fn
        return fn

    return register


def suite_names() -> list[str]:
    return list(_CHECKS)


def run_suite(name: str) -> SuiteResult:
    try:
        check = _CHECKS[name]
    except KeyError:
        known = ", ".join(_CHECKS)
        raise ValueError(f"unknown suite {name!r}; known: {known}") from None
    started = time.perf_counter()
    passed, detail = check()
    return SuiteResult(name, passed, time.perf_counter() - started, detail)


def _all_words(max_length: int) -> list[str]:
    out: list[str] = []
    for n in range(max_length + 1):
        out.extend(enumerate_words(n))
    return out


def _repetitions_by_word(words: list[str], threshold: Fraction | int, strict: bool) -> list[list[PowerOccurrence]]:
    """``list_repetitions`` of each binary word, one kernel call per 126 words joined, each ended by a separator
    no run holds (at exponent >= 2 each letter of a run recurs p away in it); ``bisect`` maps runs back."""
    if threshold < 2:
        raise ValueError(f"threshold {threshold} is below 2: runs can cross the separators")
    out: list[list[PowerOccurrence]] = [[] for _ in words]
    for first in range(0, len(words), len(_SEPARATORS)):
        chunk = words[first : first + len(_SEPARATORS)]
        offsets = list(accumulate((len(w) + 1 for w in chunk), initial=0))
        for occ in list_repetitions("".join(map("".join, zip(chunk, _SEPARATORS))), threshold, strict):
            i = bisect_right(offsets, occ.start) - 1
            out[first + i].append(PowerOccurrence(occ.start - offsets[i], occ.period, occ.length))
    return out


def _overlap_free_squares(max_half: int) -> list[list[str]]:
    """Entry h: the overlap-free squares x + x with |x| = h, in
    lexicographic order, for h = 0..max_half."""
    free = list(_free_words("", 2, True, 2 * max_half))
    return [[w for w in free if len(w) == 2 * h and w[:h] == w[h:]] for h in range(max_half + 1)]


@_suite("tmmorph")
def _check_prefix_suffix_transport() -> tuple[bool, str]:
    """x is a prefix (suffix) of y iff mu(x) is one of mu(y); decided for
    every ordered pair of words with |x| <= |y| <= 10.

    The pairs are grouped by y and |x| = k.  Exactly one x of length k is
    a prefix of y, namely y[:k].  When mu is injective and 2-uniform on
    the domain, mu(x) has length 2k, so exactly the x with mu(x) =
    mu(y)[:2k] has mu(x) a prefix of mu(y), and there is at most one.  The
    whole group holds iff that preimage exists and equals y[:k], that is,
    iff mu(y[:k]) = mu(y)[:2k]; suffixes alike with mu(y[-k:]) =
    mu(y)[-2k:].  Both premises are checked first, and the detail counts
    the 2^k pairs each group decides.

    If every shorter word holds all its groups, mu is a morphism on them,
    and y holds at every k and side iff mu(y) = mu(y[:-1]) mu(y[-1]): the
    prefix at k = n - 1 and the suffix at k = 1 give that equation, and
    it makes the first and last 2k letters of mu(y) the images of y's
    first and last k letters for every k.  So the first word, shortest
    first, whose image is not that concatenation is the first y the loop
    by y, then k, then prefix before suffix, fails on; it alone runs that loop.
    """
    words = _all_words(10)
    images = [MU.apply(w) for w in words]
    for w, image in zip(words, images):
        if len(image) != 2 * len(w):
            return False, f"mu is not 2-uniform: |mu({w!r})| = {len(image)}"
    preimage = dict(zip(images, words))
    if len(preimage) < len(words):
        w, other = next((w, preimage[im]) for w, im in zip(words, images) if preimage[im] != w)
        return False, f"mu is not injective: mu({w!r}) = mu({other!r})"
    image_of = dict(zip(words, images))
    for y, my in zip(words[1:], images[1:]):
        if my != image_of[y[:-1]] + image_of[y[-1]]:
            for k in range(len(y) + 1):
                for side, x, part in (("prefix", y[:k], my[: 2 * k]), ("suffix", y[len(y) - k :], my[2 * (len(y) - k) :])):
                    if preimage.get(part) != x:
                        return False, f"{side} transport fails for x={preimage.get(part, x)!r} y={y!r}"
    return True, f"{sum((1 << n) * ((2 << n) - 1) for n in range(11))} ordered pairs checked"


@_suite("shur")
def _check_freeness_transport() -> tuple[bool, str]:
    """w is 7/3-power-free iff mu(w) is; exhaustive up to length 12.  The
    images join mu(0) and mu(1), letters renamed 0, 1 by first appearance
    (freeness is kept), in word order, so mu is applied to its two letters."""
    words = _all_words(12)
    letter_images = (MU.apply("0"), MU.apply("1"))
    letters = "".join(dict.fromkeys("".join(letter_images)))
    if len(letters) > 2:
        return False, f"mu's images use {len(letters)} letters"
    letter_images = [image.translate(str.maketrans(letters, "01"[: len(letters)])) for image in letter_images]
    images = [image for n in range(13) for image in map("".join, product(letter_images, repeat=n))]
    free = set(_free_words("", SEVEN_THIRDS, False, max(map(len, words + images))))
    for w, image in zip(words, images):
        if (w in free) != (image in free):
            return False, f"freeness transport fails for {w!r}"
    return True, f"{len(words)} words checked"


@_suite("stronger")
def _check_power_descent() -> tuple[bool, str]:
    """Every even-period repetition above exponent 2 in mu(w) descends to
    one in w with half the period and at least half the length.  The 301
    images are scanned in three kernel calls (:func:`_repetitions_by_word`)."""
    rng = random.Random(0x5EED)
    descents = 0
    words = ["1000"] + [
        "".join(rng.choice("01") for _ in range(rng.randrange(2, 48)))
        for _ in range(300)
    ]
    for w, runs in zip(words, _repetitions_by_word([MU.apply(w) for w in words], 2, True)):
        for occ in runs:
            if occ.period % 2:
                continue
            got = descend_power(w, occ)
            ok = (
                got.is_valid_in(w)
                and got.period == occ.period // 2
                and got.length >= -(-occ.length // 2)
            )
            if not ok:
                return False, f"descent fails for w={w!r} occ={occ}"
            descents += 1
    return True, f"{descents} descents verified over {len(words)} words"


@_suite("fact")
def _check_factorization() -> tuple[bool, str]:
    """Every 7/3-power-free word of length 12 admits a short-edge
    factorization with a power-free core."""
    free = [w for w in _free_words("", SEVEN_THIRDS, False, 12) if len(w) == 12]
    for w in free:
        if not factorize(w, SEVEN_THIRDS):
            return False, f"no factorization for {w!r}"
    return True, f"{len(free)} power-free words of length 12 factorized"


@_suite("pansiot")
def _check_squares_of_t() -> tuple[bool, str]:
    """All squares of the Thue-Morse prefix lie in family A, and every
    family-A member of length <= 64 occurs in a long enough prefix."""
    t = word_t(4096)
    if not is_power_free(t, 2, plus=True):
        return False, "Thue-Morse prefix of length 4096 is not overlap-free"
    found = squares_in(t)
    distinct = {square for _, square in found}
    for square in distinct:
        if atlas_membership(square).family != "A":
            return False, f"square {square[:32]}... not in family A"
    t_long = word_t(1 << 14)
    members = atlas_members(64, families="A")
    missing = [m for m in members if m not in t_long]
    if missing:
        return False, f"family-A members missing from the 2^14 prefix: {missing}"
    return True, f"{len(distinct)} distinct squares, {len(members)} members located"


@_suite("square")
def _check_square_start_uniqueness() -> tuple[bool, str]:
    """At most one square starts at any position of the Thue-Morse prefix."""
    counts = Counter(pos for pos, _ in squares_in(word_t(4096)))
    worst = max(counts.values(), default=0)
    if worst > 1:
        return False, f"some position starts {worst} squares"
    return True, f"{len(counts)} positions start a square, none starts two"


@_suite("conj")
def _check_conjugate_closure() -> tuple[bool, str]:
    """For every even length up to 24, the overlap-free squares are
    exactly the rotations of the atlas family-A members of that length."""
    members, squares = atlas_members(24, families="A"), _overlap_free_squares(12)
    for half in range(1, 13):
        enumerated = set(squares[half])
        closure: set[str] = set()
        for m in members:
            if len(m) == 2 * half:
                closure |= conjugates(m)
        if enumerated != closure:
            return False, f"mismatch at length {2 * half}"
    return True, f"even lengths 2..{2 * half} match"


@_suite("extend")
def _check_blocked_extensions() -> tuple[bool, str]:
    """Appending any letter to the Thue-Morse images of 011011 or 100100
    creates an overlap, for iteration depths 0..4.  Up to reversal and
    complement these images are the family-B members mu^k(001001) and
    mu^k(110110), so every one-letter left extension of a family-B member
    contains an overlap: family B occurs only as a prefix."""
    for k in range(5):
        if not check_extension_lemma(k):
            return False, f"extension lemma fails at depth {k}"
    return True, f"depths 0..{k} hold"


@_suite("main")
def _check_extendability_dichotomy() -> tuple[bool, str]:
    """Among overlap-free squares of length <= 16, atlas membership is
    equivalent to reaching the length-256 search horizon, which a square at
    i <= |w| - 256 in an overlap-free witness w (s, mu(s) and complements,
    made from t, not the atlas) reaches; the search runs for the rest."""
    bases = (word_s(512), MU.apply(word_s(256)))
    witnesses = [w for b in bases for w in (b, complement(b)) if is_power_free(w, 2, plus=True)]
    squares = [square for of_half in _overlap_free_squares(8)[1:] for square in of_half]
    for square in squares:
        found = any(0 <= w.find(square) <= len(w) - 256 for w in witnesses)
        if atlas_membership(square).in_atlas != (found or max_overlap_free_extension(square, 256) == 256):
            return False, f"dichotomy fails for {square!r}"
    return True, f"{len(squares)} overlap-free squares classified"


@_suite("finite-overlaps")
def _check_overlap_position_stability() -> tuple[bool, str]:
    """The period-4 overlap start positions in the word a are the same
    on the 4^6 and 4^7 prefixes (no new ones appear)."""

    def starts(n: int) -> set[int]:
        return {
            occ.start
            for occ in list_repetitions(word_a(n), 2, strict=True)
            if occ.period == 4
        }

    small, large = starts(4**6), starts(4**7)
    if small != large:
        return False, f"period-4 overlap starts moved: {sorted(small)} vs {sorted(large)}"
    return True, f"stable start set {sorted(small)}"


@_suite("infinite")
def _check_word_a_profile() -> tuple[bool, str]:
    """The word a stays below exponent 7/3 while carrying overlaps of
    periods 4, 16 and 64."""
    prefix = word_a(9557)
    top, witness = max_exponent(prefix)
    if top >= SEVEN_THIRDS:
        return False, f"exponent {top} at {witness} reaches 7/3"
    periods = {occ.period for occ in list_repetitions(prefix, 2, strict=True)}
    needed = {4, 16, 64}
    if not needed <= periods:
        return False, f"missing overlap periods {sorted(needed - periods)}"
    return True, f"max exponent {top}, overlap periods {sorted(periods)}"


@_suite("uncount")
def _check_bit_steered_family() -> tuple[bool, str]:
    """Finite form of the uncountable-family argument: short bit strings
    give 7/3-power-free words, sibling outputs are prefix-incompatible,
    and a trailing 1 bit plants an overlap at the end: 0 0110 0110 = g_1(00)
    scaled by mu^2 for each of the k bits before it, period 4^(k+1).  One
    kernel call scans the 31 words (:func:`_repetitions_by_word`)."""
    bit_strings = _all_words(4)
    powers = _repetitions_by_word([g_b(bits, "00") for bits in bit_strings], SEVEN_THIRDS, False)
    for bits, found in zip(bit_strings, powers):
        if found:
            return False, f"g_{bits or 'e'}(00) is not 7/3-power-free"
        left, right = g_b(bits + "0", "0"), g_b(bits + "1", "0")
        if left.startswith(right) or right.startswith(left):
            return False, f"prefix incompatibility fails after {bits!r}"
        word, scale = g_b(bits + "1", "00"), 4 ** len(bits)
        if not PowerOccurrence(len(word) - 9 * scale, 4 * scale, 9 * scale).is_valid_in(word):
            return False, f"g_{bits + '1'}(00) does not end with an overlap"
    return True, f"{len(bit_strings)} bit strings checked"


@_suite("automatic")
def _check_automatic_presentation() -> tuple[bool, str]:
    """The coded fixed point reproduces the word a, with the expected
    length law, forbidden pairs, and reparsing recursion."""
    if word_a_automatic(4096) != word_a(4096):
        return False, "coded fixed point disagrees with the recursion"
    for level in range(8):
        if len(word_a_finite(level)) != (4 ** (level + 1) + 3 * 4**level - 1) // 3:
            return False, f"length law fails at level {level}"
    fixed = H.fixed_point_prefix("0", 4096)
    for pair in ("11", "14", "22", "24", "31", "33", "41", "44", "43", "12"):
        if pair in fixed:
            return False, f"forbidden pair {pair} occurs in the fixed point"
    for n in range(1, 6):
        lhs = H.iterate("0", n)
        rhs = "0" + F.apply(H.iterate("0", n - 1))
        if len(rhs) != len(lhs) + 1 or not rhs.startswith(lhs):
            return False, f"reparsing recursion fails at n={n}"
    for letter in "01234":
        if G.apply(F.apply(letter)) != MU.iterate(G.apply(letter), 2):
            return False, f"coding identity fails on letter {letter}"
    return True, "presentation, length law, forbidden pairs and recursion hold"


@_suite("beta")
def _check_beta_construction() -> tuple[bool, str]:
    """The beta-power construction: exact parameters on the reference
    input, the freeness/presence split on the generated word, and the
    closeness bound on random valid parameter draws."""
    params = beta_params(Fraction(11, 5), 3)
    if (params.r, params.t, params.beta) != (3, 5, Fraction(19, 8)):
        return False, f"reference parameters came out as {params}"
    prefix = beta_word(params, 4096)
    if not is_power_free(prefix, params.beta, plus=True):
        return False, "generated word is not beta-plus-power-free"
    periods = {
        occ.period
        for occ in list_repetitions(prefix, params.beta, strict=False)
    }
    if not {8, 64} <= periods:
        return False, f"beta powers missing at periods 8/64; saw {sorted(periods)}"
    rng = random.Random(0xBE7A)
    accepted = 0
    rejected = 0
    while accepted < 20:
        alpha = Fraction(rng.randrange(2 * 64 + 1, 4 * 64), 64)
        s = rng.randrange(3, 9)
        try:
            drawn = beta_params(alpha, s)
        except BetaSearchError:
            rejected += 1  # legitimate: no valid drop length at this s
            continue
        if abs(alpha - drawn.beta) > Fraction(8, 2**s):
            return False, f"closeness bound fails for alpha={alpha}, s={s}"
        accepted += 1
    return True, f"reference exact; {accepted} random draws within bound ({rejected} rejected)"
