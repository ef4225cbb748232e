"""Acceptance gate: one test per criterion, each printing a pass/fail line.

A criterion with a ``wordpower verify`` suite runs it (see SUITES) and
asserts its exact detail, so a suite cannot quietly shrink its domain.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they appear (without -s pytest shows them for failing tests only).
"""

import json
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import oracles
from wordpower import (
    BetaSearchError, MU, beta_params, find_power, is_power_free, squares_in, verify,
    word_s, word_t,
)

# criterion -> {verify suite it runs: the detail that suite must report}
SUITES = {
    2: {"pansiot": "37 distinct squares, 20 members located"},
    3: {"square": "3396 positions start a square, none starts two"},
    4: {"conj": "even lengths 2..24 match"},
    5: {"extend": "depths 0..4 hold"},
    6: {"main": "34 overlap-free squares classified"},
    8: {"shur": "8191 words checked", "tmmorph": "2794155 ordered pairs checked"},
    9: {"fact": "64 power-free words of length 12 factorized"},
    10: {
        "infinite": "max exponent 9/4, overlap periods [4, 16, 64, 256, 1024, 4096]",
        "finite-overlaps": "stable start set [0]",
    },
    11: {"uncount": "31 bit strings checked"},
    12: {"automatic": "presentation, length law, forbidden pairs and recursion hold"},
    13: {"beta": "reference exact; 20 random draws within bound (3 rejected)"},
}
# Suites that no criterion runs; tests/test_verify.py still runs them, and
# test_every_suite_reports_its_stored_answer pins their details.
NO_CRITERION = {"stronger"}
# The benchmark's stored answers, among them the detail of every suite.
ANSWERS = Path(__file__).resolve().parents[1] / "perfbench" / "answers.json"


def report(number, name, ok, note=""):
    suffix = f" ({note})" if note else ""
    print(f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {number} failed: {name}{suffix}"


def run_suites(number):
    for name, detail in SUITES[number].items():
        result = verify.run_suite(name)
        note = result.detail if result.detail == detail else f"{result.detail}; expected {detail}"
        report(number, f"suite {name}", result.passed and result.detail == detail, note)


def suite_criterion(number):
    """A criterion that consists of its suites alone."""
    return lambda: run_suites(number)


test_criterion_02_squares_of_t_are_exactly_family_a = suite_criterion(2)
test_criterion_03_at_most_one_square_per_position = suite_criterion(3)
test_criterion_04_overlap_free_squares_are_conjugates = suite_criterion(4)
test_criterion_05_blocked_extension_lemma = suite_criterion(5)
test_criterion_06_extendability_dichotomy = suite_criterion(6)
test_criterion_09_factorization_exists = suite_criterion(9)
test_criterion_10_word_a_profile_and_stability = suite_criterion(10)
test_criterion_11_bit_steered_family_finite_form = suite_criterion(11)
test_criterion_12_automatic_presentation = suite_criterion(12)


def test_criterion_01_thue_morse_prefix_overlap_free():
    prefix = word_t(8192)
    started = time.perf_counter()
    free = is_power_free(prefix, 2, plus=True)
    elapsed = time.perf_counter() - started
    report(1, "thue-morse 8192 overlap-free under 60s", free and elapsed < 60.0,
           f"scan took {elapsed:.2f}s")


def test_criterion_07_prefix_square_occurs_only_at_start():
    prefix = word_s(2048)
    occurrences = [m.start() for m in re.finditer("(?=001001)", prefix)]
    ok = occurrences == [0] and is_power_free(prefix, 2, plus=True)
    report(7, "001001 occurs once, at 0, in the overlap-free word s", ok)


def test_criterion_08_morphism_transport_exhaustive():
    run_suites(8)
    # Every ordered pair by brute force: the reference for tmmorph's grouping.
    words = list(oracles.all_binary_words(10))
    images = {w: MU.apply(w) for w in words}
    edge_transport = True
    for x in words:
        mx, lx = images[x], len(x)
        for y in words:
            if len(y) < lx:
                continue
            my = images[y]
            if y.startswith(x) != my.startswith(mx) or y.endswith(x) != my.endswith(mx):
                edge_transport = False
    report(8, "prefix/suffix transport, every pair of words <= 10", edge_transport)


def test_criterion_13_beta_construction():
    run_suites(13)
    # Closeness on draws of its own: other seed and finer alphas than the suite's.
    rng = random.Random(0xACCE97)
    bound_holds = True
    accepted = 0
    while accepted < 20:
        alpha = Fraction(rng.randrange(2 * 120 + 1, 4 * 120), 120)
        s = rng.randrange(3, 9)
        try:
            drawn = beta_params(alpha, s)
        except BetaSearchError:
            continue  # no valid drop length at this s; redraw
        bound_holds &= abs(alpha - drawn.beta) <= Fraction(8, 2**s)
        accepted += 1
    report(13, "beta closeness on 20 draws of alpha = k/120", bound_holds)


def test_criterion_14_oracle_equivalence():
    thresholds = [(Fraction(2), False), (Fraction(2), True), (Fraction(7, 3), False)]

    def agree(word):
        for threshold, strict in thresholds:
            got = find_power(word, threshold, strict=strict)
            expected = oracles.find_power(word, threshold, strict=strict)
            got_tuple = None if got is None else (got.start, got.period, got.length)
            if got_tuple != expected:
                return False
        return squares_in(word) == oracles.squares(word)

    exhaustive = all(agree(word) for word in oracles.all_binary_words(14))
    rng = random.Random(0x0AC1E)
    sampled = all(
        agree("".join(rng.choice("01") for _ in range(200))) for _ in range(1000)
    )
    report(14, "kernel agrees with the naive oracle (<=14 exhaustive, 1000x200 random)",
           exhaustive and sampled)


def test_every_suite_has_a_criterion_or_is_listed_without_one():
    run = {name for suites in SUITES.values() for name in suites}
    assert not run & NO_CRITERION
    assert run | NO_CRITERION == set(verify.suite_names())


def test_every_suite_reports_its_stored_answer():
    stored = json.loads(ANSWERS.read_text())["verify"]
    assert sorted(stored) == sorted(verify.suite_names())
    for suites in SUITES.values():
        for name, detail in suites.items():
            assert stored[name] == detail, name
    for name, detail in stored.items():
        result = verify.run_suite(name)
        assert (result.passed, result.detail) == (True, detail), name
