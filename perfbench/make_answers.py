"""Compute and cross-check the benchmark's stored answers (answers.json).

    python3 perfbench/make_answers.py    # rewrite answers.json; git diff shows any change

Answers come from the package itself and are accepted only after
independent checks:

* at sizes the naive oracles in tests/oracles.py reach, every answer
  equals the oracle's;
* at larger sizes, the paper's facts hold: t and s are overlap-free, a is
  7/3-power-free yet has overlaps at periods 4, 16 and 64, the beta word
  for 11/5 at s = 3 is beta+-power-free with beta powers at periods 8
  and 64, and every witness is valid and agrees with the plain-Python
  leftmost search in reference.py;
* square listings equal the oracle's squares classified by forward
  iteration of the atlas bases.

Takes about a minute; run it from the root of a checkout.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
import reference  # noqa: E402
import wordpower  # noqa: E402
from wordpower import cli, verify  # noqa: E402
from workloads import (  # noqa: E402
    A_CHECK_JITTER, A_CHECK_LETTERS, ANSWERS, DENSE_ROOTS, SCAN_QUERIES, SCAN_WORDS, SEVEN_THIRDS,
    SQUARES_WORDS, canonical, digest, periodic, witnesses,
)

ORACLE_LETTERS = 512  # the oracles are cubic; beyond this they take minutes


def fail(message: str) -> None:
    raise SystemExit(f"cross-check failed: {message}")


def scan_answers() -> dict:
    out = {}
    for name, n in SCAN_WORDS[False] + SCAN_WORDS[True]:
        word = wordpower.generator(name)(n)
        results = {query: fn(word) for query, (_, fn) in SCAN_QUERIES.items()}
        for query, result in results.items():
            for occ in witnesses(result):
                if not occ.is_valid_in(word):
                    fail(f"{name}:{n} {query}: invalid witness {occ}")
        found = results["find_power 2+"]
        if found is not None and canonical(found) != list(reference.find_power(word, Fraction(2), True)):
            fail(f"{name}:{n}: find_power disagrees with the reference")
        if n <= ORACLE_LETTERS:
            oracle_checks(f"{name}:{n}", word, results)
        paper_facts(name, n, word, results)
        out[f"{name}:{n}"] = {query: canonical(result) for query, result in results.items()}
    return out


def oracle_checks(label: str, word: str, results: dict) -> None:
    expected = {
        "is_power_free 2+": oracles.is_power_free(word, 2, plus=True),
        "is_power_free 7/3": oracles.is_power_free(word, SEVEN_THIRDS),
        "find_power 2+": oracles.find_power(word, 2, strict=True),
        "max_exponent": oracles.max_exponent(word),
        "list_repetitions 2+": oracles.maximal_occurrences(word, 2, strict=True),
    }
    got = {
        "is_power_free 2+": results["is_power_free 2+"],
        "is_power_free 7/3": results["is_power_free 7/3"],
        "find_power 2+": None if results["find_power 2+"] is None else tuple(canonical(results["find_power 2+"])),
        "max_exponent": (results["max_exponent"][0], tuple(canonical(results["max_exponent"][1]))),
        "list_repetitions 2+": [tuple(canonical(o)) for o in results["list_repetitions 2+"]],
    }
    for query in expected:
        if got[query] != expected[query]:
            fail(f"{label} {query}: package {got[query]} != oracle {expected[query]}")


def paper_facts(name: str, n: int, word: str, results: dict) -> None:
    periods = {occ.period for occ in results["list_repetitions 2+"]}
    if name in ("t", "s") and not (results["is_power_free 2+"] and results["max_exponent"][0] == 2):
        fail(f"{name}:{n} should be overlap-free with squares")
    if name == "a":
        if not results["is_power_free 7/3"] or results["max_exponent"][0] >= SEVEN_THIRDS:
            fail(f"a:{n} should be 7/3-power-free")
        if n >= 4096 and not {4, 16, 64} <= periods:
            fail(f"a:{n} should have overlaps at periods 4, 16 and 64; saw {sorted(periods)}")
    if name == "wb:01(10)" and not results["is_power_free 7/3"]:
        fail(f"{name}:{n} should be 7/3-power-free")
    if name == "beta:11/5:3":
        beta = Fraction(19, 8)
        if not wordpower.is_power_free(word, beta, plus=True) or results["max_exponent"][0] != beta:
            fail(f"beta:{n} should be 19/8+-power-free with maximal exponent 19/8")
        beta_periods = {o.period for o in wordpower.list_repetitions(word, beta)}
        if n >= 4096 and not {8, 64} <= beta_periods:
            fail(f"beta:{n} should have 19/8 powers at periods 8 and 64; saw {sorted(beta_periods)}")


def run_cli(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def expected_squares(word: str, json_mode: bool) -> str:
    """The squares listing rebuilt from the oracle and the atlas bases."""
    table = reference.atlas_table(len(word))
    lines = []
    for position, square in oracles.squares(word):
        family, level, base = table.get(square, (None, None, None))
        if json_mode:
            lines.append(json.dumps({"kind": "membership", "position": position, "square": square,
                                     "family": family, "level": level, "base": base},
                                    separators=(",", ":")))
        else:
            lines.append(f"pos={position} square={square} family={family or '-'}"
                         + (f" level={level} base={base}" if family else ""))
    return "".join(line + "\n" for line in lines)


def squares_answers() -> dict:
    cases = [(f"{name}:{n}", wordpower.generator(name)(n), [name, str(n)])
             for name, n in SQUARES_WORDS[False] + SQUARES_WORDS[True]]
    for root, n in DENSE_ROOTS[False] + DENSE_ROOTS[True]:
        for variant in (root, root.translate(str.maketrans("01", "10"))):
            word = periodic(variant, n)
            cases.append((f"dense:{variant}:{n}", word, [word]))
    out = {}
    for label, word, args in cases:
        code, text = run_cli(["--json", "squares", *args])
        if code != 0 or text != expected_squares(word, json_mode=True):
            fail(f"squares {label}: output differs from the oracle's listing")
        records = [json.loads(line) for line in text.splitlines()]
        if label.startswith("t:") and any(r["family"] != "A" for r in records):
            fail(f"{label}: every square of t should be in family A")
        if label.startswith("s:") and any(r["family"] == "B" and r["position"] for r in records):
            fail(f"{label}: family-B squares of s should occur only at position 0")
        out[label] = {"bytes": len(text), "lines": len(records), "sha256": digest(text)}
    return out


def cli_answers() -> dict:
    code, text = run_cli(["squares", "t", "64"])
    if code != 0 or text != expected_squares(wordpower.word_t(64), json_mode=False):
        fail("squares t 64: output differs from the oracle's listing")
    letters = A_CHECK_LETTERS[False] + A_CHECK_JITTER[False]
    if not reference.is_power_free(wordpower.word_a(letters), SEVEN_THIRDS, plus=False):
        fail(f"the first {letters} letters of a should be 7/3-power-free")
    return {"squares t 64": {"code": code, "sha256": digest(text)}, "a_7/3_free_letters": letters}


def verify_answers() -> dict:
    out = {}
    for name in verify.suite_names():
        result = verify.run_suite(name)
        if not result.passed:
            fail(f"verify suite {name} fails: {result.detail}")
        out[name] = result.detail
    return out


def main() -> int:
    answers = {"scan": scan_answers(), "squares": squares_answers(),
               "verify": verify_answers(), "cli": cli_answers()}
    ANSWERS.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n", encoding="ascii")
    print(f"wrote {ANSWERS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
