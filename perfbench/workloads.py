"""The four workloads: their inputs, their operations and the check on
every output.

``build(name, seed, tiny, scope)`` does the set-up (import, input
generation, temp files) and returns a :class:`Workload`.  One *round*
runs every op of the workload once; the loop in ``run.py`` repeats
rounds in a seeded order.  Inputs depend only on the seed, so a round is
the same work every time.

An op returns its output and ``Op.check`` compares it with a stored
answer (``answers.json``, made by ``make_answers.py``) or, for freshly
seeded random inputs, with :mod:`reference`.  A wrong output makes a
failed op, not a crash.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Callable

import reference
from spans import Scope, traced

import wordpower
from wordpower import cli, verify

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
ANSWERS = BENCH_DIR / "answers.json"
CLI_CHILD = BENCH_DIR / "cli_child.py"

SEVEN_THIRDS = Fraction(7, 3)

# Generator prefixes per workload; the tiny sizes serve the self-test.
# Every workload has an odd number of ops per round, so the median latency
# is the middle op's own latency rather than the mean of two different ops.
SCAN_WORDS = {
    False: (("t", 1 << 14), ("s", 1 << 13), ("a", 1 << 13), ("beta:11/5:3", 1 << 12), ("wb:01(10)", 1 << 12)),
    True: (("t", 256), ("s", 256), ("a", 256), ("beta:11/5:3", 256), ("wb:01(10)", 256)),
}
SCAN_RANDOM_SIZES = {False: (1 << 13, 1 << 14), True: (256, 512)}
SQUARES_WORDS = {False: (("t", 4096), ("t", 8192), ("s", 4096)), True: (("t", 128), ("s", 128))}
# Periodic square-dense inputs: (root, length).  The seed picks the root
# or its complement, which changes neither the squares' positions nor
# the classification work nor the output size.
DENSE_ROOTS = {
    False: (("01", 300), ("001", 360), ("0010", 400), ("01101", 450)),
    True: (("01", 40), ("001", 45), ("0010", 48), ("01101", 50)),
}
VERIFY_TINY = ("extend", "automatic", "square", "fact")
# The check input is a prefix of a of A_CHECK_LETTERS plus a seeded
# jitter below A_CHECK_JITTER letters.
A_CHECK_LETTERS = {False: 2048, True: 64}
A_CHECK_JITTER = {False: 256, True: 16}
WITNESS_LETTERS = {False: 1024, True: 32}

SCAN_QUERIES: dict[str, tuple[str, Callable]] = {
    "is_power_free 2+": ("is_power_free", lambda w: wordpower.is_power_free(w, 2, plus=True)),
    "is_power_free 7/3": ("is_power_free", lambda w: wordpower.is_power_free(w, SEVEN_THIRDS)),
    "find_power 2+": ("find_power", lambda w: wordpower.find_power(w, 2, strict=True)),
    "max_exponent": ("max_exponent", wordpower.max_exponent),
    "list_repetitions 2+": ("list_repetitions", lambda w: wordpower.list_repetitions(w, 2, strict=True)),
}
RANDOM_QUERIES = ("is_power_free 2+", "is_power_free 7/3", "find_power 2+")


@dataclass
class Op:
    name: str
    call: Callable[[Scope | None], object]
    check: Callable[[object], str | None]
    # Traced runs only: re-does the op's work layer by layer, outside the op.
    probe: Callable[[Scope], None] | None = None


@dataclass
class Workload:
    ops: list[Op]
    child_rss_kib: list[int] = field(default_factory=list)
    cleanup: Callable[[], None] = lambda: None


def load_answers() -> dict:
    with open(ANSWERS, encoding="ascii") as handle:
        return json.load(handle)


def random_word(tag: str, n: int) -> str:
    return format(random.Random(tag).getrandbits(n), f"0{n}b")


def periodic(root: str, length: int) -> str:
    return (root * (length // len(root) + 1))[:length]


def dense_word(root: str, length: int, seed: int) -> str:
    if random.Random(f"squares/{seed}/{root}").random() < 0.5:
        root = root.translate(str.maketrans("01", "10"))
    return periodic(root, length)


def canonical(result) -> object:
    """A JSON value for a repetition query result, comparable with answers.json."""
    if isinstance(result, (bool, type(None))):
        return result
    if isinstance(result, wordpower.PowerOccurrence):
        return [result.start, result.period, result.length]
    if isinstance(result, tuple):
        exponent, occ = result
        return [f"{exponent.numerator}/{exponent.denominator}", canonical(occ)]
    text = ";".join(f"{o.start},{o.period},{o.length}" for o in result)
    return {"count": len(result), "sha256": digest(text)}


def witnesses(result) -> list:
    if isinstance(result, wordpower.PowerOccurrence):
        return [result]
    if isinstance(result, tuple):
        return [result[1]]
    return result if isinstance(result, list) else []


def _scan_check(word: str, expected: Callable[[], object]):
    seen: list = []

    def check(result) -> str | None:
        got = canonical(result)
        if seen and got == seen[0]:
            return None  # identical to an output already checked in full
        for occ in witnesses(result):
            if not occ.is_valid_in(word):
                return f"invalid witness {occ}"
        want = expected()
        if got != want:
            return f"expected {want}, got {got}"
        seen.append(got)
        return None

    return check


def _stored(table: dict, key: str, query: str | None = None):
    def lookup():
        try:
            entry = table[key]
            return entry if query is None else entry[query]
        except KeyError:
            return f"no stored answer for {key} {query or ''}".strip()

    return lookup


def _build_scan(seed: int, tiny: bool, answers: dict, scope: Scope | None) -> Workload:
    inputs = []
    for name, n in SCAN_WORDS[tiny]:
        make = wordpower.generator(name)
        word = traced(scope, "constructions.generate", lambda: make(n), letters=n, generator=name)
        inputs.append((f"{name}:{n}", word, list(SCAN_QUERIES), False))
    for n in SCAN_RANDOM_SIZES[tiny]:
        inputs.append((f"random:{n}", random_word(f"scan/{seed}/{n}", n), RANDOM_QUERIES, True))
    ops = []
    for label, word, queries, fresh in inputs:
        for query in queries:
            layer_fn, fn = SCAN_QUERIES[query]
            if fresh:
                expected = cache(lambda w=word, q=query: _reference_scan(w, q))
            else:
                expected = _stored(answers["scan"], label, query)
            ops.append(Op(
                name=f"{label} {query}",
                call=lambda s, fn=fn, w=word, span=f"repetition.{layer_fn}":
                    fn(w) if s is None else traced(s, span, lambda: fn(w), letters=len(w)),
                check=_scan_check(word, expected),
            ))
    return Workload(ops)


def _reference_scan(word: str, query: str) -> object:
    if query == "is_power_free 2+":
        return reference.is_power_free(word, Fraction(2), plus=True)
    if query == "is_power_free 7/3":
        return reference.is_power_free(word, SEVEN_THIRDS, plus=False)
    found = reference.find_power(word, Fraction(2), strict=True)
    return None if found is None else list(found)


class _Sink(io.TextIOBase):
    """stdout replacement that keeps only a byte count and a digest."""

    def __init__(self) -> None:
        self.bytes = 0
        self._hash = hashlib.sha256()

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        data = text.encode("ascii")
        self.bytes += len(data)
        self._hash.update(data)
        return len(text)

    def digest(self) -> str:
        return self._hash.hexdigest()


def _run_main(argv: list[str], scope: Scope | None) -> tuple[int, int, str]:
    sink = _Sink()
    if scope is None:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
    else:
        with scope.span("cli.main") as counts:
            with contextlib.redirect_stdout(sink):
                code = cli.main(argv)
            counts["stdout_bytes"] = sink.bytes
    return code, sink.bytes, sink.digest()


def _squares_probe(word_of: Callable[[Scope], str]) -> Callable[[Scope], None]:
    def probe(scope: Scope) -> None:
        word = word_of(scope)
        with scope.span("atlas.squares_in") as counts:
            found = wordpower.squares_in(word)
            counts["squares"] = len(found)
        with scope.span("atlas.classify") as counts:
            members = [wordpower.atlas_membership(square) for _, square in found]
            counts["classified"] = len(members)
            counts["in_atlas"] = sum(m.in_atlas for m in members)

    return probe


def _build_squares(seed: int, tiny: bool, answers: dict, scope: Scope | None) -> Workload:
    cases = []
    for name, n in SQUARES_WORDS[tiny]:
        make = wordpower.generator(name)
        word_of = lambda s, make=make, n=n, name=name: traced(
            s, "constructions.generate", lambda: make(n), letters=n, generator=name)
        cases.append((f"{name}:{n}", ["--json", "squares", name, str(n)], word_of))
    for root, n in DENSE_ROOTS[tiny]:
        word = dense_word(root, n, seed)
        cases.append((f"dense:{word[:len(root)]}:{len(word)}", ["--json", "squares", word],
                      lambda s, word=word: word))
    ops = []
    for label, argv, word_of in cases:
        expected = _stored(answers["squares"], label)

        def check(result, expected=expected) -> str | None:
            want = expected()
            if isinstance(want, str):
                return want
            got = dict(zip(("code", "bytes", "sha256"), result))
            want = {"code": 0, "bytes": want["bytes"], "sha256": want["sha256"]}
            return None if got == want else f"expected {want}, got {got}"

        ops.append(Op(f"squares {label}", lambda s, argv=argv: _run_main(argv, s), check,
                      probe=_squares_probe(word_of)))
    return Workload(ops)


def _build_verify(seed: int, tiny: bool, answers: dict, scope: Scope | None) -> Workload:
    def call(s, name):
        if s is None:
            return verify.run_suite(name)
        with s.span(f"verify.{name}") as counts:
            result = verify.run_suite(name)
            counts["passed"] = result.passed
        return result

    ops = []
    for name in VERIFY_TINY if tiny else verify.suite_names():
        expected = _stored(answers["verify"], name)

        def check(result, expected=expected) -> str | None:
            if not result.passed:
                return f"suite failed: {result.detail}"
            want = expected()
            return None if result.detail == want else f"expected {want!r}, got {result.detail!r}"

        ops.append(Op(f"verify {name}", lambda s, name=name: call(s, name), check))
    return Workload(ops)


def _format_exponent(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _build_cli(seed: int, tiny: bool, answers: dict, scope: Scope | None) -> Workload:
    rng = random.Random(f"cli/{seed}")
    tmp = OUT_DIR / f"cli-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    report = tmp / "report.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    a_letters = A_CHECK_LETTERS[tiny] + rng.randrange(A_CHECK_JITTER[tiny])
    a_file = tmp / "a.txt"
    a_file.write_text(wordpower.word_a(a_letters), encoding="ascii")
    witness_word = random_word(f"cli/{seed}/witness", WITNESS_LETTERS[tiny])
    offset = rng.randrange(256)
    factor = wordpower.word_a(offset + 64)[offset : offset + 32 + rng.randrange(32)]
    bad = random_word(f"cli/{seed}/usage", 8)

    def expect_witness() -> tuple[int, str]:
        found = reference.find_power(witness_word, Fraction(2), strict=True)
        lines = [{"kind": "check", "word_length": len(witness_word), "threshold": "2/1+",
                  "free": found is None}]
        if found is not None:
            start, period, length = found
            lines.append({"kind": "occurrence", "start": start, "period": period, "length": length,
                          "exponent": _format_exponent(Fraction(length, period))})
        text = "".join(json.dumps(line, separators=(",", ":")) + "\n" for line in lines)
        return (0 if found is None else 1), digest(text)

    def expect_factorize() -> tuple[int, str]:
        lines = [f"u={u or 'e'} y={y or 'e'} v={v or 'e'}\n"
                 for u, y, v in reference.factorizations(factor, SEVEN_THIRDS)]
        return 0, digest("".join(lines))

    def expect_text(code: int, text: str):
        return lambda: (code, digest(text))

    stored = answers["cli"].get("squares t 64", {})
    if a_letters > answers["cli"]["a_7/3_free_letters"]:
        raise ValueError("the check input is longer than the stored 7/3-freeness fact covers")
    commands = [
        (["gen", "t", "1"], expect_text(0, "0\n")),
        (["check", f"@{a_file}", "7/3"], expect_text(0, f"free (threshold 7/3, {a_letters} letters)\n")),
        (["--json", "check", "--witness", witness_word, "2+"], cache(expect_witness)),
        (["factorize", factor], cache(expect_factorize)),
        (["beta", "11/5", "3"], expect_text(0, "r=3 t=5 beta=19/8 (alpha=11/5, s=3)\n")),
        (["squares", "t", "64"], lambda: (stored.get("code"), stored.get("sha256"))),
        (["check", bad, "1/2"], expect_text(2, "error: threshold must be at least 1\n")),
    ]
    workload = Workload([])

    def call(s: Scope | None, argv: list[str]) -> tuple[int, str]:
        if s is None:
            code, out, rss = _run_process([sys.executable, "-m", "wordpower", *argv], env)
        else:
            with s.span("cli.process"):
                code, out, rss = _run_process([sys.executable, str(CLI_CHILD), str(report), *argv], env)
            times = json.loads(report.read_text(encoding="ascii"))
            s.add("cli.import", *times["import"])
            s.add("cli.main", *times["main"], stdout_bytes=len(out))
        workload.child_rss_kib.append(rss)
        return code, out

    for argv, expected in commands:
        def check(result, expected=expected) -> str | None:
            code, out = result
            want = expected()
            return None if (code, digest(out)) == want else f"expected {want}, got {code} {out[:200]!r}"

        workload.ops.append(Op("cli " + " ".join(a if len(a) < 24 else a[:8] + "..." for a in argv),
                               lambda s, argv=argv: call(s, argv), check))
    workload.cleanup = lambda: shutil.rmtree(tmp, ignore_errors=True)
    return workload


def _run_process(cmd: list[str], env: dict) -> tuple[int, str, int]:
    """Exit code, merged stdout and stderr, and peak RSS in KiB of one child."""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          env=env, cwd=ROOT) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode("ascii", "replace"), usage.ru_maxrss


def build(name: str, seed: int, tiny: bool, scope: Scope | None = None) -> Workload:
    builders = {"scan": _build_scan, "squares": _build_squares,
                "verify": _build_verify, "cli": _build_cli}
    return builders[name](seed, tiny, load_answers(), scope)
