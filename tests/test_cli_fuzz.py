"""Argv fuzz: whatever the arguments, the CLI ends with a documented exit
code (0/1/2/3) and writes nothing to stderr but `error:` lines or
argparse's usage report, never a traceback.

Tokens are drawn from the command names, flags, words, generator specs,
exponents, word files and junk; the length cap is small, so no case
runs long.  `verify` gets only its cheapest suites, never `all`.
"""

import contextlib
import io
import re

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from wordpower.cli import main

CAP = "64"

WORDS = ["0", "1", "01", "0110", "001100110", "0110100110010110", "00000", "0012", "", " 01"]
SPECS = ["t", "s", "a", "a-automatic", "wb:01(10)", "wb:(1)", "wb:(", "wb:", "beta:11/5:3",
         "beta:3:3", "beta:x", "nosuch"]
NUMBERS = ["0", "3", "8", "64", "65", "-1", "x"]
EXPONENTS = ["2", "2+", "7/3", "7/3+", "5/2", "1", "1/2", "0/0", "3/0", "11/5", "29/10", "1e3",
             "2++", "x"]
SUITES = ["extend", "automatic", "beta", "finite-overlaps", "all", "nosuch"]
FLAGS = ["--json", "--cap", "8", "-h", "--help", "--", "-x", "--witness", "--threshold"]

# The arguments of each command, position by position; a case keeps a
# prefix of them, each replaced by junk one time in five, and may add junk.
ARGS = {
    "gen": (SPECS, NUMBERS),
    "check": ("words", EXPONENTS, ["--witness"]),
    "squares": ("words", NUMBERS),
    "factorize": ("words", ["--threshold"], EXPONENTS),
    "beta": (EXPONENTS, NUMBERS),
    "verify": (SUITES, SUITES),
}


# Word files, by name relative to the folder the test runs in.
FILES = {"free": "001100110\n", "overlap": "01010\r\n", "bad": "0120\n", "long": "01" * 40}
WORD_FILES = [prefix + name for prefix in ("", "@") for name in [*FILES, "missing"]]


@pytest.fixture
def in_word_folder(monkeypatch, tmp_path):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)


@st.composite
def argvs(draw):
    junk = st.one_of(st.sampled_from(WORDS + SPECS + NUMBERS + FLAGS), st.text(max_size=8))
    command = draw(st.sampled_from([*ARGS, "nosuch", ""]), label="command")
    args = []
    for pool in ARGS.get(command, ()):
        pool = [*WORDS, *SPECS, *WORD_FILES] if pool == "words" else pool
        args.append(draw(junk if draw(st.integers(0, 4)) == 4 else st.sampled_from(pool)))
    args = args[: len(args) - draw(st.integers(0, len(args)))] + draw(st.lists(junk, max_size=1))
    assume(command != "verify" or "all" not in args)  # every suite: seconds a case
    return draw(st.lists(st.sampled_from(FLAGS), max_size=1)) + [command, *args]


USAGE_ERROR_LINE = re.compile(r"^wordpower( [a-z]+)?: error: ", re.MULTILINE)


# A second "--" gives a one-value positional the value [] in Python 3.11's argparse.
@example(argv=["gen", "t", "--", "--"])
@example(argv=["check", "0110", "--", "--"])
@example(argv=["beta", "3", "--", "--"])
# A beta generator's padding 0^(r-2) once had r - 2 letters in full.
@example(argv=["gen", "beta:100000000000000000000/3:3", "5"])
@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs())
def test_any_argv_ends_in_a_documented_exit_code(monkeypatch, in_word_folder, argv):
    monkeypatch.setenv("WORDPOWER_CAP", CAP)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: help (0) and usage errors (2)
            code = exc.code
            assert code in (0, 2), argv
            if code == 2:
                text = err.getvalue()
                assert text.startswith("usage: ") and USAGE_ERROR_LINE.search(text), argv
                return
    assert code in (0, 1, 2, 3), argv
    # Split on line feeds only: an echoed argument may hold other line breaks.
    assert all(line.startswith("error: ") for line in err.getvalue().split("\n")[:-1]), argv
