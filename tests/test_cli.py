import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

import oracles
from wordpower import atlas, cli, generator, squares_in, word_t
from wordpower.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line]


def test_gen_examples(capsys):
    code, out, _ = run_cli(capsys, "gen", "t", "16")
    assert (code, out.strip()) == (0, "0110100110010110")
    code, out, _ = run_cli(capsys, "gen", "a", "9")
    assert (code, out.strip()) == (0, "001100110")
    code, out, _ = run_cli(capsys, "gen", "beta:11/5:3", "2")
    assert (code, out.strip()) == (0, "00")


def test_gen_unknown_generator_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "gen", "nosuch", "8")
    assert code == 2
    assert "unknown generator" in err


def test_gen_cap_exceeded_is_resource_error(capsys):
    code, _, err = run_cli(capsys, "--cap", "100", "gen", "t", "200")
    assert code == 3
    assert "cap" in err


def test_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("WORDPOWER_CAP", "50")
    code, _, err = run_cli(capsys, "gen", "t", "100")
    assert code == 3
    # explicit flag wins over the environment
    code, out, _ = run_cli(capsys, "--cap", "200", "gen", "t", "100")
    assert code == 0 and len(out.strip()) == 100


# "\uff11\uff16" is a full-width 16, "\u0663" an Arabic-Indic 3: digits to
# str.isdecimal, not to the cap.
@pytest.mark.parametrize("argv", [["--cap", "0"], ["--cap", "-5"], ["--cap", "abc"], ["--cap", "\uff11\uff16"]])
def test_bad_cap_flag_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main([*argv, "gen", "t", "4"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "cap" in err and "Traceback" not in err
    assert f"must be a positive integer, got {argv[1]!r}" in err


# int() takes any Unicode digit, "_" between digits and a sign; the
# lengths and s take ASCII digits only, as the cap does.
@pytest.mark.parametrize(
    "argv, usage",
    [
        (["gen", "t", "\u0663"], "wordpower gen: error: argument length: length must be a nonnegative integer, got '\u0663'"),
        (["gen", "t", "\uff11\uff16"], "wordpower gen: error: argument length: length must be a nonnegative integer, got '\uff11\uff16'"),
        (["gen", "t", "1_0"], "wordpower gen: error: argument length: length must be a nonnegative integer, got '1_0'"),
        (["gen", "t", "+3"], "wordpower gen: error: argument length: length must be a nonnegative integer, got '+3'"),
        (["squares", "t", "\u0668"], "wordpower squares: error: argument length: length must be a nonnegative integer, got '\u0668'"),
        (["beta", "11/5", "\u0663"], "wordpower beta: error: argument s: s must be a nonnegative integer, got '\u0663'"),
    ],
    ids=["gen-arabic-3", "gen-fullwidth-16", "gen-underscore", "gen-plus", "squares-arabic-8", "beta-arabic-s"],
)
def test_integer_positionals_take_ascii_digits_only(capsys, argv, usage):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: ") and err.endswith(f"\n{usage}\n")


@pytest.mark.parametrize("value", ["abc", "0", "-5", "\uff11\uff16", "1\u0663"])
def test_bad_cap_env_is_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("WORDPOWER_CAP", value)
    with pytest.raises(SystemExit) as info:
        main(["gen", "t", "4"])
    assert info.value.code == 2
    assert "WORDPOWER_CAP" in capsys.readouterr().err
    # an explicit flag replaces the environment value
    assert run_cli(capsys, "--cap", "9", "gen", "t", "4")[:2] == (0, "0110\n")


def test_check_free_word(capsys):
    code, out, _ = run_cli(capsys, "check", "001100110", "7/3")
    assert code == 0
    assert out.startswith("free")


def test_check_not_free_with_witness(capsys):
    code, out, _ = run_cli(capsys, "--json", "check", "--witness", "001100110", "2+")
    assert code == 1
    check, witness = json_lines(out)
    assert check == {
        "kind": "check",
        "word_length": 9,
        "threshold": "2/1+",
        "free": False,
    }
    assert witness == {
        "kind": "occurrence",
        "start": 0,
        "period": 4,
        "length": 9,
        "exponent": "9/4",
    }


def test_check_trivial_cube(capsys):
    code, out, _ = run_cli(capsys, "--json", "check", "--witness", "000", "2+")
    assert code == 1
    _, witness = json_lines(out)
    assert (witness["start"], witness["period"], witness["length"]) == (0, 1, 3)


def test_check_malformed_inputs(capsys):
    assert run_cli(capsys, "check", "0012", "2")[0] == 2
    assert run_cli(capsys, "check", "0011", "x")[0] == 2
    assert run_cli(capsys, "check", "0011", "1/2")[0] == 2


@pytest.mark.parametrize(
    "argv, line",
    [
        (["check", "0011", "x"], "error: malformed exponent 'x'; expected 'p/q' or 'n'"),
        (["check", "0011", "1/2"], "error: threshold must be at least 1"),
        (["check", "0011", "2/0"], "error: malformed exponent '2/0'; zero denominator"),
        (["factorize", "00110011", "--threshold", "x"], "error: malformed exponent 'x'; expected 'p/q' or 'n'"),
        (["beta", "x", "3"], "error: malformed exponent 'x'; expected 'p/q' or 'n'"),
        (["check", "0110", "\u0663"], "error: malformed exponent '\u0663'; expected 'p/q' or 'n'"),
        (["check", "0110", "7/\u0663+"], "error: malformed exponent '7/\u0663'; expected 'p/q' or 'n'"),
        (["beta", "\uff11\uff11/5", "3"], "error: malformed exponent '\uff11\uff11/5'; expected 'p/q' or 'n'"),
    ],
    ids=["check-x", "check-1/2", "check-2/0", "factorize-x", "beta-x", "check-arabic-3", "check-7/arabic-3+", "beta-fullwidth"],
)
def test_malformed_exponent_error_lines(capsys, argv, line):
    assert run_cli(capsys, *argv) == (2, "", line + "\n")


def test_word_file_input(capsys, tmp_path):
    path = tmp_path / "word.txt"
    path.write_text("001100110\n")
    code, out, _ = run_cli(capsys, "check", f"@{path}", "7/3")
    assert (code, out.strip().startswith("free")) == (0, True)
    code, _, _ = run_cli(capsys, "check", str(path), "2+")
    assert code == 1
    code, _, err = run_cli(capsys, "check", f"@{tmp_path / 'missing'}", "2")
    assert code == 2


def test_word_file_with_a_foreign_byte(capsys, tmp_path):
    # Reported like any foreign letter, with its index and the file.
    path = tmp_path / "word.txt"
    path.write_bytes(b"0110\xab1\n")
    code, out, err = run_cli(capsys, "check", f"@{path}", "2")
    assert (code, out) == (2, "")
    assert err == f"error: word file {str(path)!r}: invalid character '\xab' at index 4; expected one of '01'\n"


def test_squares_of_generator(capsys):
    code, out, _ = run_cli(capsys, "--json", "squares", "t", "8")
    assert code == 0
    rows = json_lines(out)
    assert [(r["position"], r["square"], r["family"]) for r in rows] == [
        (1, "11", "A"),
        (2, "1010", "A"),
        (5, "00", "A"),
    ]


def test_squares_of_literal_word(capsys):
    code, out, _ = run_cli(capsys, "squares", "01")
    assert (code, out) == (0, "")


def test_squares_of_s_includes_prefix_family_line(capsys):
    code, out, _ = run_cli(capsys, "--json", "squares", "s", "12")
    rows = json_lines(out)
    # sorted by (position, length): the length-2 square at 0 comes first,
    # the prefix-family element right after it
    assert (rows[0]["position"], rows[0]["square"], rows[0]["family"]) == (0, "00", "A")
    assert (rows[1]["position"], rows[1]["square"], rows[1]["family"]) == (
        0,
        "001001",
        "B",
    )


def test_squares_generator_requires_length(capsys):
    code, _, err = run_cli(capsys, "squares", "t")
    assert code == 2
    assert "length" in err


def test_squares_length_after_a_word_is_usage_error(capsys, tmp_path):
    path = tmp_path / "word.txt"
    path.write_text("0110\n")
    for source in ("0110", f"@{path}", str(path)):
        code, out, err = run_cli(capsys, "squares", source, "5")
        assert (code, out) == (2, ""), source
        assert err.startswith("error:") and "length" in err


KNOWN_GENERATORS = "t, s, a, a-automatic, wb:<bits>, beta:<alpha>:<s>"


@pytest.mark.parametrize(
    "argv, line",
    [
        (["squares", "beta:11/5", "64"], "error: malformed beta generator 'beta:11/5'; expected 'beta:<alpha>:<s>'"),
        (["gen", "beta:5/2:3e2", "4"], "error: malformed beta generator 'beta:5/2:3e2'; expected 'beta:<alpha>:<s>'"),
        (["gen", "beta:5/2:\u0663", "4"], "error: malformed beta generator 'beta:5/2:\u0663'; expected 'beta:<alpha>:<s>'"),
        (["squares", "wb:0(x)", "64"], "error: malformed bit spec '0(x)'; expected like '01(10)'"),
        (["gen", "wb:0(1)\n", "4"], "error: malformed bit spec '0(1)\\n'; expected like '01(10)'"),
        (["squares", "0110", "5"], "error: a prefix length applies only to a generator input"),
        (["squares", "t"], "error: a generator input needs a prefix length"),
        (["gen", "nope", "3"], f"error: unknown generator 'nope'; known: {KNOWN_GENERATORS}"),
    ],
    ids=[
        "squares-beta", "gen-beta-s", "gen-beta-arabic-s", "squares-wb", "gen-wb-newline", "squares-word", "squares-t",
        "gen-nope",
    ],
)
def test_generator_input_error_lines(capsys, argv, line):
    # A malformed spec name reports its own parse error, not the length rule.
    assert run_cli(capsys, *argv) == (2, "", line + "\n")


def test_gen_help_lists_the_names_of_the_unknown_generator_error(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")  # one help line per argument
    with pytest.raises(SystemExit) as info:
        main(["gen", "--help"])
    assert info.value.code == 0
    (line,) = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  name ")]
    err = run_cli(capsys, "gen", "nope", "3")[2]
    assert line.split(None, 1)[1] == err.rstrip("\n").split("; known: ")[1] == KNOWN_GENERATORS


def per_line_squares_stdout(word, json_mode):
    """What `squares` printed with one json.dumps or f-string and one
    print per square, classified by decoding one level at a time."""
    lines = []
    for position, square in squares_in(word):
        family, level, base = oracles.atlas_membership(square) or (None, None, None)
        report = {
            "kind": "membership",
            "position": position,
            "square": square,
            "family": family,
            "level": level,
            "base": base,
        }
        human = f"pos={position} square={square} family={family or '-'}" + (
            f" level={level} base={base}" if family else ""
        )
        lines.append(json.dumps(report, separators=(",", ":")) if json_mode else human)
    return "".join(line + "\n" for line in lines)


SQUARES_INPUTS = [
    ["t", "4096"],
    ["s", "4096"],
    ["01" * 20],
    ["001" * 15],
    ["0010" * 12],
    ["01101" * 12],
    ["00110011"],
    ["001001" + word_t(58)],
]


@pytest.mark.parametrize("batch", [cli._SQUARES_BATCH, 7])
@pytest.mark.parametrize("json_mode", [False, True])
@pytest.mark.parametrize("source", SQUARES_INPUTS, ids=lambda a: ":".join(a)[:24])
def test_squares_output_matches_per_line_printing(capsys, monkeypatch, source, json_mode, batch):
    monkeypatch.setattr(cli, "_SQUARES_BATCH", batch)
    word = generator(source[0])(int(source[1])) if len(source) == 2 else source[0]
    flag = ["--json"] if json_mode else []
    code, out, err = run_cli(capsys, *flag, "squares", *source)
    assert (code, err) == (0, "")
    assert out == per_line_squares_stdout(word, json_mode)


def test_squares_output_covers_every_kind_of_line(capsys):
    _, out, _ = run_cli(capsys, "--json", "squares", "001001" + word_t(58))
    assert {row["family"] for row in json_lines(out)} == {"A", "B"}
    _, out, _ = run_cli(capsys, "squares", "00110011")
    assert "pos=0 square=00110011 family=-\n" in out


@pytest.mark.parametrize("json_mode", [False, True])
@pytest.mark.parametrize(
    "word, later_halves",
    [("0" * 40, False), ("01" * 20, False), ("001001" + word_t(58), True)],
    ids=["0^40", "(01)^20", "001001t"],
)
def test_squares_output_across_blocks(capsys, monkeypatch, word, later_halves, json_mode):
    # Blocks of about 5 squares (one position at least) in batches of 7
    # lines; a half length that first appears after the first block needs
    # its tails prepared then.
    monkeypatch.setattr(atlas, "_SQUARES_BLOCK", 5)
    monkeypatch.setattr(cli, "_SQUARES_BATCH", 7)
    first, *later = [set(halves.tolist()) for _, halves in atlas._square_blocks(word)]
    assert len(later) > 3
    assert (not set().union(*later) <= first) == later_halves
    code, out, err = run_cli(capsys, *(["--json"] if json_mode else []), "squares", word)
    assert (code, err) == (0, "")
    assert out == per_line_squares_stdout(word, json_mode)


class CountingSink(io.TextIOBase):
    """stdout replacement that keeps only a byte count and a sha256."""

    def __init__(self):
        self.bytes = 0
        self.sha256 = hashlib.sha256()

    def writable(self):
        return True

    def write(self, text):
        data = text.encode("ascii")
        self.bytes += len(data)
        self.sha256.update(data)
        return len(text)


def test_squares_at_the_length_cap():
    sink = CountingSink()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = main(["--json", "squares", "t", str(1 << 20)])
    seconds = time.perf_counter() - start
    print(f"--json squares t 2^20: {sink.bytes:,} bytes in {seconds:.2f} s")
    assert (code, sink.bytes) == (0, 97_521_923)
    assert sink.sha256.hexdigest() == "003d8fd2f3744276f90dbcafddedbf6e5dd3a4dfa505330e13cbb0239d95ad06"
    assert seconds < 10, f"took {seconds:.1f} s"


def test_squares_emit_peak_memory():
    # 90,000 squares of up to 600 letters, 20 MB of lines, in two blocks:
    # a batch of lines is small next to the block's arrays (3.06 MiB in
    # all), a whole block or the whole output joined at once is not.
    with contextlib.redirect_stdout(CountingSink()):
        main(["squares", "0" * 16])  # the modules' own allocations come first
        tracemalloc.start()
        try:
            assert main(["squares", "0" * 600]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    print(f"squares 0^600 traced peak {peak / 2**20:.2f} MiB")
    assert peak < 4 << 20, f"peaked at {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "01101001100101101", "2+"],
        ["squares", "01101001100101101"],
        ["factorize", "01101001100101101"],
    ],
)
def test_cap_applies_to_input_words(capsys, monkeypatch, argv):
    assert run_cli(capsys, "--cap", "4", *argv) == (3, "", "error: requested 17 letters, cap is 4\n")
    monkeypatch.setenv("WORDPOWER_CAP", "16")
    assert run_cli(capsys, *argv) == (3, "", "error: requested 17 letters, cap is 16\n")
    assert run_cli(capsys, "--cap", "17", *argv)[0] in (0, 1)


def test_cap_applies_to_word_files(capsys, tmp_path):
    word = "01101001100101101"
    path = tmp_path / "word.txt"
    path.write_text(word + "\r\n")
    # a line break after the letters does not count against the cap
    assert run_cli(capsys, "--cap", "17", "check", f"@{path}", "2+")[0] == 0
    code, out, err = run_cli(capsys, "--cap", "16", "squares", str(path))
    assert (code, out, err) == (3, "", "error: requested 17 letters, cap is 16\n")
    # without the line break, the size alone does not decide
    path.write_text(word)
    code, out, err = run_cli(capsys, "--cap", "16", "squares", str(path))
    assert (code, out, err) == (3, "", "error: requested 17 letters, cap is 16\n")
    # a file too large for the cap is refused by its size, unread: the bad
    # letter in it would otherwise be a usage error
    path.write_text(word + "2" + "0" * 100 + "\n")
    code, out, err = run_cli(capsys, "--cap", "16", "factorize", f"@{path}")
    assert (code, out, err) == (3, "", "error: requested 118 letters, cap is 16\n")
    path.write_bytes(b"\xff" * 19)
    code, out, err = run_cli(capsys, "--cap", "16", "check", f"@{path}", "2")
    assert (code, out, err) == (3, "", "error: requested 19 letters, cap is 16\n")
    assert run_cli(capsys, "--cap", "19", "check", f"@{path}", "2")[0] == 2


def test_word_file_that_is_not_regular_is_read_to_the_cap_only(capsys, tmp_path, monkeypatch):
    # A FIFO reports size 0, so only the bytes read can refuse it.
    fifo = tmp_path / "word"
    os.mkfifo(fifo)
    unsent = []

    def feed():
        fd, data = os.open(fifo, os.O_WRONLY), memoryview(b"0" * (1 << 20))
        try:
            while data:
                data = data[os.write(fd, data) :]
        except BrokenPipeError:
            pass
        finally:
            os.close(fd)
            unsent.append(len(data))

    read = []

    class Counted(io.BufferedReader):
        def read(self, size=-1):
            read.append(len(data := super().read(size)))
            return data

    monkeypatch.setattr(cli, "open", lambda path, mode: Counted(io.FileIO(path, mode)), raising=False)
    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    code, out, err = run_cli(capsys, "--cap", "64", "check", f"@{fifo}", "2")
    writer.join(timeout=10)
    assert (code, out, err) == (3, "", f"error: word file {str(fifo)!r} holds more than 64 letters, cap is 64\n")
    assert sum(read) <= 67
    assert unsent and unsent[0] > 0  # the writer was cut off, not drained


def test_factorize_canonical_first(capsys):
    code, out, _ = run_cli(capsys, "--json", "factorize", "00110011")
    rows = json_lines(out)
    assert code == 0
    assert rows[0] == {"kind": "factorization", "u": "0", "y": "010", "v": "1"}


def test_factorize_rejects_non_free_word(capsys):
    code, _, err = run_cli(capsys, "factorize", "0000")
    assert code == 2


def test_beta_params_output(capsys):
    code, out, _ = run_cli(capsys, "--json", "beta", "11/5", "3")
    assert code == 0
    assert json_lines(out) == [
        {"kind": "params", "alpha": "11/5", "s": 3, "r": 3, "t": 5, "beta": "19/8"}
    ]


@pytest.mark.parametrize("argv", [["beta", "11/5"], ["gen", "beta:11/5:{s}", "1"]], ids=["beta", "gen"])
def test_beta_block_beyond_the_cap_is_resource_error(capsys, argv):
    # 2^20000 has over 4300 digits, Python's limit for printing an int.
    for s in (20000, 21):
        args = [arg.format(s=s) for arg in argv] + ([str(s)] if argv[0] == "beta" else [])
        assert run_cli(capsys, *args) == (3, "", f"error: requested 2^{s} letters, cap is 1048576\n")
    args = [arg.format(s=4) for arg in argv] + (["4"] if argv[0] == "beta" else [])
    assert run_cli(capsys, "--cap", "15", *args) == (3, "", "error: requested 2^4 letters, cap is 15\n")
    assert run_cli(capsys, "--cap", "16", *args)[0] == 0


def test_beta_with_a_huge_s_returns_at_once(capsys):
    # 2^(10^10) would take over 1 GB to build as a Python integer.
    start = time.perf_counter()
    for argv in (["beta", "11/5", str(10**10)], ["gen", f"beta:11/5:{10**10}", "1"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "") and err.startswith("error: requested 2^10000000000 letters")
    assert time.perf_counter() - start < 1.0


def test_beta_no_valid_t_reports_failure(capsys):
    code, _, err = run_cli(capsys, "beta", "29/10", "3")
    assert code == 1
    assert "no valid drop length" in err


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "--json", "verify", "extend")
    assert code == 0
    (row,) = json_lines(out)
    assert row["kind"] == "verdict" and row["suite"] == "extend" and row["passed"]
    assert "seconds" in row


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "nosuch")
    assert code == 2
    assert "unknown suite" in err


def test_verify_unknown_suite_error_is_one_line(capsys):
    code, out, err = run_cli(capsys, "verify", "extend", "no\nsuch", "nosuch")
    assert (code, out, err) == (2, "", "error: unknown suite: 'no\\nsuch', nosuch\n")


def test_verify_multiple_suites(capsys):
    code, out, _ = run_cli(capsys, "verify", "extend", "fact")
    assert code == 0
    assert len(out.splitlines()) == 2


def test_human_and_json_outputs_carry_same_information(capsys):
    _, human, _ = run_cli(capsys, "check", "--witness", "001100110", "2+")
    _, machine, _ = run_cli(capsys, "--json", "check", "--witness", "001100110", "2+")
    rows = json_lines(machine)
    assert "not free" in human
    assert str(rows[1]["start"]) in human and rows[1]["exponent"] in human


def test_module_entry_point_runs():
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-m", "wordpower", "gen", "t", "8"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "01101001"


@pytest.mark.parametrize(
    "argv, head, expected",
    [
        (["--json", "verify", "all"], ["head", "-2"], lambda out: [r["suite"] for r in json_lines(out)] == ["tmmorph", "shur"]),
        (["squares", "0" * 300], ["head", "-1"], lambda out: out == "pos=0 square=00 family=A level=0 base=00\n"),
        (["gen", "t", "1048576"], ["head", "-c", "10"], lambda out: out == "0110100110"),
    ],
    ids=["verify", "squares", "gen"],
)
def test_reader_closing_the_pipe_early_exits_1_quietly(argv, head, expected):
    # Line by line output, so that the reader is gone before the writer is
    # done, as in a terminal pipeline.
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p), PYTHONUNBUFFERED="1")
    writer = subprocess.Popen(
        [sys.executable, "-m", "wordpower", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    reader = subprocess.Popen(head, stdin=writer.stdout, stdout=subprocess.PIPE, text=True)
    writer.stdout.close()
    out, _ = reader.communicate(timeout=60)
    assert expected(out)
    assert writer.wait(timeout=60) == 1
    assert writer.stderr.read() == b""
    writer.stderr.close()


def test_verify_all_must_be_given_alone(capsys):
    code, out, err = run_cli(capsys, "verify", "all", "extend")
    assert (code, out) == (2, "")
    assert "'all' runs every suite and must be given alone" in err
    assert "unknown suite" not in err
