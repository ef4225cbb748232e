"""What each command imports, and the package's public surface.

Only the commands that scan load the repetition kernel and numpy; the
rest start without them.  This is visible only in a fresh interpreter,
since numpy is loaded in this one by the time the tests run.
"""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import wordpower
from wordpower import cli, verify

# Imports the package, runs `cli.main(argv)` when argv is given, and prints
# which of numpy and the scanning modules were loaded.
CHILD = """
import contextlib, io, json, sys
import wordpower
if len(sys.argv) > 1:
    from wordpower import cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(sys.argv[1:])
        except SystemExit:
            pass
scanning = ("numpy", "wordpower.repetition", "wordpower.atlas", "wordpower.verify")
print(json.dumps([name for name in scanning if name in sys.modules]))
"""


def loaded_after(argv):
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["gen", "t", "1"],
        ["beta", "11/5", "3"],
        ["check", "0101", "1/2"],
        ["--help"],
        ["verify", "--help"],
        ["verify", "nosuch"],
    ],
    ids=lambda argv: " ".join(argv) or "import wordpower",
)
def test_commands_that_do_not_scan_start_without_numpy(argv):
    assert loaded_after(argv) == []


def test_a_command_that_scans_loads_numpy():
    assert loaded_after(["check", "0110", "2"]) == ["numpy", "wordpower.repetition"]


EXPORTS = {
    "atlas": [
        "AtlasMembership", "FAMILY_A_BASES", "FAMILY_B_BASES", "atlas_members",
        "atlas_membership", "check_extension_lemma", "is_extendable_square",
        "max_overlap_free_extension", "squares_in",
    ],
    "constructions": [
        "BetaParams", "BetaSearchError", "BitSpec", "UnknownGeneratorError", "beta_params",
        "beta_word", "g_b", "generator", "parse_bit_spec", "word_a", "word_a_automatic",
        "word_a_finite", "word_s", "word_t", "word_wb",
    ],
    "exponents": [
        "format_exponent", "format_exponent_spec", "parse_exponent", "parse_exponent_spec",
    ],
    "morphism": [
        "EDGE_WORDS", "F", "Factorization", "G", "H", "MU", "Morphism", "descend_power",
        "factorize", "mu_decode",
    ],
    "repetition": [
        "PowerOccurrence", "exponent_of", "find_power", "is_power_free", "list_repetitions",
        "max_exponent", "smallest_period",
    ],
    "words": [
        "CapExceeded", "DEFAULT_CAP", "WordFormatError", "complement", "conjugates",
        "enumerate_words", "parse_word",
    ],
}


def test_public_names_are_the_submodules_objects():
    assert sorted(wordpower.__all__) == sorted(name for names in EXPORTS.values() for name in names)
    for module, names in EXPORTS.items():
        submodule = import_module(f"wordpower.{module}")
        assert getattr(wordpower, module) is submodule
        for name in names:
            assert getattr(wordpower, name) is getattr(submodule, name), name
    assert set(wordpower.__all__) <= set(dir(wordpower))
    star = {}
    exec("from wordpower import *", star)
    assert all(star[name] is getattr(wordpower, name) for name in wordpower.__all__)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        wordpower.no_such_name
    with pytest.raises(ImportError):
        from wordpower import no_such_name  # noqa: F401


def test_verify_help_lists_every_suite_in_registry_order(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")  # one help line per argument
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--help"])
    assert info.value.code == 0
    (line,) = [line for line in capsys.readouterr().out.splitlines() if "suite names or 'all': " in line]
    assert line.split("suite names or 'all': ")[1].split(", ") == verify.suite_names()
