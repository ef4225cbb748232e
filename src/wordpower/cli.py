"""Command-line front door.

Commands: gen, check, squares, factorize, beta, verify.  Every command
emits one report per line; ``--json`` switches to JSON-lines with the
same information.  Exit codes: 0 success/free, 1 not-free or failed
verification (or a failed beta search), 2 usage error, 3 length cap
exceeded.  The env var WORDPOWER_CAP overrides the default length cap;
``--cap`` overrides both.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from typing import TYPE_CHECKING

from .constructions import _GENERATOR_NAMES, BetaSearchError, _is_generator_name, beta_params, generator
from .exponents import format_exponent, format_exponent_spec, parse_exponent, parse_exponent_spec
from .morphism import factorize
from .words import DEFAULT_CAP, CapExceeded, WordFormatError, check_cap, parse_word

# The modules that scan (repetition, atlas, verify) load numpy, so each
# command imports them only once its arguments are checked: `gen`, `beta`,
# help and usage errors start without them.
if TYPE_CHECKING:
    from .atlas import AtlasMembership
    from .repetition import PowerOccurrence

# `verify.suite_names()` in registry order, so that `verify --help` need
# not load the suites.
_SUITE_NAMES = (
    "tmmorph", "shur", "stronger", "fact", "pansiot", "square", "conj", "extend", "main",
    "finite-overlaps", "infinite", "uncount", "automatic", "beta",
)

_LITERAL_WORD_RE = re.compile(r"[01]+")

# A word file may end in a line break ("\r\n" at most) beyond its letters.
_LINE_BREAK_BYTES = 2

# `squares` writes its lines in batches of this many, one join and one
# write a batch: few enough that a batch of long squares stays small next
# to the square arrays.
_SQUARES_BATCH = 1024

USAGE_ERROR = 2
CAP_ERROR = 3


class _UsageError(ValueError):
    pass


def _emit(report: dict, human: str, json_mode: bool) -> None:
    print(json.dumps(report, separators=(",", ":")) if json_mode else human)


def _occurrence_report(occ: PowerOccurrence) -> dict:
    return {
        "kind": "occurrence",
        "start": occ.start,
        "period": occ.period,
        "length": occ.length,
        "exponent": format_exponent(occ.exponent),
    }


def _read_word_argument(arg: str, cap: int) -> str:
    """A pure 0/1 token is a literal word; '@path' forces a file read;
    otherwise an existing file is read (one ASCII word per file).

    A word longer than ``cap`` raises :class:`CapExceeded`; a file is
    refused, before its word is read, when it holds more than ``cap``
    letters besides a final line break: by its size when it is a regular
    file, else once more than cap + 2 bytes come from it.
    """
    if arg.startswith("@"):
        path = arg[1:]
    elif _LITERAL_WORD_RE.fullmatch(arg):
        check_cap(len(arg), cap)
        return arg
    elif os.path.isfile(arg):
        path = arg
    else:
        raise _UsageError(f"not a binary word and not a file: {arg!r}")
    try:
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            if size - _LINE_BREAK_BYTES > cap:
                # Count the letters as the size less the line break it ends in.
                handle.seek(size - _LINE_BREAK_BYTES)
                check_cap(size - _LINE_BREAK_BYTES + len(handle.read().rstrip()), cap)
            # A pipe or device reports size 0: read no more than the cap allows.
            text = handle.read(cap + _LINE_BREAK_BYTES + 1)
            if len(text) > cap + _LINE_BREAK_BYTES:
                raise CapExceeded(f"word file {path!r} holds more than {cap} letters, cap is {cap}")
            # Latin-1 decodes each byte to one character, so that a foreign
            # byte is reported like any foreign letter, at its index.
            word = parse_word(text.strip().decode("latin-1"))
    except OSError as exc:
        raise _UsageError(f"cannot read word file {path!r}: {exc}") from None
    except WordFormatError as exc:
        raise _UsageError(f"word file {path!r}: {exc}") from None
    check_cap(len(word), cap)
    return word


def _cmd_gen(args: argparse.Namespace) -> int:
    prefix = generator(args.name, cap=args.cap)(args.length)
    _emit(
        {"kind": "word", "generator": args.name, "n": args.length, "word": prefix},
        prefix,
        args.json,
    )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    word = _read_word_argument(args.word, args.cap)
    threshold, plus = parse_exponent_spec(args.exponent)
    if threshold < 1:
        raise _UsageError("threshold must be at least 1")
    from .repetition import find_power

    witness = find_power(word, threshold, strict=plus)
    spec_text = format_exponent_spec(threshold, plus)
    free = witness is None
    _emit(
        {
            "kind": "check",
            "word_length": len(word),
            "threshold": spec_text,
            "free": free,
        },
        f"{'free' if free else 'not free'} (threshold {spec_text}, {len(word)} letters)",
        args.json,
    )
    if witness is not None and args.witness:
        _emit(
            _occurrence_report(witness),
            f"witness start={witness.start} period={witness.period} "
            f"length={witness.length} exponent={format_exponent(witness.exponent)}",
            args.json,
        )
    return 0 if free else 1


def _membership_tail(membership: AtlasMembership, json_mode: bool) -> str:
    """The end of a `squares` line from the separator after the square:
    family, level, base and the line break."""
    if json_mode:
        report = {"family": membership.family, "level": membership.level, "base": membership.base}
        return f'",{json.dumps(report, separators=(",", ":"))[1:]}\n'
    if not membership.in_atlas:
        return " family=-\n"
    return f" family={membership.family} level={membership.level} base={membership.base}\n"


def _cmd_squares(args: argparse.Namespace) -> int:
    if _is_generator_name(args.input):
        make = generator(args.input, cap=args.cap)
        if args.length is None:
            raise _UsageError("a generator input needs a prefix length")
        word = make(args.length)
    elif args.length is not None:
        raise _UsageError("a prefix length applies only to a generator input")
    else:
        word = _read_word_argument(args.input, args.cap)
    from .atlas import NOT_IN_ATLAS, _atlas_halves, _square_blocks

    # The word is 0/1 only (parsed or generated), so a square needs no JSON
    # escaping and each line is one f-string: head, position, middle,
    # square, tail.  The tails of a half length with atlas halves (2^k and
    # 3 * 2^k) are prepared by the first block that brings it; every other
    # line ends in `outside`.
    head, middle = ('{"kind":"membership","position":', ',"square":"') if args.json else ("pos=", " square=")
    outside = _membership_tail(NOT_IN_ATLAS, args.json)
    tails: dict[int, dict[str, str]] = {}  # half length -> atlas half -> tail
    for positions, halves in _square_blocks(word):
        for h in set(halves.tolist()) - tails.keys():
            if members := _atlas_halves(h):
                tails[h] = {x: _membership_tail(m, args.json) for x, m in members.items()}
        for first in range(0, len(positions), _SQUARES_BATCH):
            batch = slice(first, first + _SQUARES_BATCH)
            sys.stdout.write("".join([
                f"{head}{i}{middle}{word[i : i + 2 * h]}"
                f"{tails[h].get(word[i : i + h], outside) if h in tails else outside}"
                for i, h in zip(positions[batch].tolist(), halves[batch].tolist())
            ]))
    return 0


def _cmd_factorize(args: argparse.Namespace) -> int:
    word = _read_word_argument(args.word, args.cap)
    threshold = parse_exponent(args.threshold)
    for factorization in factorize(word, threshold):
        _emit(
            {
                "kind": "factorization",
                "u": factorization.head,
                "y": factorization.core,
                "v": factorization.tail,
            },
            f"u={factorization.head or 'e'} y={factorization.core or 'e'} "
            f"v={factorization.tail or 'e'}",
            args.json,
        )
    return 0


def _cmd_beta(args: argparse.Namespace) -> int:
    params = beta_params(parse_exponent(args.alpha), args.s, cap=args.cap)
    _emit(
        {
            "kind": "params",
            "alpha": format_exponent(params.alpha),
            "s": params.s,
            "r": params.r,
            "t": params.t,
            "beta": format_exponent(params.beta),
        },
        f"r={params.r} t={params.t} beta={format_exponent(params.beta)} "
        f"(alpha={format_exponent(params.alpha)}, s={params.s})",
        args.json,
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if "all" in args.suite and args.suite != ["all"]:
        raise _UsageError("'all' runs every suite and must be given alone")
    names = _SUITE_NAMES if args.suite == ["all"] else args.suite
    unknown = [name for name in names if name not in _SUITE_NAMES]
    if unknown:
        # repr() for a name that could break the one-line error (a line feed, say).
        shown = [name if name.isprintable() else repr(name) for name in unknown]
        raise _UsageError(f"unknown suite: {', '.join(shown)}")
    from . import verify

    all_passed = True
    for name in names:
        result = verify.run_suite(name)
        all_passed &= result.passed
        _emit(
            {
                "kind": "verdict",
                "suite": result.suite,
                "passed": result.passed,
                "seconds": round(result.seconds, 3),
                "detail": result.detail,
            },
            f"{result.suite}: {'pass' if result.passed else 'FAIL'} "
            f"({result.seconds:.2f}s) {result.detail}",
            args.json,
        )
    return 0 if all_passed else 1


def _integer(name: str, least: int, text: str) -> int:
    """An integer argument of at least ``least`` (0 or 1) in ASCII digits:
    int() alone takes any Unicode digit, "_" and a sign.  argparse reports
    a rejected value as a usage error."""
    if not (text.strip().isdecimal() and text.isascii()) or int(text) < least:
        kind = "positive" if least else "nonnegative"
        raise argparse.ArgumentTypeError(f"{name} must be a {kind} integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordpower",
        description="Repetitions in binary words: generators, power-freeness "
        "checks, square classification and theorem verification.",
    )
    default_cap = os.environ.get("WORDPOWER_CAP") or str(DEFAULT_CAP)
    parser.add_argument("--json", action="store_true", help="emit JSON lines")
    parser.add_argument(
        "--cap",
        type=functools.partial(_integer, "cap (--cap or WORDPOWER_CAP)", 1),
        default=default_cap,
        help=f"word length cap (default {default_cap}, env WORDPOWER_CAP)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="print a prefix of a named infinite word")
    p.add_argument("name", help=_GENERATOR_NAMES)
    p.add_argument("length", type=functools.partial(_integer, "length", 0))
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check", help="test power-freeness of a word")
    p.add_argument("word", help="binary word, @file, or file path")
    p.add_argument("exponent", help="threshold like 7/3, 2, or 2+ for the strict form")
    p.add_argument("--witness", action="store_true", help="print the witness occurrence")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("squares", help="list square occurrences with atlas classification")
    p.add_argument("input", help="word, @file, file path, or generator name")
    p.add_argument("length", type=functools.partial(_integer, "length", 0), nargs="?", help="prefix length for generators")
    p.set_defaults(func=_cmd_squares)

    p = sub.add_parser("factorize", help="short-edge factorizations of a power-free word")
    p.add_argument("word", help="binary word, @file, or file path")
    p.add_argument("--threshold", default="7/3", help="freeness threshold in (2, 7/3]")
    p.set_defaults(func=_cmd_factorize)

    p = sub.add_parser("beta", help="compute beta-power construction parameters")
    p.add_argument("alpha", help="rational above 2, like 11/5")
    p.add_argument("s", type=functools.partial(_integer, "s", 0), help="morphism iteration depth, at least 3")
    p.set_defaults(func=_cmd_beta)

    p = sub.add_parser("verify", help="run named verification suites")
    p.add_argument(
        "suite",
        nargs="+",
        help="suite names or 'all': " + ", ".join(_SUITE_NAMES),
    )
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if [] in vars(args).values():  # Python 3.11's argparse: a one-value positional given "--"
        parser.error("'--' may end the options only once")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader left early (`| head`): drop the rest of the output
        # quietly, and exit 1 because not all of it was delivered.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CAP_ERROR
    except BetaSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
