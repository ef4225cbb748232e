"""Prefix generators for the toolkit's infinite words.

Every infinite word is exposed as a prefix function of ``n`` with a hard
length cap (default 2^20); all generators are prefix-consistent, so
requesting n and then m >= n letters agrees on the first n.  Every step is
one ``_morphic`` call, whose arguments state the word's defining identity.

* ``word_t``: the overlap-free Thue-Morse word.
* ``word_s``: 001001 followed by the complement of ``word_t``; still
  overlap-free, and the only home of the prefix-only squares.
* ``word_a``: the 7/3-power-free word with infinitely many overlaps,
  grown by the recursion A_0 = 00, A_{n+1} = 0 mu^2(A_n).
* ``word_a_automatic``: the same word as a coded fixed point (a
  4-automatic presentation); equality is a cross-check, not a definition.
* ``word_wb``: the uncountable family steered by a bit stream (bit 0
  applies mu^2, bit 1 also prepends 0); ceil(log_4 n) bits fix n letters.
* ``beta_word``: for any rational alpha > 2, a nearby beta so that the
  word is beta-plus-power-free yet starts (and keeps starting, at every
  scale) with beta powers.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .exponents import parse_exponent
from .morphism import G, H, MU
from .words import DEFAULT_CAP, CapExceeded, check_cap, limit_prefix


def _morphic(word: str, keep: int, k: int, head: str = "", zeros: int = 0, drop: int = 0) -> str:
    """First ``keep`` letters of head + (mu^k(0^zeros word) minus its first
    ``drop`` letters).  No stage outgrows them: mu^k maps a letter to 2^k, so
    whole blocks of the drop are skipped before expanding; images are cut.
    """
    skip, drop = divmod(drop, 1 << k)
    body = keep - len(head) + drop
    end = skip - (-body >> k)
    word = ("0" * min(zeros, end) + word)[skip:end]
    for _ in range(k):
        word = MU.apply(word)[:body]
    return head + word[drop:]


def word_t(n: int, cap: int = DEFAULT_CAP) -> str:
    """First n letters of the Thue-Morse word 0110100110010110..., t = mu(t)."""
    return limit_prefix("0", lambda word: _morphic(word, n, 1), n, cap)


def word_s(n: int, cap: int = DEFAULT_CAP) -> str:
    """First n letters of 001001 followed by the complemented Thue-Morse word.

    The complement x is the fixed point of mu from 1, and mu(001001) has 12
    letters, so s = 001001 x is 001001 followed by mu(s) minus 12 letters.
    """
    return limit_prefix("0010011", lambda word: _morphic(word, n, 1, head="001001", drop=12), n, cap)


def word_a_finite(level: int, cap: int = DEFAULT_CAP) -> str:
    """The level-th word of the recursion A_0 = 00, A_{k+1} = 0 mu^2(A_k).

    Its length is (4^(level+1) + 3 * 4^level - 1) / 3.
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    return g_b("1" * level, "00", cap=cap)


def word_a(n: int, cap: int = DEFAULT_CAP) -> str:
    """First n letters of the limit of the A_k recursion, a = 0 mu^2(a)."""
    return limit_prefix("00", lambda word: _morphic(word, n, 2, head="0"), n, cap)


def word_a_automatic(n: int, cap: int = DEFAULT_CAP) -> str:
    """First n letters of the coded fixed point g(h^omega(0)).

    Independent of :func:`word_a`; the two must agree letter for letter.
    """
    return G.apply(H.fixed_point_prefix("0", n, cap=cap))


def g_b(bits: str, word: str, cap: int = DEFAULT_CAP) -> str:
    """Apply the bit-steered operator: reading ``bits`` left to right,
    the first bit acts outermost; 0 maps x to mu^2(x), 1 to 0 mu^2(x)."""
    if set(bits) - {"0", "1"}:
        raise ValueError("bits must be over 0/1")
    # Bit i, counted from the outermost, adds 4^i letters.
    length = (len(word) << 2 * len(bits)) + int(bits[::-1] or "0", 4)
    check_cap(length, cap)
    return _steered(bits, word, length)


def _steered(bits: str, word: str, keep: int) -> str:
    """The bits applied innermost first, each output cut to ``keep`` letters."""
    for bit in reversed(bits):
        word = _morphic(word, keep, 2, head="0" * int(bit))
    return word


_BIT_SPEC_RE = re.compile(r"([01]*)\(([01]+)\)")


@dataclass(frozen=True)
class BitSpec:
    """Eventually-periodic bit stream: a finite prefix plus a repeated block."""

    prefix: str
    block: str

    def bits(self, count: int) -> str:
        repeats = -(-(count - len(self.prefix)) // len(self.block))
        return (self.prefix + self.block * repeats)[:count]


def parse_bit_spec(text: str) -> BitSpec:
    """Parse "prefix(block)", e.g. "(0)", "1(10)", "01(1)"."""
    m = _BIT_SPEC_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"malformed bit spec {text!r}; expected like '01(10)'")
    return BitSpec(m.group(1), m.group(2))


def word_wb(spec: str | BitSpec, n: int, cap: int = DEFAULT_CAP) -> str:
    """First n letters of the limit word steered by the bit stream.

    The words ``g_b(0)`` over growing stream prefixes form a genuine
    prefix chain (every operator output starts with 0, and both
    operators preserve prefixes), so the limit is well-defined and the
    generator is prefix-consistent.  Seeding with 00 instead would not
    chain: mu^2(00) does not start with 00.  The pointwise limit of the
    00-seeded sequence is this same word.

    Each bit at least quadruples the word and the words form a prefix
    chain, so the first ceil(log_4 n) stream bits fix n letters.  They are
    applied innermost first, each output trimmed to n letters: both
    operators preserve prefixes, so the trimmed words are exact.
    """
    if isinstance(spec, str):
        spec = parse_bit_spec(spec)
    if n < 0:
        raise ValueError("prefix length must be nonnegative")
    check_cap(n, cap)
    return _steered(spec.bits(max(n - 1, 0).bit_length() + 1 >> 1), "0", n)[:n]


class BetaSearchError(ValueError):
    """No drop length satisfies both beta-power conditions."""


@dataclass(frozen=True)
class BetaParams:
    """Parameters of the beta-power construction.

    ``beta = r - t / 2**s`` sits strictly above ``alpha`` and within
    8 / 2**s of it; dropping ``t`` letters from the s-th Thue-Morse
    image of 0 leaves a word beginning 00.
    """

    alpha: Fraction
    s: int
    r: int
    t: int
    beta: Fraction


def beta_params(alpha: Fraction | int, s: int, cap: int = DEFAULT_CAP) -> BetaParams:
    """Search downward for the largest valid drop length t.

    Raises :class:`BetaSearchError` when no positive t works, which does
    happen when alpha is close to r and s is small (the earliest 00 in
    the s-th image of 0 starts at index 5).
    """
    alpha = Fraction(alpha)
    if alpha <= 2:
        raise ValueError(f"alpha must exceed 2, got {alpha}")
    if s < 3:
        raise ValueError(f"s must be at least 3, got {s}")
    if s >= cap.bit_length():
        # 2^s > cap; compared by bit length, so no 2^s is ever built.
        raise CapExceeded(f"requested 2^{s} letters, cap is {cap}")
    block = 1 << s
    r = math.floor(alpha) + 1
    base = MU.iterate("0", s, cap=cap)
    margin = (r - alpha) * block
    highest = min((margin.numerator - 1) // margin.denominator, block - 2)
    for t in range(highest, 0, -1):
        if base.startswith("00", t):
            return BetaParams(alpha, s, r, t, r - Fraction(t, block))
    raise BetaSearchError(
        f"no valid drop length for alpha={alpha}, s={s}; try a larger s"
    )


def beta_word(params: BetaParams, n: int, cap: int = DEFAULT_CAP) -> str:
    """First n letters of the limit of the beta-power recursion.

    Each round pads with 0^(r-2), applies the Thue-Morse morphism s
    times and drops the first t letters; the result always begins with a
    beta power of period 2**s.  Every stage is trimmed to the needed
    prefix, which the construction's prefix-consistency allows, so a
    large r never builds 0^(r-2) in full.
    """

    def round_(word: str) -> str:
        word = _morphic(word, max(n, 2), params.s, zeros=params.r - 2, drop=params.t)
        if not word.startswith("00"):
            raise RuntimeError("construction invariant broken; this is a bug")
        return word

    return limit_prefix("00", round_, n, cap)


class UnknownGeneratorError(ValueError):
    """Generator name not recognized."""


def _wb_generator(name: str, cap: int) -> Callable[[int], str]:
    try:
        spec = parse_bit_spec(name.partition(":")[2])
    except ValueError as exc:
        raise UnknownGeneratorError(str(exc)) from None
    return lambda n: word_wb(spec, n, cap=cap)


def _beta_generator(name: str, cap: int) -> Callable[[int], str]:
    parts = name.split(":")
    if len(parts) != 3 or not (parts[2].isdecimal() and parts[2].isascii()):
        raise UnknownGeneratorError(f"malformed beta generator {name!r}; expected 'beta:<alpha>:<s>'")
    try:
        alpha = parse_exponent(parts[1])
    except ValueError as exc:
        raise UnknownGeneratorError(str(exc)) from None
    params = beta_params(alpha, int(parts[2]), cap=cap)
    return lambda n: beta_word(params, n, cap=cap)


# The generator grammar: each fixed name with its prefix function, and each
# spec kind with the form of the rest of its names and their resolver.
_FIXED_GENERATORS = {"t": word_t, "s": word_s, "a": word_a, "a-automatic": word_a_automatic}
_SPEC_GENERATORS = {"wb:": ("<bits>", _wb_generator), "beta:": ("<alpha>:<s>", _beta_generator)}
_GENERATOR_NAMES = ", ".join([*_FIXED_GENERATORS, *(k + f for k, (f, _) in _SPEC_GENERATORS.items())])


def _is_generator_name(name: str) -> bool:
    """Whether :func:`generator` resolves ``name`` or reports it malformed."""
    return name in _FIXED_GENERATORS or name.startswith(tuple(_SPEC_GENERATORS))


def generator(name: str, cap: int = DEFAULT_CAP) -> Callable[[int], str]:
    """Resolve a generator name to a prefix function; an unknown name, or a
    malformed one of a spec kind, raises :class:`UnknownGeneratorError`."""
    fixed = _FIXED_GENERATORS.get(name)
    if fixed is not None:
        return lambda n: fixed(n, cap=cap)
    for kind, (_, resolve) in _SPEC_GENERATORS.items():
        if name.startswith(kind):
            return resolve(name, cap)
    raise UnknownGeneratorError(f"unknown generator {name!r}; known: {_GENERATOR_NAMES}")
