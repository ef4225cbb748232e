"""The square atlas: classifying the squares that can live inside an
infinite overlap-free binary word.

Two finite base sets generate everything under the Thue-Morse morphism:

* family "A" (bases 00, 11, 010010, 101101): the squares occurring in
  the Thue-Morse word itself, anywhere;
* family "B" (bases 001001, 110110): the extra squares that occur in
  some infinite overlap-free word, but only as its prefix.

A word belongs to the atlas exactly when it is a square xx whose half x
is mu^k(y) for the half y of a base word, so membership is a lookup of x
among the at most four such halves of its length.  Squares outside both
families (for example 00110011) are overlap-free but kill every
sufficiently long extension, which the bounded depth-first search
:func:`max_overlap_free_extension` makes observable.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .morphism import MU
from .repetition import _free_words, _gather, _runs, is_power_free
from .words import complement

FAMILY_A_BASES = ("00", "11", "010010", "101101")
FAMILY_B_BASES = ("001001", "110110")


@dataclass(frozen=True)
class AtlasMembership:
    """Result of an atlas lookup.

    ``family`` is "A", "B" or None; when a family is present,
    ``MU.iterate(base, level)`` reconstructs the queried word.
    """

    family: str | None
    level: int | None
    base: str | None

    @property
    def in_atlas(self) -> bool:
        return self.family is not None


NOT_IN_ATLAS = AtlasMembership(None, None, None)


@functools.cache
def _t_block(level: int) -> str:
    """mu^level(0), the first 2^level letters of t."""
    return MU.iterate("0", level, cap=1 << level)


def _atlas_halves(half_length: int) -> dict[str, AtlasMembership]:
    """The halves x of the atlas squares xx with |x| = half_length, each
    with the membership of xx.

    xx = mu^k(yy) for a base yy exactly when x = mu^k(y) and
    |y| * 2^k = |x|, so only bases with |y| in {1, 3} and the one level k
    that fits the length contribute: at most four halves, each y with its
    letters replaced by mu^k(0) and its complement mu^k(1).
    """
    level = (half_length & -half_length).bit_length() - 1
    if level < 0 or half_length >> level not in (1, 3):
        return {}
    image = _t_block(level)
    mu_level = str.maketrans({"0": image, "1": complement(image)})
    return {
        base[: len(base) // 2].translate(mu_level): AtlasMembership(family, level, base)
        for family, bases in (("A", FAMILY_A_BASES), ("B", FAMILY_B_BASES))
        for base in bases
        if len(base) // 2 << level == half_length
    }


def atlas_membership(word: str) -> AtlasMembership:
    """The (family, level, base) of ``word`` in the atlas, or non-membership.

    The triple is unique when it exists: |x| fixes the level k, and mu^k
    is injective, so distinct base halves have distinct images.
    """
    half, odd = divmod(len(word), 2)
    if odd or word[:half] != word[half:]:
        return NOT_IN_ATLAS
    return _atlas_halves(half).get(word[:half], NOT_IN_ATLAS)


def atlas_members(max_length: int, families: str = "AB") -> list[str]:
    """Every atlas square of length <= max_length whose family is named
    in ``families``, sorted by length, then lexicographically: the squares
    xx of the halves x that :func:`_atlas_halves` lists for each length."""
    return [
        half + half
        for half_length in range(1, max_length // 2 + 1)
        for half, membership in sorted(_atlas_halves(half_length).items())
        if membership.family in families
    ]


def squares_in(word: str) -> list[tuple[int, str]]:
    """Every square occurrence (position, xx) in ``word``, sorted by
    (position, length).

    A square here is any factor of the form xx, reported at period |x|
    even when the factor happens to have a smaller period.  A maximal
    repetition (start, p, length) with length >= 2p holds the squares of
    half p at start .. start + length - 2p.
    """
    return [
        (i, word[i : i + 2 * h])
        for positions, halves in _square_blocks(word)
        for i, h in zip(positions.tolist(), halves.tolist())
    ]


# Squares expanded and sorted at once, at about 40 bytes each: a few MiB
# however many squares the word holds.  Every input of the `squares`
# benchmark (at most about 11,000 squares) is one block.
_SQUARES_BLOCK = 1 << 16


def _square_blocks(word: str) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The (positions, halves) integer arrays of :func:`squares_in`, in its
    order, without building a string per square: one block of consecutive
    positions at a time, each holding about _SQUARES_BLOCK squares (more
    only when one position starts more), so memory follows the runs, not
    the squares."""
    n = len(word)
    starts, halves, lengths = _gather(_runs(word, lambda: Fraction(2), False))
    ends = starts + lengths - 2 * halves + 1  # past the position of the run's last square
    # Squares at positions <= i, from the runs active at each position.
    upto = np.bincount(starts, minlength=n + 1) - np.bincount(ends, minlength=n + 1)
    np.cumsum(upto, out=upto)
    np.cumsum(upto, out=upto)
    bounds = upto.searchsorted(np.arange(_SQUARES_BLOCK, upto[-1], _SQUARES_BLOCK)) + 1
    # Ascending; np.unique would load numpy.ma, about 1 MiB.
    bounds = [0, *dict.fromkeys(bounds.tolist()), n]
    del upto
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        yield _squares_between(starts, halves, ends, lo, hi)


def _squares_between(starts, halves, ends, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The squares at positions lo .. hi - 1 of the runs (starts, halves,
    ends), as (positions, halves) arrays sorted by position, then half.
    (A function of its own, so that its temporaries are freed before the
    caller writes the block out.)"""
    live = (starts < hi) & (ends > lo)
    first = np.maximum(starts[live], lo)
    counts = np.minimum(ends[live], hi) - first
    shift = np.repeat(np.cumsum(counts) - counts - first, counts)
    positions = np.arange(int(counts.sum())) - shift
    halves = np.repeat(halves[live], counts)
    order = np.lexsort((halves, positions))
    return positions[order], halves[order]


def is_extendable_square(word: str) -> bool:
    """Whether an overlap-free square can occur in an infinite
    overlap-free word (equivalently: whether it is in the atlas).

    Rejects inputs that are not squares or not overlap-free.
    """
    n = len(word)
    if n == 0 or n % 2 or word[: n // 2] != word[n // 2 :]:
        raise ValueError("input is not a square")
    if not is_power_free(word, 2, plus=True):
        raise ValueError("square is not overlap-free")
    return atlas_membership(word).in_atlas


def max_overlap_free_extension(word: str, cap: int) -> int:
    """Largest L <= cap such that some overlap-free word of length L has
    ``word`` as a prefix (depth-first search; returns cap when reached).

    The search tree of overlap-free words grows polynomially, so the
    exhaustion below cap is cheap at desk scale.
    """
    if cap < len(word):
        raise ValueError("cap must be at least the word length")
    if not is_power_free(word, 2, plus=True):
        raise ValueError("word must be overlap-free")
    best = len(word)
    for length in map(len, _free_words(word, 2, True, cap)):
        if length == cap:
            return cap
        best = max(best, length)
    return best


def check_extension_lemma(k: int) -> bool:
    """Whether both one-letter extensions of the k-th Thue-Morse images
    of 011011 and 100100 contain an overlap (all four must)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    for seed in ("011011", "100100"):
        image = MU.iterate(seed, k)
        for letter in "01":
            if is_power_free(image + letter, 2, plus=True):
                return False
    return True
