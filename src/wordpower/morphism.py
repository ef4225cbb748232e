"""Morphisms on words: substitution tables, iteration, fixed-point
prefixes, and the two-block code of the Thue-Morse morphism.

The Thue-Morse morphism ``mu`` (0 -> 01, 1 -> 10) is the workhorse: it
is injective, its images decode greedily in 2-blocks, and it transports
repetitions both ways (doubling them forward, halving them backward).
The module also carries the 5-letter tables ``h``, ``g`` and ``f`` used
by the 4-automatic presentation in :mod:`wordpower.constructions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping

from .words import DEFAULT_CAP, check_cap, complement, limit_prefix

if TYPE_CHECKING:
    from .repetition import PowerOccurrence


class Morphism:
    """A letter-to-word substitution over a small alphabet."""

    def __init__(self, images: Mapping[str, str]):
        for letter in images:
            if len(letter) != 1:
                raise ValueError(f"domain entries must be single letters, got {letter!r}")
        self._images = dict(images)
        self._table = {ord(letter): image for letter, image in self._images.items()}
        self._delete_domain = dict.fromkeys(self._table)

    def __repr__(self) -> str:
        rules = ", ".join(f"{a}:{w}" for a, w in sorted(self._images.items()))
        return f"Morphism({rules})"

    def _check_domain(self, word: str) -> None:
        # One pass deletes the domain letters; the set of foreign letters
        # is built only when some are left.
        if word.translate(self._delete_domain):
            foreign = set(word) - self._images.keys()
            raise ValueError(f"letter {min(foreign)!r} outside morphism domain")

    def apply(self, word: str) -> str:
        """Concatenate the images of the letters of ``word`` in order."""
        self._check_domain(word)
        return word.translate(self._table)

    def image_length(self, word: str) -> int:
        """Length of ``apply(word)`` without materializing it."""
        self._check_domain(word)
        return sum(word.count(letter) * len(image) for letter, image in self._images.items())

    def iterate(self, seed: str, n: int, cap: int = DEFAULT_CAP) -> str:
        """Apply the morphism ``n`` times to ``seed`` (n=0 returns the seed)."""
        if n < 0:
            raise ValueError("iteration count must be nonnegative")
        word = seed
        for _ in range(n):
            check_cap(self.image_length(word), cap)
            word = self.apply(word)
        return word

    def is_prolongable(self, letter: str) -> bool:
        """True when image(letter) starts with the letter and has length >= 2,
        so the iteration converges to a unique infinite fixed point."""
        image = self._images.get(letter)
        return image is not None and len(image) >= 2 and image[0] == letter

    def fixed_point_prefix(self, letter: str, n: int, cap: int = DEFAULT_CAP) -> str:
        """First ``n`` letters of the fixed point starting with ``letter``.

        Prefix-consistent: the result for n is a prefix of the result for
        any m >= n.
        """
        if not self.is_prolongable(letter):
            raise ValueError(f"morphism is not prolongable on {letter!r}")
        return limit_prefix(letter, self.apply, n, cap)


#: Thue-Morse morphism.
MU = Morphism({"0": "01", "1": "10"})

#: 4-uniform morphism on {0..4} whose fixed point codes the word `a`.
H = Morphism({"0": "0134", "1": "2134", "2": "3234", "3": "2321", "4": "3421"})

#: Coding {0,1,2} -> 0, {3,4} -> 1.
G = Morphism({"0": "0", "1": "0", "2": "0", "3": "1", "4": "1"})

#: Reparsing table satisfying g(f(a)) = mu^2(g(a)) on every letter.
F = Morphism({"0": "1342", "1": "1342", "2": "2342", "3": "3213", "4": "4213"})


def mu_decode(word: str) -> str | None:
    """Invert the Thue-Morse morphism, or None when ``word`` is not an image.

    Succeeds exactly when the length is even and every 2-block is 01 or 10:
    the letters at even positions are binary, and each letter at an odd
    position is the complement of the one before it.
    """
    decoded = word[0::2]
    if len(word) % 2 or decoded.strip("01") or word[1::2] != complement(decoded):
        return None
    return decoded


def descend_power(word: str, occurrence: PowerOccurrence) -> PowerOccurrence:
    """Pull a repetition in ``MU.apply(word)`` back into ``word``.

    Given an occurrence of even period p and exponent above 2 in the
    image, returns the occurrence in ``word`` of period p/2 that it comes
    from, of length at least ceil(occurrence.length / 2).  Since
    mu(word)[j] is word[j // 2] xor (j % 2), image[j] == image[j + p]
    holds exactly when word[j // 2] == word[j // 2 + p/2], so the image
    run over [start, end) descends to [start // 2, (end - p - 1) // 2 + p/2].
    """
    # The repetition kernel (and numpy) loads with its first user, so the
    # generators, which only need the morphisms, start without it.
    from .repetition import PowerOccurrence

    if occurrence.period % 2:
        raise ValueError("occurrence period must be even")
    if occurrence.length <= 2 * occurrence.period:
        raise ValueError("occurrence exponent must exceed 2")
    image = MU.apply(word)
    if not occurrence.is_valid_in(image):
        raise ValueError("occurrence is not a valid repetition in the image word")
    period = occurrence.period // 2
    start = occurrence.start // 2
    last = (occurrence.end - occurrence.period - 1) // 2 + period
    return PowerOccurrence(start, period, last - start + 1)


#: Allowed edge words of a factorization around the Thue-Morse morphism.
EDGE_WORDS = ("", "0", "1", "00", "11")


@dataclass(frozen=True)
class Factorization:
    """A decomposition word = head + MU.apply(core) + tail with head and
    tail drawn from :data:`EDGE_WORDS`."""

    head: str
    core: str
    tail: str

    def reconstruct(self) -> str:
        return self.head + MU.apply(self.core) + self.tail


def factorize(
    word: str, threshold: Fraction | int = Fraction(7, 3)
) -> list[Factorization]:
    """All short-edge factorizations of a power-free word.

    Every word that is threshold-power-free for a threshold in (2, 7/3]
    splits as head + mu(core) + tail with short edges and a power-free
    core; this returns every such split, sorted by (len(head), len(tail)).
    The first element is the canonical one.
    """
    from .repetition import is_power_free

    thr = Fraction(threshold)
    if not 2 < thr <= Fraction(7, 3):
        raise ValueError(f"threshold must lie in (2, 7/3], got {thr}")
    if not is_power_free(word, thr, plus=False):
        raise ValueError("word is not power-free at the given threshold")
    found = []
    for head in EDGE_WORDS:
        if not word.startswith(head):
            continue
        for tail in EDGE_WORDS:
            if len(word) - len(head) - len(tail) < 0 or not word.endswith(tail):
                continue
            core = mu_decode(word[len(head) : len(word) - len(tail)])
            if core is None or not is_power_free(core, thr, plus=False):
                continue
            found.append(Factorization(head, core, tail))
    found.sort(key=lambda f: (len(f.head), len(f.tail)))
    return found
