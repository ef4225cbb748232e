"""Plain-Python answers the benchmark checks the program against.

Nothing here imports wordpower or numpy: each function restates a
definition directly, so a bug in the package kernel cannot hide in the
check.  They are fast only where the benchmark uses them: on words
whose first repetition comes early, and on short words.
"""

from __future__ import annotations

from fractions import Fraction

EDGE_WORDS = ("", "0", "1", "00", "11")
FAMILY_BASES = {"A": ("00", "11", "010010", "101101"), "B": ("001001", "110110")}

_MU = str.maketrans({"0": "01", "1": "10"})


def mu(word: str) -> str:
    """The Thue-Morse morphism 0 -> 01, 1 -> 10."""
    return word.translate(_MU)


def mu_decode(word: str) -> str | None:
    """The word whose mu-image is ``word``, or None."""
    if len(word) % 2:
        return None
    out = []
    for i in range(0, len(word), 2):
        block = word[i : i + 2]
        if block not in ("01", "10"):
            return None
        out.append(block[0])
    return "".join(out)


def _extension(word: str, start: int, period: int) -> int:
    m = 0
    n = len(word)
    while start + period + m < n and word[start + m] == word[start + period + m]:
        m += 1
    return m


def find_power(word: str, threshold: Fraction, strict: bool) -> tuple[int, int, int] | None:
    """Leftmost, then smallest-period, occurrence of exponent >= threshold
    (> threshold when strict), as (start, period, maximal length)."""
    n = len(word)
    num, den = threshold.numerator, threshold.denominator
    for i in range(n):
        for p in range(1, n - i + 1):
            # Least extension past one period with (p + need) / p meeting
            # the threshold: need >= (num - den) * p / den, strictly if strict.
            q, r = divmod((num - den) * p, den)
            need = q + 1 if strict else q + (r > 0)
            if i + p + need > n:
                break
            if word[i : i + need] == word[i + p : i + p + need]:
                return i, p, p + _extension(word, i, p)
    return None


def is_power_free(word: str, threshold: Fraction, plus: bool) -> bool:
    return find_power(word, threshold, strict=plus) is None


def factorizations(word: str, threshold: Fraction) -> list[tuple[str, str, str]]:
    """Every split word = head + mu(core) + tail with short edges and a
    threshold-power-free core, ordered by (len(head), len(tail))."""
    found = []
    for head in EDGE_WORDS:
        for tail in EDGE_WORDS:
            if len(head) + len(tail) > len(word):
                continue
            if not (word.startswith(head) and word.endswith(tail)):
                continue
            core = mu_decode(word[len(head) : len(word) - len(tail)])
            if core is not None and is_power_free(core, threshold, plus=False):
                found.append((head, core, tail))
    found.sort(key=lambda f: (len(f[0]), len(f[2])))
    return found


def atlas_table(max_length: int) -> dict[str, tuple[str, int, str]]:
    """word -> (family, level, base) for every atlas square up to max_length,
    by forward iteration of mu on the base words."""
    table = {}
    for family, bases in FAMILY_BASES.items():
        for base in bases:
            word, level = base, 0
            while len(word) <= max_length:
                table[word] = (family, level, base)
                word, level = mu(word), level + 1
    return table
