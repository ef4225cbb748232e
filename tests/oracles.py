"""Naive reference implementations used as test oracles.

Deliberately independent of the package kernel: plain letter loops over
(start, period, length), no numpy, no run decomposition.  Slow but
obviously faithful to the definitions.
"""

from fractions import Fraction


def extension(word, start, period):
    """Number of positions matching their period-shifted neighbour from start."""
    m = 0
    while start + period + m < len(word) and word[start + m] == word[start + period + m]:
        m += 1
    return m


def smallest_period(word):
    for p in range(1, len(word) + 1):
        if all(word[i] == word[i + p] for i in range(len(word) - p)):
            return p
    raise ValueError("empty word")


def max_exponent(word):
    """(exponent, (start, period, length)) with smallest start then period."""
    n = len(word)
    best_exp, best = Fraction(1), (0, 1, 1)
    for p in range(1, n):
        for i in range(n - p):
            length = p + extension(word, i, p)
            exp = Fraction(length, p)
            if exp > best_exp or (exp == best_exp and (i, p) < best[:2]):
                best_exp, best = exp, (i, p, length)
    return best_exp, best


def find_power(word, threshold, strict=False):
    """Leftmost (start, then period) occurrence meeting the threshold,
    reported with its maximal length, or None."""
    n = len(word)
    for i in range(n):
        for p in range(1, n - i + 1):
            length = p + extension(word, i, p)
            if i + length > n:
                continue
            exp = Fraction(length, p)
            if exp > threshold if strict else exp >= threshold:
                return (i, p, length)
    return None


def is_power_free(word, threshold, plus=False):
    return find_power(word, threshold, strict=plus) is None


def maximal_occurrences(word, threshold, strict=False):
    """All left/right-maximal occurrences longer than their period that
    meet the threshold, sorted by (start, period)."""
    n = len(word)
    out = []
    for p in range(1, n):
        for i in range(n - p):
            if word[i] != word[i + p]:
                continue
            if i > 0 and word[i - 1] == word[i - 1 + p]:
                continue
            length = p + extension(word, i, p)
            exp = Fraction(length, p)
            if exp > threshold if strict else exp >= threshold:
                out.append((i, p, length))
    out.sort()
    return out


def squares(word):
    """All (position, xx) square occurrences, sorted by (position, length)."""
    n = len(word)
    out = []
    for i in range(n):
        for half in range(1, (n - i) // 2 + 1):
            if word[i : i + half] == word[i + half : i + 2 * half]:
                out.append((i, word[i : i + 2 * half]))
    out.sort(key=lambda item: (item[0], len(item[1])))
    return out


def appending_creates_overlap(word):
    """Whether an overlap ends at the last letter of ``word``: walk each
    period backwards letter by letter, at most period + 1 steps."""
    n = len(word)
    for p in range(1, n // 2 + 1):
        m = 0
        while m <= p and n - 1 - p - m >= 0 and word[n - 1 - m] == word[n - 1 - p - m]:
            m += 1
        if m > p:
            return True
    return False


def all_binary_words(max_length):
    for n in range(max_length + 1):
        for code in range(1 << n):
            yield format(code, f"0{n}b") if n else ""


ATLAS_BASES = {"00": "A", "11": "A", "010010": "A", "101101": "A", "001001": "B", "110110": "B"}

_FLIP = str.maketrans("01", "10")


def mu_decode(word):
    """The word whose Thue-Morse image is ``word``, or None: the length is
    even and every 2-block is 01 or 10 (compared as two slices)."""
    if len(word) % 2 or word[0::2] != word[1::2].translate(_FLIP):
        return None
    return word[0::2]


def atlas_membership(word):
    """(family, level, base) by decoding one Thue-Morse level at a time
    until a base word appears, or None."""
    level = 0
    while word:
        if word in ATLAS_BASES:
            return ATLAS_BASES[word], level, word
        word = mu_decode(word)
        if word is None:
            return None
        level += 1
    return None
