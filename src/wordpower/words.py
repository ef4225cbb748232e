"""Binary words as plain strings over the alphabet {0, 1}.

Words are immutable values; every operation returns a new string.  The
external format is one ASCII character per letter, no separators.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterator

BINARY_ALPHABET = "01"

#: Default hard ceiling for generated word lengths, in letters.
DEFAULT_CAP = 1 << 20


class WordFormatError(ValueError):
    """A word contained a character other than 0 and 1."""

    def __init__(self, text: str, position: int):
        self.position = position
        self.character = text[position]
        super().__init__(
            f"invalid character {self.character!r} at index {position}; "
            f"expected one of {BINARY_ALPHABET!r}"
        )


class CapExceeded(RuntimeError):
    """A requested or generated word would exceed the configured length cap."""


def check_cap(length: int, cap: int) -> None:
    """Raise :class:`CapExceeded` when ``length`` letters exceed ``cap``."""
    if length > cap:
        raise CapExceeded(f"requested {length} letters, cap is {cap}")


def limit_prefix(seed: str, step: Callable[[str], str], n: int, cap: int) -> str:
    """First ``n`` letters of the limit of seed, step(seed), step(step(seed)), ...

    ``step`` must extend every word it is given, keeping it as a prefix,
    so the words converge and the result for n is a prefix of the result
    for any m >= n.  A step may trim its output to the letters the caller
    needs, as long as it still grows words shorter than ``n``.
    """
    if n < 0:
        raise ValueError("prefix length must be nonnegative")
    check_cap(n, cap)
    word = seed
    while len(word) < n:
        grown = step(word)
        if len(grown) <= len(word):
            raise ValueError("step does not grow the word; the limit is finite")
        word = grown
    return word[:n]


def parse_word(text: str) -> str:
    """Validate ``text`` as a binary word and return it."""
    # One pass deletes the letters of the alphabet; what is left starts
    # with the first invalid character.
    foreign = text.translate(dict.fromkeys(map(ord, BINARY_ALPHABET)))
    if foreign:
        raise WordFormatError(text, text.index(foreign[0]))
    return text


_COMPLEMENT = str.maketrans("01", "10")


def complement(word: str) -> str:
    """Flip every 0 to 1 and every 1 to 0."""
    return word.translate(_COMPLEMENT)


def conjugates(word: str) -> set[str]:
    """All distinct rotations of ``word``; always contains ``word`` itself."""
    if not word:
        return {""}
    return {word[i:] + word[:i] for i in range(len(word))}


def enumerate_words(length: int) -> Iterator[str]:
    """Yield every binary word of ``length``, in lexicographic order."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    return map("".join, product(BINARY_ALPHABET, repeat=length))
