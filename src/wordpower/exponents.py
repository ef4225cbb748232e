"""Exact rational exponents and their text form.

Exponents are ``fractions.Fraction`` values (automatically in lowest
terms, totally ordered, no floating point).  The text form is "p/q" or a
bare integer "n"; a trailing "+" marks a strict threshold, so "2+" means
"anything strictly above two".
"""

from __future__ import annotations

import re
from fractions import Fraction

_EXPONENT_RE = re.compile(r"^(\d+)(?:/(\d+))?$", re.ASCII)


def parse_exponent(text: str) -> Fraction:
    """Parse "p/q" or "n" into an exact rational."""
    m = _EXPONENT_RE.match(text.strip())
    if m is None:
        raise ValueError(f"malformed exponent {text!r}; expected 'p/q' or 'n'")
    numerator = int(m.group(1))
    denominator = int(m.group(2)) if m.group(2) else 1
    if denominator == 0:
        raise ValueError(f"malformed exponent {text!r}; zero denominator")
    return Fraction(numerator, denominator)


def parse_exponent_spec(text: str) -> tuple[Fraction, bool]:
    """Parse an exponent with an optional "+" suffix.

    Returns ``(value, plus)`` where ``plus`` is True for the strict form,
    e.g. "7/3" -> (7/3, False) and "2+" -> (2, True).
    """
    stripped = text.strip()
    plus = stripped.endswith("+")
    if plus:
        stripped = stripped[:-1]
    return parse_exponent(stripped), plus


def format_exponent(value: Fraction) -> str:
    """Serialize as "p/q" (the denominator is kept even when it is 1)."""
    return f"{value.numerator}/{value.denominator}"


def format_exponent_spec(value: Fraction, plus: bool) -> str:
    return format_exponent(value) + ("+" if plus else "")
