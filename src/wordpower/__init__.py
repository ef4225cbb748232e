"""Repetition toolkit for binary words.

Exact fractional-power analysis, the Thue-Morse morphism and its
relatives, the atlas of squares compatible with infinite overlap-free
words, and generators for power-free words that still carry infinitely
many repetitions.

Names are loaded from their submodule on first access (PEP 562), so
``import wordpower`` loads no submodule and numpy only comes in with the
modules that scan (``repetition``, ``atlas``, ``verify``).
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "atlas": (
        "AtlasMembership", "FAMILY_A_BASES", "FAMILY_B_BASES", "atlas_members",
        "atlas_membership", "check_extension_lemma", "is_extendable_square",
        "max_overlap_free_extension", "squares_in",
    ),
    "constructions": (
        "BetaParams", "BetaSearchError", "BitSpec", "UnknownGeneratorError", "beta_params",
        "beta_word", "g_b", "generator", "parse_bit_spec", "word_a", "word_a_automatic",
        "word_a_finite", "word_s", "word_t", "word_wb",
    ),
    "exponents": (
        "format_exponent", "format_exponent_spec", "parse_exponent", "parse_exponent_spec",
    ),
    "morphism": (
        "EDGE_WORDS", "F", "Factorization", "G", "H", "MU", "Morphism", "descend_power",
        "factorize", "mu_decode",
    ),
    "repetition": (
        "PowerOccurrence", "exponent_of", "find_power", "is_power_free", "list_repetitions",
        "max_exponent", "smallest_period",
    ),
    "words": (
        "CapExceeded", "DEFAULT_CAP", "WordFormatError", "complement", "conjugates",
        "enumerate_words", "parse_word",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
