"""Repetition toolkit for binary words.

Exact fractional-power analysis, the Thue-Morse morphism and its
relatives, the atlas of squares compatible with infinite overlap-free
words, and generators for power-free words that still carry infinitely
many repetitions.
"""

from .atlas import (
    AtlasMembership,
    FAMILY_A_BASES,
    FAMILY_B_BASES,
    atlas_members,
    atlas_membership,
    check_extension_lemma,
    is_extendable_square,
    max_overlap_free_extension,
    squares_in,
)
from .constructions import (
    BetaParams,
    BetaSearchError,
    BitSpec,
    UnknownGeneratorError,
    beta_params,
    beta_word,
    g_b,
    generator,
    parse_bit_spec,
    word_a,
    word_a_automatic,
    word_a_finite,
    word_s,
    word_t,
    word_wb,
)
from .exponents import (
    format_exponent,
    format_exponent_spec,
    parse_exponent,
    parse_exponent_spec,
)
from .morphism import (
    EDGE_WORDS,
    F,
    Factorization,
    G,
    H,
    MU,
    Morphism,
    descend_power,
    factorize,
    mu_decode,
)
from .repetition import (
    PowerOccurrence,
    exponent_of,
    find_power,
    is_power_free,
    list_repetitions,
    max_exponent,
    smallest_period,
)
from .words import (
    CapExceeded,
    DEFAULT_CAP,
    WordFormatError,
    complement,
    conjugates,
    enumerate_words,
    parse_word,
)

__version__ = "0.1.0"
