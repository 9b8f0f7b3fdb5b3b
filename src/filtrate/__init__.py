"""Filtrations of free groups from exponent tables.

Magnus expansions, two-route membership tests, unipotent representations,
recursive and product samplers, and pairing-matrix ranks.  The `filtrate`
console script exposes the same operations as JSON-emitting subcommands.
"""

from .coeff import RingSpec, ZZ, divisible, integer_rank, parse_ring
from .emap import (
    ConstantEMap,
    EMap,
    ExplicitEMap,
    SequenceGcdEMap,
    TrivialEMap,
    ZassenhausEMap,
    check_binomial,
    check_condition_iii,
    check_descending,
    ideal_member,
    normalize,
    parse_emap,
)
from .filt import (
    FiltrationSpec,
    member_kernels,
    member_series,
    phi,
    product_sampler,
    sample_recursive,
)
from .magnus import CapExceededError, TruncSeries, coefficient, magnus
from .massey import PairingMatrix, massey_rank, necklace, pairing_matrix, pairing_rank
from .words import (
    BasicCommutator,
    GroupWord,
    Monomial,
    WordSyntaxError,
    basic_commutator,
    commutator,
    enumerate_monomials,
    format_word,
    lyndon_words,
    parse_word,
    realize,
)

__version__ = "0.1.0"
