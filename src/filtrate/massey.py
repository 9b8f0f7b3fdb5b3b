"""The degree-n pairing between commutator realizations and monomial weights.

Pairing a word g (lying at least n deep in the lower central series) with a
weight vector supported on length-n monomials sums the degree-n Magnus
coefficients of g against the weights.  Stacking the rows for all Lyndon
bracketings of weight n yields an integer matrix whose rank over Q equals
the number of aperiodic necklaces on n beads in m colors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeff import ZZ, integer_rank
from .emap import TrivialEMap, _prime_factors
from .filt import FiltrationSpec, member_series
from .magnus import coefficient, magnus
from .words import (
    GroupWord,
    Monomial,
    basic_commutator,
    enumerate_monomials,
    lyndon_words,
    realize,
)


def _mobius(d: int) -> int:
    factors = _prime_factors(d)
    if any(m > 1 for m in factors.values()):
        return 0
    return -1 if len(factors) % 2 else 1


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def necklace(m: int, n: int) -> int:
    """Aperiodic necklaces on n beads in m colors: (1/n) sum mu(d) m^(n/d)."""
    if m < 1 or n < 1:
        raise ValueError(f"need m >= 1 and n >= 1, got ({m}, {n})")
    total = sum(_mobius(d) * m ** (n // d) for d in _divisors(n))
    # the divisor sum is always a multiple of n; a remainder is a bug
    assert total % n == 0, (m, n, total)
    return total // n


def pairing_value(g: GroupWord, weights: dict[Monomial, int], n: int) -> int:
    """Sum of weights[w] times the degree-n Magnus coefficient of g at w.

    Requires g to lie n deep in the lower central series (checked through
    the series membership route); the value is then well defined modulo
    nothing, an honest integer.
    """
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")
    for w in weights:
        if len(w) != n:
            raise ValueError(f"weight key {w} does not have length {n}")
        for c in w:
            if not 1 <= c <= g.alphabet_size:
                raise ValueError(
                    f"weight key {w} uses letter {c} outside x1..x{g.alphabet_size}"
                )
    spec = FiltrationSpec(TrivialEMap(), n)
    if not member_series(g, spec):
        raise ValueError(f"{g!r} is not {n} deep in the lower central series")
    s = magnus(g, ZZ, n)
    return sum(r * coefficient(s, w) for w, r in weights.items())


@dataclass(frozen=True)
class PairingMatrix:
    """Rows: realized Lyndon bracketings of weight n.  Columns: all length-n
    monomials.  Entries: degree-n Magnus coefficients."""

    level: int
    alphabet_size: int
    row_labels: tuple[GroupWord, ...]
    column_labels: tuple[Monomial, ...]
    entries: tuple[tuple[int, ...], ...]


def pairing_matrix(alphabet_size: int, n: int) -> PairingMatrix:
    """The full degree-n pairing matrix over the given alphabet; needs n >= 2."""
    if n < 2:
        raise ValueError(f"level must be >= 2, got {n}")
    if alphabet_size < 1:
        raise ValueError(f"alphabet size must be >= 1, got {alphabet_size}")
    columns = tuple(enumerate_monomials(alphabet_size, n))
    rows = []
    labels = []
    for u in lyndon_words(alphabet_size, n):
        g = realize(basic_commutator(u), alphabet_size)
        s = magnus(g, ZZ, n)
        labels.append(g)
        rows.append(tuple(s.coeffs.get(w, 0) for w in columns))
    return PairingMatrix(n, alphabet_size, tuple(labels), columns, tuple(rows))


def massey_rank(alphabet_size: int, n: int) -> int:
    """Exact rank over Q of the degree-n pairing matrix."""
    return integer_rank(pairing_matrix(alphabet_size, n).entries)
