"""The degree-n pairing between commutator realizations and monomial weights.

Row u of the pairing matrix holds the degree-n Magnus coefficients of the
realized bracketing of the Lyndon word u, one column per length-n monomial
in lexicographic order.  Those coefficients are the Lie polynomial of the
bracketing: a generator xi gives xi, and when a and b expand as
1 + alpha and 1 + beta plus terms of degree above p and q, the commutator
[a, b] = a^-1 b^-1 a b expands as 1 + alpha*beta - beta*alpha plus terms of
degree above p + q (Magnus 1937).  So rows are computed on the bracket tree, and no word is
expanded.

The bracketing of a Lyndon word u has u as its least monomial, with
coefficient +-1 (Chen-Fox-Lyndon 1958).  On the columns of the Lyndon words
the matrix is therefore triangular with a unit diagonal, and its rank over
Q is the number of rows: the count of aperiodic necklaces on n beads in m
colors.  `pairing_rank` checks exactly this, and eliminates when it fails.
"""

from __future__ import annotations

from itertools import combinations
from math import prod

from .coeff import Record, check_cells, integer_rank, surely_over
from .emap import _prime_factors
from .words import (
    BasicCommutator,
    GroupWord,
    Monomial,
    basic_commutator,
    enumerate_monomials,
    lyndon_words,
    realize,
)


def necklace(m: int, n: int) -> int:
    """Aperiodic necklaces on n beads in m colors: (1/n) sum mu(d) m^(n/d),
    where mu(d) = (-1)^r on the products d of r distinct primes of n, else 0."""
    if m < 1 or n < 1:
        raise ValueError(f"need m >= 1 and n >= 1, got ({m}, {n})")
    primes = list(_prime_factors(n))
    total = sum((-1) ** r * m ** (n // prod(c))
                for r in range(len(primes) + 1) for c in combinations(primes, r))
    # the divisor sum is always a multiple of n; a remainder is a bug
    assert total % n == 0, (m, n, total)
    return total // n


class PairingMatrix(Record):
    """Rows: realized Lyndon bracketings of weight n.  Columns: all length-n
    monomials.  Entries: degree-n Magnus coefficients."""

    __slots__ = _fields = ("level", "alphabet_size", "row_labels", "column_labels", "entries")

    def __init__(self, level: int, alphabet_size: int, row_labels: tuple[GroupWord, ...],
                 column_labels: tuple[Monomial, ...], entries: tuple[tuple[int, ...], ...]):
        super().__init__(level, alphabet_size, row_labels, column_labels, entries)


def _column(w: Monomial, k: int) -> int:
    """Position of w among the monomials of its length, in lexicographic order."""
    index = 0
    for letter in w:
        index = index * k + letter - 1
    return index


def _lie_polynomial(bc: BasicCommutator, k: int) -> dict[int, int]:
    """The Lie polynomial of a bracket tree, monomials keyed by _column.

    The key of the concatenation uv is key(u) * k**len(v) + key(v).
    """
    if bc.is_leaf:
        return {bc.gen - 1: 1}
    left, right = _lie_polynomial(bc.left, k), _lie_polynomial(bc.right, k)
    shift_left, shift_right = k**bc.right.weight, k**bc.left.weight
    out: dict[int, int] = {}
    for u, a in left.items():
        for v, b in right.items():
            uv, vu = u * shift_left + v, v * shift_right + u
            out[uv] = out.get(uv, 0) + a * b
            out[vu] = out.get(vu, 0) - a * b
    return {w: c for w, c in out.items() if c}


def pairing_matrix(alphabet_size: int, n: int) -> PairingMatrix:
    """The full degree-n pairing matrix over the given alphabet.

    Needs n >= 2, and at most MAX_CELLS cells.
    """
    if n < 2:
        raise ValueError(f"level must be >= 2, got {n}")
    if alphabet_size < 1:
        raise ValueError(f"alphabet size must be >= 1, got {alphabet_size}")
    k = alphabet_size
    check_cells(f"the pairing matrix at alphabet {k}, level {n}", "(rows + level) * alphabet^level",
                None if surely_over(k, n) else (necklace(k, n) + n) * k**n)
    width = k**n
    rows = []
    labels = []
    for u in lyndon_words(k, n):
        bc = basic_commutator(u)
        row = [0] * width
        for w, c in _lie_polynomial(bc, k).items():
            row[w] = c
        rows.append(tuple(row))
        labels.append(realize(bc, k))
    columns = tuple(enumerate_monomials(k, n))
    return PairingMatrix(n, k, tuple(labels), columns, tuple(rows))


def pairing_rank(matrix: PairingMatrix) -> int:
    """Exact rank over Q of the entries of a pairing matrix.

    If row i is +-1 at the column of the i-th Lyndon word and 0 before it,
    the rows lead at distinct columns and are independent, so the rank is
    the row count.  Otherwise it comes from `integer_rank`.
    """
    k = matrix.alphabet_size
    pivots = [_column(u, k) for u in lyndon_words(k, matrix.level)]
    if len(pivots) == len(matrix.entries) and all(
        row[c] in (1, -1) and not any(row[:c]) for row, c in zip(matrix.entries, pivots)
    ):
        return len(pivots)
    return integer_rank(matrix.entries)


def massey_rank(alphabet_size: int, n: int) -> int:
    """Exact rank over Q of the degree-n pairing matrix."""
    return pairing_rank(pairing_matrix(alphabet_size, n))
