"""Shared generators and independent oracles for the test suite.

Everything here is deliberately written from definitions, not by calling the
package: oracles must be able to catch the package being wrong.  The two
pairing helpers at the end are the exception: they take the long way through
`realize` and `magnus`, which shares nothing with the Lie-polynomial rows of
`massey.pairing_matrix`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd

from filtrate.coeff import ZZ
from filtrate.emap import ExplicitEMap, TrivialEMap
from filtrate.filt import FiltrationSpec, member_series
from filtrate.magnus import TruncSeries, coefficient, magnus
from filtrate.words import GroupWord, basic_commutator, enumerate_monomials, lyndon_words, realize


def rational_rank(matrix) -> int:
    """Row reduction over Fraction, choosing the *last* nonzero pivot row.

    Same answer as fraction-free elimination, different route and pivoting.
    """
    rows = [[Fraction(v) for v in row] for row in matrix]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(len(rows) - 1, rank - 1, -1) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1) / rows[rank][c]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def brute_lyndon(alphabet_size: int, weight: int) -> list[tuple[int, ...]]:
    """All Lyndon words by checking every word against every proper rotation."""
    from itertools import product

    out = []
    for w in product(range(1, alphabet_size + 1), repeat=weight):
        if all(w < w[i:] + w[:i] for i in range(1, weight)):
            out.append(w)
    return out


def gcdseq_by_subsets(seq, n: int, i: int) -> int:
    """e(n, i) of a sequence-gcd table: the gcd of the products of every
    choice of n - i distinct entries among the first n - 1, listed one by one."""
    if i == n:
        return 1
    g = 0
    for subset in combinations(seq[: n - 1], n - i):
        product = 1
        for a in subset:
            product *= a
        g = gcd(g, product)
    return g


def necklace_by_mobius(m: int, n: int) -> int:
    """(1/n) sum over d | n of mu(d) m^(n/d), written out from scratch."""

    def mu(d):
        result = 1
        p = 2
        while p * p <= d:
            if d % p == 0:
                d //= p
                if d % p == 0:
                    return 0
                result = -result
            p += 1
        if d > 1:
            result = -result
        return result

    total = sum(mu(d) * m ** (n // d) for d in range(1, n + 1) if n % d == 0)
    assert total % n == 0
    return total // n


def random_reduced_word(rng: random.Random, alphabet_size: int, max_length: int) -> GroupWord:
    letters = []
    for _ in range(rng.randint(0, max_length)):
        idx = rng.randint(1, alphabet_size)
        letters.append(idx if rng.random() < 0.5 else -idx)
    return GroupWord(alphabet_size, letters)


def magnus_by_letters(letters, modulus: int, cap: int) -> dict:
    """Expansion of a signed-letter sequence, one letter at a time, as a dict.

    xi -> 1 + xi and xi^-1 -> 1 - xi + xi^2 - ... to the cap, multiplied out
    left to right; coefficients in Z/modulus (Z when 0), zeros dropped.  The
    letters need not be reduced: 1 + xi times its truncated geometric series
    is exactly 1 below the cap.
    """
    acc = {(): 1}
    for s in letters:
        i = abs(s)
        if s > 0:
            factor = {(): 1, (i,): 1}
        else:
            factor = {(i,) * j: (-1) ** j for j in range(cap + 1)}
        out = {}
        for u, a in acc.items():
            for v, b in factor.items():
                if len(u) + len(v) <= cap:
                    out[u + v] = out.get(u + v, 0) + a * b
        if modulus:
            out = {w: c % modulus for w, c in out.items()}
        acc = {w: c for w, c in out.items() if c}
    return acc


def one_letter_expansion(g: GroupWord, cap: int) -> dict:
    """Expansion over Z of a word on one letter, which is x1^N for some N.

    (1 + x1)^N has N(N-1)...(N-j+1)/j! at x1^j, whatever the sign of N, so
    a run of any length costs cap steps and no letter is flattened.
    """
    power = g.runs[0][1] if g.runs else 0
    coeffs = {(): 1}
    falling = 1
    for j in range(1, cap + 1):
        falling *= power - j + 1
        c = Fraction(falling, factorial(j))
        assert c.denominator == 1
        if c:
            coeffs[(1,) * j] = int(c)
    return coeffs


def is_unit(value: int, ring) -> bool:
    """Whether value is invertible in Z (only +-1) or in Z/m (coprime to m)."""
    if ring.modulus == 0:
        return value in (1, -1)
    return gcd(value, ring.modulus) == 1


def series_inverse(series: TruncSeries) -> TruncSeries:
    """Multiplicative inverse of a series with unit constant term.

    Writes the input as c*(1 - beta) with beta of zero constant term, then
    sums the geometric series 1 + beta + beta^2 + ... to the cap by Horner.
    """
    c0 = series.coeffs.get((), 0)
    ring = series.ring
    if not is_unit(c0, ring):
        raise ValueError(f"constant term {c0} is not a unit in {ring}")
    cinv = c0 if ring.modulus == 0 else pow(c0, -1, ring.modulus)
    one = TruncSeries.one(ring, series.alphabet_size, series.cap)
    beta = one - series.scale(cinv)
    acc = one
    for _ in range(series.cap):
        acc = one + beta * acc
    return acc.scale(cinv)


def unimatrix_identity(size: int, ring) -> list[list[int]]:
    """The identity matrix over the ring as rows: 1 on the diagonal (0 over Z/1)."""
    one = 1 % ring.modulus if ring.modulus else 1
    return [[one if i == j else 0 for j in range(size)] for i in range(size)]


def unimatrix_product(a: list, b: list, ring) -> list[list[int]]:
    """The product of two square row matrices over the ring, summed entry
    by entry from the definition."""
    size = len(a)
    if len(b) != size:
        raise ValueError("mismatched sizes")
    out = []
    for i in range(size):
        row = []
        for j in range(size):
            total = sum(a[i][k] * b[k][j] for k in range(size))
            row.append(total % ring.modulus if ring.modulus else total)
        out.append(row)
    return out


def equal_ignoring_corner(a: list, b: list) -> bool:
    """Equality in the quotient that forgets the top-right entry."""
    if len(a) != len(b):
        return False
    corner = (0, len(a) - 1)
    return all(a[i][j] == b[i][j] or (i, j) == corner
               for i in range(len(a)) for j in range(len(a)))


def random_series(rng: random.Random, ring, alphabet_size: int, cap: int,
                  terms: int = 8, bound: int = 30) -> TruncSeries:
    coeffs = {}
    for _ in range(terms):
        length = rng.randint(0, cap)
        w = tuple(rng.randint(1, alphabet_size) for _ in range(length))
        coeffs[w] = rng.randint(-bound, bound)
    return TruncSeries(ring, alphabet_size, cap, coeffs)


def random_descending_table(rng: random.Random, n_max: int,
                            multipliers=(0, 1, 1, 2, 2, 3, 4, 6)) -> ExplicitEMap:
    """A random table with e(n, n) = 1 built downward by integer multipliers.

    Multiplying by 0 pins the rest of the row to 0, which keeps the chain
    condition: 0 is a multiple of everything and only 0 is a multiple of 0.
    """
    table = {}
    for n in range(1, n_max + 1):
        row = [0] * n
        row[n - 1] = 1
        for i in range(n - 2, -1, -1):
            row[i] = row[i + 1] * rng.choice(multipliers)
        table[n] = tuple(row)
    return ExplicitEMap(table)


def random_row_table(rng: random.Random, n_max: int, bound: int = 12) -> ExplicitEMap:
    """Arbitrary non-negative rows with diagonal 1; descending only by luck."""
    table = {}
    for n in range(1, n_max + 1):
        row = [rng.randint(0, bound) for _ in range(n - 1)] + [1]
        table[n] = tuple(row)
    return ExplicitEMap(table)


def decompose_in_ideal(s: TruncSeries, e, n: int):
    """Constructive membership oracle for the level-n ideal over Z.

    Splits s degree by degree: for i < n with prefix gcd g_i != 0 the
    degree-i part must be g_i * (integer polynomial); zero g_i forces a zero
    part.  Returns the reassembled series (equal to s on success) or None.
    """
    if s.coeffs.get((), 0):
        return None
    gs = []
    g = 0
    for i in range(1, n):
        g = gcd(g, e.evaluate(n, i))
        gs.append(g)
    rebuilt = {}
    for w, c in s.coeffs.items():
        d = len(w)
        if d == 0:
            return None
        if d >= n:
            rebuilt[w] = c
            continue
        g = gs[d - 1]
        if g == 0:
            if c != 0:
                return None
            continue
        if c % g:
            return None
        rebuilt[w] = g * (c // g)
    return TruncSeries(s.ring, s.alphabet_size, s.cap, rebuilt)


def membership_witnesses(g: GroupWord, e, n: int) -> tuple:
    """Both routes' witnesses for g at level n, from one full expansion.

    The word is expanded letter by letter over Z at cap n - 1 and every
    degree below n is read, whatever its divisor.  The series witness is
    the first (length, lex) term whose coefficient gcd(e(n, 1..d)) does
    not divide.  The kernel witness is the first monomial w of length d,
    over all d < n in lexicographic order, whose matrix of subword
    coefficients reduced mod e(n, d) is not the identity, with the entry
    at its least nonzero (i, j).
    """
    from itertools import product

    if n == 1:
        return None, None
    if g.alphabet_size == 1:
        coeffs = one_letter_expansion(g, n - 1)
    else:
        coeffs = magnus_by_letters(g.letters, 0, n - 1)
    series = None
    divisor = 0
    for d in range(1, n):
        divisor = gcd(divisor, e.evaluate(n, d))
        bad = sorted(w for w, c in coeffs.items()
                     if len(w) == d and (c % divisor if divisor else c))
        if bad:
            series = (d, bad[0], coeffs[bad[0]])
            break
    kernel = None
    for d in range(1, n):
        m = e.evaluate(n, d)
        for w in product(range(1, g.alphabet_size + 1), repeat=d):
            entries = {}
            for i in range(1, d + 1):
                for j in range(i + 1, d + 2):
                    c = coeffs.get(w[i - 1:j - 1], 0)
                    if c % m if m else c:
                        entries[(i, j)] = c % m if m else c
            if entries:
                kernel = (d, w, entries[min(entries)])
                break
        if kernel is not None:
            break
    return series, kernel


def pairing_value(g: GroupWord, weights: dict, n: int) -> int:
    """Sum of weights[w] times the degree-n Magnus coefficient of g at w.

    Requires g to lie n deep in the lower central series (checked through
    the series membership route); the value is then an honest integer.
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
    if not member_series(g, FiltrationSpec(TrivialEMap(), n)):
        raise ValueError(f"{g!r} is not {n} deep in the lower central series")
    s = magnus(g, ZZ, n)
    return sum(r * coefficient(s, w) for w, r in weights.items())


def pairing_rows_by_magnus(k: int, n: int) -> tuple:
    """Pairing-matrix rows by expanding each realized Lyndon bracketing to cap n."""
    columns = list(enumerate_monomials(k, n))
    rows = []
    for u in lyndon_words(k, n):
        s = magnus(realize(basic_commutator(u), k), ZZ, n)
        rows.append(tuple(s.coeffs.get(w, 0) for w in columns))
    return tuple(rows)
