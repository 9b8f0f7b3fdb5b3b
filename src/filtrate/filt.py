"""Membership in exponent-table filtrations, two ways, plus samplers.

The level-n term of the filtration attached to a descending exponent table
is the set of words whose Magnus expansion minus 1 lies in the level-n
ideal, which row n of the table fixes; a FiltrationSpec reads that row once.
Membership is decided by two deliberately different routes:

* the series route checks the per-degree divisibility of the expansion
  over Z directly.  It reads degree 1 from an expansion at cap 1 first,
  and only if that passes, the degrees up to the last one whose divisor
  gcd(e(n, 1..d)) is not 1, from an expansion at that cap;
* the kernel route demands that, for every monomial w of length d < n
  with e(n, d) != 1, the unipotent matrix of subword coefficients over
  Z/e(n,d) be the identity.  It never expands the word: it reads degree 1
  from the exponent sums, and only if that passes, multiplies the top rows
  of all words up to the last such d by the image of each run x_i^e, which
  has binom(e, b-a) at (a, b) where the word is all i there.  Every word of
  length <= d is a subword of one of length d, so degree d passes exactly
  when the rows of lengths 1..d vanish mod e(n, d); a degree that fails
  reads its witness from the same rows: the first failing word in
  lexicographic order is the least code of a failing entry in them.

Neither route reads a degree whose divisor is 1: nothing there can fail.
The kernel route decides this from e(n, d) itself, not from the series
route's divisors, so the two routes share no rule about which degrees
count, and share no code past `words` and `emap`: a bug in `magnus` makes
them disagree.

The two must agree on every input; a disagreement is a bug, never noise.
"""

from __future__ import annotations

import random
from math import comb, gcd, lcm

from .coeff import Record, RingSpec, ZZ, check_cells, divisible, surely_over
from .emap import EMap, check_descending, divisor_witness, ideal_divisors
from .magnus import magnus
from .massey import necklace
from .words import (
    GroupWord,
    Monomial,
    basic_commutator,
    commutator,
    lyndon_words,
    random_word,
    realize,
)


def phi(w: Monomial, g: GroupWord, ring: RingSpec) -> list[list[int]]:
    """The unipotent image of g attached to the monomial w = w1...wd, as its
    d+1 rows of canonical ring elements.

    Entry (i, j) with i <= j is the Magnus coefficient of g at the subword
    wi...w_{j-1}; on the diagonal that subword is empty, so the entry is 1
    in the ring (0 over Z/1).  The entries below the diagonal are 0.  The
    map is a homomorphism into the unitriangular group over the ring.  A
    matrix of more than MAX_CELLS cells is refused before any is made.
    """
    w = tuple(w)
    if not w:
        raise ValueError("w must be a nonempty monomial")
    size = len(w) + 1
    check_cells(f"the unipotent image at monomial length {size - 1}", "(length + 1)^2", size * size)
    parts = magnus(g, ring, size - 1).parts
    return [[parts[j - i].get(w[i:j], 0) if i <= j else 0 for j in range(size)]
            for i in range(size)]


class FiltrationSpec(Record):
    """An exponent table and a level: one term of a filtration.  Building it
    keeps row `level` as `row`, which is all either route reads of the
    table.  Rows 1..level of a table that is not descending by construction
    (a `file:` table) are checked to descend first.  Equality, hashing and
    printing read the table, a value, and the level, not the row; an
    `ExplicitEMap`'s `table` dict is read-only, like `TruncSeries.parts`."""

    __slots__ = ("emap", "level", "row")
    _fields = ("emap", "level")

    def __init__(self, emap: EMap, level: int):
        if level < 1:
            raise ValueError(f"level must be >= 1, got {level}")
        if not emap.descending_by_construction:
            result = check_descending(emap, level)
            if not result.ok:
                raise ValueError(
                    f"exponent table is not descending up to level {level}: "
                    f"first violation at {result.violation}"
                )
        super().__init__(emap, level, emap.row(level))


def series_witness(g: GroupWord, spec: FiltrationSpec):
    """Failing (degree, monomial, coefficient) on the series route, or None.

    The divisors come from `spec.row`.  Degree 1 is read first, from an
    expansion at cap 1.  Only if it passes is the word expanded again, up
    to the last degree whose divisor is not 1; the degrees above it cannot
    fail.  `divisor_witness` skips the constant term 1 of each expansion.
    An expansion at cap c is exact in every degree up to c, so the witness
    is the first failing term in (length, lex) order, as if every degree
    below n had been expanded.
    """
    divisors = ideal_divisors(spec.row)
    if not divisors:
        return None
    witness = divisor_witness(magnus(g, ZZ, 1), divisors[:1])
    top = len(divisors)
    if witness is not None or top == 1:
        return witness
    return divisor_witness(magnus(g, ZZ, top), divisors)


def member_series(g: GroupWord, spec: FiltrationSpec) -> bool:
    """Membership via per-degree divisibility of the integral expansion."""
    return series_witness(g, spec) is None


def _binomials(e: int, cap: int) -> list[int]:
    """binom(e, j) for j = 1..cap, with binom(-k, j) = (-1)^j binom(k+j-1, j)."""
    if e >= 0:
        return [comb(e, j) for j in range(1, cap + 1)]
    return [comb(j - e - 1, j) if j % 2 == 0 else -comb(j - e - 1, j)
            for j in range(1, cap + 1)]


def _top_rows(g: GroupWord, modulus: int, cap: int) -> list[list[int]]:
    """The top-right entry of the image of g attached to every word u of
    length m <= cap, as rows[m][code(u)], over Z/modulus (Z when 0).

    code(u) is u read in base k, first letter most significant, so each row
    lists its words in lexicographic order.  The entries of u's top row are
    the rows' values at the prefixes of u, so the rows hold the top row of
    every word at once.  A run x_i^e multiplies each top row by its image,
    which has binom(e, b - a) at (a, b) when u[a..b-1] is all i: the entry
    at u gains binom(e, j) times the entry at u less its last j letters
    whenever those letters are all i.  Lengths are updated from the longest
    down, so every update reads the shorter rows before the run.
    """
    k = g.alphabet_size
    rows = [[1]] + [[0] * k ** m for m in range(1, cap + 1)]
    for i, e in g.runs:
        # (j, code of i^j, k^j, binom(e, j)) for the nonzero binomials
        terms = []
        tail = 0
        for j, c in enumerate(_binomials(e, cap), 1):
            tail = tail * k + i - 1
            if modulus:
                c %= modulus
            if c:
                terms.append((j, tail, k ** j, c))
        for m in range(cap, 0, -1):
            dst = rows[m]
            for j, tail, step, c in terms:
                if j > m:
                    break
                # the words of length m ending in i^j, in the order of their
                # prefixes of length m - j
                old = dst[tail::step]
                if modulus:
                    dst[tail::step] = [(x + c * y) % modulus for x, y in zip(old, rows[m - j])]
                else:
                    dst[tail::step] = [x + c * y for x, y in zip(old, rows[m - j])]
    return rows


def kernel_witness(g: GroupWord, spec: FiltrationSpec):
    """Failing (degree, monomial, entry) on the kernel route, or None.

    The image of g attached to a word w of length d is the product of the
    images of its runs: x_i^e goes to the unipotent matrix with binom(e, b-a)
    at (a, b) when w[a..b-1] is all i; e(n, d) comes from `spec.row`.  A
    degree d with e(n, d) = 1 is skipped: over Z/1 every matrix is the
    identity.  Degree 1 is read first, from the exponent sum of each letter;
    the witness is the least letter whose sum is nonzero mod e(n, 1).  Only
    if it passes does one pass over the runs build the top rows of every
    word up to the last degree top < n with e(n, d) != 1 (`_top_rows`), over
    Z/L with L the lcm of those e(n, d) with d >= 2 (Z if one is 0); rows of
    more than MAX_CELLS cells in all, a cell per entry and one per row, raise
    ValueError before any is built.

    Entry (a, b) of w's matrix is the top-right entry of the image attached
    to w[a..b-1], and every word of length <= d is a subword of some word
    of length d, so degree d passes exactly when the rows of lengths 1..d
    are all 0 mod e(n, d), that is, when e(n, d) divides the gcd of their
    entries (0 divides only 0).  The gcd is carried from one degree to the
    next, so each row is read once, and only up to the degree being
    decided; it needs nothing of the other degrees' moduli, which need not
    divide one another.  A degree d that fails names the first failing word
    in lexicographic order: with x1 as digit 0, it is the least code c of
    an entry of rows 1..d that is nonzero mod e(n, d), written with d
    letters, since a word holding a failing u with r letters after it has
    code at least code(u)·k^r, and x1^(d-|u|) u has code exactly code(u).
    The moduli need not divide one another, so every row up to d is read,
    not row d alone: at most once more, plus the d(d+1)/2 entries of that
    one word's matrix, the first nonzero of them in (a, b) order being the
    witness.  The route never expands g as a series.
    """
    n = spec.level
    k = g.alphabet_size
    first = spec.row[0] if n > 1 else 1
    if first != 1:
        sums: dict[int, int] = {}
        for i, e in g.runs:
            sums[i] = sums.get(i, 0) + e
        for i in sorted(sums):
            if s := sums[i] % first if first else sums[i]:
                return (1, (i,), s)
    row = spec.row
    # the last degree below the level whose divisor is not 1
    top = next((d for d in range(n - 1, 1, -1) if row[d - 1] != 1), 0)
    if not top:
        return None
    check_cells(f"the kernel route at alphabet {k}, degree {top}",
                f"alphabet^1 + ... + alphabet^{top} + {top}",
                None if surely_over(k, top)
                else (top if k == 1 else (k ** (top + 1) - k) // (k - 1)) + top)
    rows = _top_rows(g, lcm(*row[1:top]), top)  # an e(n, d) of 1 drops out
    common = 0  # the gcd of every entry in the rows of lengths 1..d
    for d in range(1, top + 1):
        common = gcd(common, *rows[d])
        m = row[d - 1]
        if d == 1 or divisible(common, m):  # degree 1 read the exponent sums
            continue
        # the first failing word in lex order: the least failing code in rows 1..d
        c = min(next((i for i, v in enumerate(rows[j]) if (v % m if m else v)), k ** d)
                for j in range(1, d + 1))
        w = [c // k ** (d - 1 - i) % k for i in range(d)]
        for a in range(d):  # its first nonzero entry (a, b) is that of w[a..b]
            code = 0
            for b in range(a, d):
                code = code * k + w[b]
                v = rows[b - a + 1][code]
                if m:
                    v %= m
                if v:
                    return (d, tuple(x + 1 for x in w), v)
    return None


def member_kernels(g: GroupWord, spec: FiltrationSpec) -> bool:
    """Membership via unipotent representations over the quotient rings."""
    return kernel_witness(g, spec) is None


# the most factors in a sampled product; each sample draws its count from 1..FANOUT
FANOUT = 2
# the most letters, before reduction, in a random word at level 1 of a recursive sampler
LEAF_LENGTH = 6
# the highest level a recursive sampler draws at: it recurses one call deeper
# per level, well inside the interpreter's default limit of 1000 frames
MAX_DEPTH = 500


def _check_request(level: int, count: int) -> None:
    """Refuse a sampler request before any table row is read or word drawn."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    check_cells("the sample count", "one word each", count)


def _sample_element(e, n, alphabet_size, rng) -> GroupWord:
    if n == 1:
        return random_word(alphabet_size, LEAF_LENGTH, rng)
    out = GroupWord(alphabet_size)
    for _ in range(rng.randint(1, FANOUT)):
        f = e.power_exponent(n)
        # a zero power exponent generates only the trivial subgroup, so the
        # power option disappears and the factor must be a commutator
        if f > 0 and rng.random() < 0.5:
            u = _sample_element(e, e.power_level(n), alphabet_size, rng)
            factor = u ** f
        else:
            s, t = rng.choice(e.splittings(n))
            u = _sample_element(e, s, alphabet_size, rng)
            v = _sample_element(e, t, alphabet_size, rng)
            factor = commutator(u, v)
        out = out * factor
    return out


def sample_recursive(
    e: EMap, level: int, alphabet_size: int, count: int = 30, seed: int = 0,
) -> list[GroupWord]:
    """`count` random elements of the level-n subgroup of the recursion that
    the table e defines (a `SequenceGcdEMap` or a `ZassenhausEMap`), members
    of its level-n term by construction.

    Each sample is a product of at most FANOUT factors, every factor either
    an e.power_exponent(n)-th power from level e.power_level(n) or a
    commutator across one of e.splittings(n); recursion bottoms out at level
    1 with random words of at most LEAF_LENGTH letters.  Deterministic for a
    fixed seed.  A level over MAX_DEPTH raises ValueError before any draw.
    """
    _check_request(level, count)
    if level > MAX_DEPTH:
        raise ValueError(f"level {level} is over the recursive sampler's depth limit"
                         f" of {MAX_DEPTH}")
    rng = random.Random(seed)
    return [_sample_element(e, level, alphabet_size, rng) for _ in range(count)]


def product_sampler(
    e: EMap, level: int, alphabet_size: int, count: int = 30, seed: int = 0,
) -> list[GroupWord]:
    """`count` random products of e(n, i)-th powers of realized basic commutators.

    Each factor picks a weight i <= n with e(n, i) != 0 that has Lyndon
    words, realizes a random Lyndon bracketing of that weight, and raises it
    to e(n, i).  On one letter only weight 1 has a Lyndon word, so when
    e(n, 1) = 0 no weight is left and every sample is the empty word.
    Outputs lie in the level-n product subgroup by construction.  That
    subgroup lies inside the level-n term that `member_series` decides when
    the table passes the binomial and valuation audits (`check_binomial`,
    `check_condition_iii`); other tables give no such guarantee: rows (1),
    (2, 1), (2, 2, 1) fail both audits, and some of their level-3 samples
    are not members.  Deterministic for a fixed seed.  The Lyndon words of
    every such weight are listed first; more than MAX_CELLS letters in all,
    weight times necklace(k, weight) summed over the weights, raise
    ValueError before any is listed.
    """
    _check_request(level, count)
    k = alphabet_size
    # on one letter only weight 1 can be drawn, so only e(n, 1) is read
    row = e.row(level) if k > 1 else (e.evaluate(level, 1),)
    weights = [i for i, v in enumerate(row, 1) if v != 0]
    check_cells(f"the product sampler at alphabet {k}, level {level}",
                "weight * necklace(alphabet, weight), summed over the weights",
                None if weights and surely_over(k, weights[-1])
                else sum(i * necklace(k, i) for i in weights))
    if not weights:
        return [GroupWord(k)] * count
    rng = random.Random(seed)
    pools = {i: list(lyndon_words(k, i)) for i in weights}
    out = []
    for _ in range(count):
        w = GroupWord(k)
        for _ in range(rng.randint(1, FANOUT)):
            i = rng.choice(weights)
            u = realize(basic_commutator(rng.choice(pools[i])), k)
            w = w * u ** row[i - 1]
        out.append(w)
    return out
