"""Membership in exponent-table filtrations, two ways, plus samplers.

The level-n term of the filtration attached to a descending exponent table
is the set of words whose Magnus expansion minus 1 lies in the level-n
ideal.  Membership is decided by two deliberately different routes:

* the series route checks the per-degree divisibility of the expansion
  over Z directly.  It reads degree 1 from an expansion at cap 1 first,
  and only if that passes, the degrees up to the last one whose divisor
  gcd(e(n, 1..d)) is not 1, from an expansion at that cap;
* the kernel route builds, for every monomial w of length d < n with
  e(n, d) != 1, the unipotent matrix of subword coefficients over
  Z/e(n,d) and demands the identity.

Neither route reads a degree whose divisor is 1: nothing there can fail.
The kernel route decides this from e(n, d) itself, not from the series
route's divisors, so the two routes share no rule about which degrees
count.

The two must agree on every input; a disagreement is a bug, never noise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .coeff import RingSpec, ZZ, reduce as ring_reduce
from .emap import (
    EMap,
    _is_prime,
    check_descending,
    divisor_witness,
    ideal_divisors,
    ideal_member_witness,
)
from .magnus import TruncSeries, magnus
from .words import (
    GroupWord,
    Monomial,
    basic_commutator,
    commutator,
    lyndon_words,
    random_word,
    realize,
)


class UniMatrix:
    """Upper unitriangular matrix; only the entries above the diagonal are kept.

    Indices are 1-based.  Entries are canonical ring elements; zeros are not
    stored, so the identity has an empty table.
    """

    __slots__ = ("size", "ring", "entries")

    def __init__(self, size: int, ring: RingSpec, entries=None):
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        clean: dict[tuple[int, int], int] = {}
        for (i, j), v in (entries or {}).items():
            if not 1 <= i < j <= size:
                raise ValueError(f"entry ({i}, {j}) not strictly above the diagonal")
            v = ring_reduce(v, ring)
            if v:
                clean[(i, j)] = v
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "entries", clean)

    def __setattr__(self, name, value):
        raise AttributeError("UniMatrix is immutable")

    @classmethod
    def identity(cls, size: int, ring: RingSpec) -> "UniMatrix":
        return cls(size, ring)

    def entry(self, i: int, j: int) -> int:
        if not (1 <= i <= self.size and 1 <= j <= self.size):
            raise ValueError(f"index ({i}, {j}) out of range for size {self.size}")
        if i == j:
            return ring_reduce(1, self.ring)
        return self.entries.get((i, j), 0)

    def is_identity(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UniMatrix)
            and self.size == other.size
            and self.ring == other.ring
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.size, self.ring, frozenset(self.entries.items())))

    def __mul__(self, other: "UniMatrix") -> "UniMatrix":
        if self.size != other.size or self.ring != other.ring:
            raise ValueError("mismatched size or ring")
        out = {}
        for i in range(1, self.size):
            for j in range(i + 1, self.size + 1):
                total = self.entries.get((i, j), 0) + other.entries.get((i, j), 0)
                for k in range(i + 1, j):
                    a = self.entries.get((i, k), 0)
                    b = other.entries.get((k, j), 0)
                    if a and b:
                        total += a * b
                if total:
                    out[(i, j)] = total
        return UniMatrix(self.size, self.ring, out)

    def equal_ignoring_corner(self, other: "UniMatrix") -> bool:
        """Equality in the quotient that forgets the (1, size) entry."""
        if self.size != other.size or self.ring != other.ring:
            return False
        corner = (1, self.size)
        a = {k: v for k, v in self.entries.items() if k != corner}
        b = {k: v for k, v in other.entries.items() if k != corner}
        return a == b

    def rows(self) -> list[list[int]]:
        """The full square matrix, diagonal included."""
        one = ring_reduce(1, self.ring)
        return [
            [one if i == j else self.entries.get((i, j), 0) if i < j else 0
             for j in range(1, self.size + 1)]
            for i in range(1, self.size + 1)
        ]

    def __repr__(self) -> str:
        return f"<UniMatrix size {self.size} over {self.ring}, {self.entries}>"


def _phi_from_series(w: Monomial, series: TruncSeries) -> UniMatrix:
    d = len(w)
    entries = {
        (i, j): series.coeffs.get(w[i - 1:j - 1], 0)
        for i in range(1, d + 1)
        for j in range(i + 1, d + 2)
    }
    return UniMatrix(d + 1, series.ring, entries)


def phi(w: Monomial, g: GroupWord, ring: RingSpec) -> UniMatrix:
    """The unipotent image of g attached to the monomial w = w1...wd.

    The (i, j) entry is the Magnus coefficient of g at the subword wi...w_{j-1},
    so the matrix has size d+1 and the map is a homomorphism into the
    unitriangular group over the ring.
    """
    w = tuple(w)
    if not w:
        raise ValueError("w must be a nonempty monomial")
    return _phi_from_series(w, magnus(g, ring, len(w)))


@dataclass(frozen=True)
class FiltrationSpec:
    """An exponent table and a level: one term of a filtration."""

    emap: EMap
    level: int

    def __post_init__(self):
        if self.level < 1:
            raise ValueError(f"level must be >= 1, got {self.level}")
        result = check_descending(self.emap, self.level)
        if not result.ok:
            raise ValueError(
                f"exponent table is not descending up to level {self.level}: "
                f"first violation at {result.violation}"
            )


def series_witness(g: GroupWord, spec: FiltrationSpec):
    """Failing (degree, monomial, coefficient) on the series route, or None.

    Degree 1 is read first, from an expansion at cap 1.  Only if it passes
    is the word expanded again, up to the last degree whose divisor is not
    1; the degrees above it cannot fail.  An expansion at cap c is exact in
    every degree up to c, so the witness is the first failing term in
    (length, lex) order, as if every degree below n had been expanded.
    """
    divisors = ideal_divisors(spec.emap, spec.level)
    if not divisors:
        return None
    one = TruncSeries.one(ZZ, g.alphabet_size, 1)
    witness = divisor_witness(magnus(g, ZZ, 1) - one, divisors[:1])
    top = len(divisors)
    if witness is not None or top == 1:
        return witness
    delta = magnus(g, ZZ, top) - TruncSeries.one(ZZ, g.alphabet_size, top)
    return ideal_member_witness(delta, spec.emap, spec.level)


def member_series(g: GroupWord, spec: FiltrationSpec) -> bool:
    """Membership via per-degree divisibility of the integral expansion."""
    return series_witness(g, spec) is None


def kernel_witness(g: GroupWord, spec: FiltrationSpec):
    """Failing (degree, monomial, entry) on the kernel route, or None.

    Words of each length d < n are scanned lazily in lexicographic order and
    the scan stops at the first non-identity image.  A length d with
    e(n, d) = 1 is skipped: over the zero ring Z/1 every matrix is the
    identity.  The expansion over Z/e(n,d) is shared by all words of length
    d, but each matrix is built and tested as a matrix.
    """
    n = spec.level
    k = g.alphabet_size
    for d in range(1, n):
        modulus = spec.emap.evaluate(n, d)
        if modulus == 1:
            continue
        series = magnus(g, RingSpec(modulus), d)
        for w in product(range(1, k + 1), repeat=d):
            image = _phi_from_series(w, series)
            if not image.is_identity():
                (i, j), v = min(image.entries.items())
                return (d, w, v)
    return None


def member_kernels(g: GroupWord, spec: FiltrationSpec) -> bool:
    """Membership via unipotent representations over the quotient rings."""
    return kernel_witness(g, spec) is None


@dataclass(frozen=True)
class SampleBudget:
    count: int = 30
    max_factor_length: int = 6
    fanout: int = 2

    def __post_init__(self):
        if self.count < 0 or self.max_factor_length < 1 or self.fanout < 1:
            raise ValueError("budget fields out of range")


@dataclass(frozen=True)
class AFiltration:
    """Recursion scheme: level n is generated by (level n-1)^a_{n-1} and
    commutators [level n-1, level 1]."""

    exponents: tuple[int, ...]

    def __init__(self, exponents):
        object.__setattr__(self, "exponents", tuple(int(a) for a in exponents))
        if any(a < 0 for a in self.exponents):
            raise ValueError("exponents must be >= 0")

    def power_exponent(self, n: int) -> int:
        if len(self.exponents) < n - 1:
            raise ValueError(f"need {n - 1} exponents for level {n}, have {len(self.exponents)}")
        return self.exponents[n - 2]

    def power_level(self, n: int) -> int:
        return n - 1

    def splittings(self, n: int):
        return [(n - 1, 1)]

    def describe(self) -> str:
        return "afilt:" + ",".join(str(a) for a in self.exponents)


@dataclass(frozen=True)
class QZassenhaus:
    """Recursion scheme: level n is generated by (level ceil(n/p))^q and
    commutators [level s, level t] over all splittings s + t = n, q = p^t."""

    p: int
    t: int = 1

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.t < 1:
            raise ValueError(f"t must be >= 1, got {self.t}")

    @property
    def q(self) -> int:
        return self.p ** self.t

    def power_exponent(self, n: int) -> int:
        return self.q

    def power_level(self, n: int) -> int:
        return -(-n // self.p)

    def splittings(self, n: int):
        return [(s, n - s) for s in range(1, n)]

    def describe(self) -> str:
        return f"zass:{self.p},{self.t}"


def _sample_element(scheme, n, alphabet_size, budget, rng) -> GroupWord:
    if n == 1:
        return random_word(alphabet_size, budget.max_factor_length, rng)
    out = GroupWord(alphabet_size)
    for _ in range(rng.randint(1, budget.fanout)):
        f = scheme.power_exponent(n)
        # a zero power exponent generates only the trivial subgroup, so the
        # power option disappears and the factor must be a commutator
        if f > 0 and rng.random() < 0.5:
            u = _sample_element(scheme, scheme.power_level(n), alphabet_size, budget, rng)
            factor = u ** f
        else:
            s, t = rng.choice(scheme.splittings(n))
            u = _sample_element(scheme, s, alphabet_size, budget, rng)
            v = _sample_element(scheme, t, alphabet_size, budget, rng)
            factor = commutator(u, v)
        out = out * factor
    return out


def sample_recursive(
    scheme, level: int, alphabet_size: int,
    budget: SampleBudget = SampleBudget(), seed: int = 0,
) -> list[GroupWord]:
    """Random elements of the level-n recursion subgroup, members by construction.

    Each sample is a product of at most fanout factors, every factor either a
    power_exponent-th power from the power_level or a commutator across an
    allowed splitting; recursion bottoms out at level 1 with short random
    words.  Deterministic for a fixed seed.
    """
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    rng = random.Random(seed)
    return [
        _sample_element(scheme, level, alphabet_size, budget, rng)
        for _ in range(budget.count)
    ]


def product_sampler(
    e: EMap, level: int, alphabet_size: int,
    budget: SampleBudget = SampleBudget(), seed: int = 0,
) -> list[GroupWord]:
    """Random products of e(n, i)-th powers of realized basic commutators.

    Each factor picks a weight i <= n with e(n, i) != 0 (weight n always
    qualifies since e(n, n) = 1), realizes a random Lyndon bracketing of that
    weight, and raises it to e(n, i).  Outputs lie in the level-n product
    subgroup by construction.  Deterministic for a fixed seed.
    """
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    rng = random.Random(seed)
    pools = {
        i: list(lyndon_words(alphabet_size, i))
        for i in range(1, level + 1)
    }
    weights = [i for i in range(1, level + 1) if e.evaluate(level, i) != 0]
    out = []
    for _ in range(budget.count):
        w = GroupWord(alphabet_size)
        for _ in range(rng.randint(1, budget.fanout)):
            i = rng.choice(weights)
            u = realize(basic_commutator(rng.choice(pools[i])), alphabet_size)
            w = w * u ** e.evaluate(level, i)
        out.append(w)
    return out
