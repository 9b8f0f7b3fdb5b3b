"""Exponent tables e(n, i) and the graded ideals of divisibility they cut out.

A table assigns a non-negative integer e(n, i) to every 1 <= i <= n.  It is
called descending when e(n, n) = 1 and each e(n, i) is a multiple of
e(n, i+1), where "multiple of 0" means equal to 0.  The associated ideal in
Z<<x1..xk>> consists of the series with zero constant term whose degree-i
part is divisible by e(n, i) for i < n; degrees >= n are unconstrained.
"""

from __future__ import annotations

from itertools import accumulate
from math import gcd

from .coeff import ZZ, Record, check_cells, divisible, spec_int
from .magnus import TruncSeries

# the most bits a computed power entry (zass, const) may have; an entry is
# refused from an upper bound on its bits, before the power is taken
MAX_ENTRY_BITS = 10**5


class CheckResult(tuple):
    """The verdict of an audit and its first violation, None when it passes:
    the pair (ok, violation), named as a NamedTuple names its fields."""

    __slots__ = ()

    def __new__(cls, ok: bool, violation: tuple | None):
        return tuple.__new__(cls, (ok, violation))

    def __getnewargs__(self):
        return tuple(self)

    ok = property(lambda self: self[0], doc="Whether the audit passed.")
    violation = property(lambda self: self[1], doc="The first violation, or None.")

    def __repr__(self) -> str:
        return f"CheckResult(ok={self.ok!r}, violation={self.violation!r})"


def _prime_factors(v: int, bound: int | None = None) -> dict[int, int]:
    """The primes p <= bound dividing v >= 1 (all of them when bound is None),
    with multiplicities, by trial division that tries no divisor past bound."""
    bound = v if bound is None else bound
    out: dict[int, int] = {}
    d = 2
    while d * d <= v and d <= bound:
        while v % d == 0:
            out[d] = out.get(d, 0) + 1
            v //= d
        d += 1 if d == 2 else 2
    if 1 < v <= bound:
        out[v] = out.get(v, 0) + 1
    return out


def _entry_power(n: int, i: int, base: int, exponent: int) -> int:
    """e(n, i) = base^exponent, or ValueError when its bits may exceed
    MAX_ENTRY_BITS: base^exponent < 2^(exponent * bits(base))."""
    if base > 1 and (bound := exponent * base.bit_length()) > MAX_ENTRY_BITS:
        raise ValueError(
            f"table entry e({n},{i}) has up to {bound} bits, "
            f"over the limit of {MAX_ENTRY_BITS}"
        )
    return base ** exponent


# Miller-Rabin with these bases decides primality exactly below PRIME_LIMIT,
# the least strong pseudoprime to all of them (Sorenson and Webster 2017)
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


class LimitError(ValueError):
    """An input over a documented limit, refused before any work is done."""


def _is_prime(v: int) -> bool:
    """Whether v is prime, by Miller-Rabin over PRIME_BASES; LimitError at or
    above PRIME_LIMIT, where those bases no longer decide it."""
    if v >= PRIME_LIMIT:
        raise LimitError(f"primality of {v} is decided only below the limit of {PRIME_LIMIT}")
    if v < 2:
        return False
    for p in PRIME_BASES:
        if v % p == 0:
            return v == p
    d, s = v - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in PRIME_BASES:
        x = pow(a, d, v)
        if x in (1, v - 1):
            continue
        for _ in range(s - 1):
            x = x * x % v
            if x == v - 1:
                break
        else:
            return False
    return True


class EMap(Record):
    """Base class; subclasses fill in _value(n, i) and name their parameters
    as `coeff.Record` fields, so equal parameters make equal tables: a family
    declares its own `__slots__` and passes their values to `super().__init__`.

    A family that is descending for every parameter says so with
    descending_by_construction, and FiltrationSpec then skips the scan.
    """

    __slots__ = ()
    descending_by_construction = False

    def evaluate(self, n: int, i: int) -> int:
        if n < 1 or not 1 <= i <= n:
            raise ValueError(f"need 1 <= i <= n, got (n, i) = ({n}, {i})")
        return self._value(n, i)

    def _value(self, n: int, i: int) -> int:
        raise NotImplementedError

    def row(self, n: int) -> tuple[int, ...]:
        """(e(n, 1), ..., e(n, n)); more than MAX_CELLS entries are refused
        before any is computed."""
        check_cells(f"row {n} of the exponent table", "one per entry e(n, 1..n)", n)
        return self._row(n)

    def _row(self, n: int) -> tuple[int, ...]:
        return tuple(self.evaluate(n, i) for i in range(1, n + 1))

    def describe(self) -> str:
        raise NotImplementedError


class TrivialEMap(EMap):
    """e(n, n) = 1 and e(n, i) = 0 below the diagonal."""

    __slots__ = ()
    descending_by_construction = True

    def _value(self, n, i):
        return 1 if i == n else 0

    def _row(self, n):
        # built at once: one evaluate per entry takes seconds at level 10^7
        return (0,) * (n - 1) + (1,)

    def describe(self):
        return "trivial"


class ConstantEMap(EMap):
    """e(n, i) = a^(n-i) for a fixed a >= 0, so each entry is a times the next."""

    __slots__ = _fields = ("a",)
    descending_by_construction = True

    def __init__(self, a: int):
        if a < 0:
            raise ValueError(f"base must be >= 0, got {a}")
        super().__init__(a)

    def _value(self, n, i):
        return _entry_power(n, i, self.a, n - i)

    def describe(self):
        return f"const:{self.a}"


class SequenceGcdEMap(EMap):
    """e(n, i) = gcd of all products of n-i distinct entries of a1..a_{n-1}.

    Symmetric in the first n-1 entries of the sequence.  Row n comes from
    Lazard's recurrence, one entry at a time: with g_j the gcd of the
    products of j distinct entries seen so far (g_0 = 1, and g_j = 0 while
    there are none), an entry a sends g_j to gcd(g_j, a * g_{j-1}).  A row
    costs O(n^2) gcds, and a single entry costs its whole row.  Each product
    of j entries is a multiple of a product of j - 1 of them, so g_j is a
    multiple of g_{j-1}: the rows descend.  Entries must be ints, not bools.
    """

    __slots__ = _fields = ("seq",)
    descending_by_construction = True

    def __init__(self, seq):
        seq = tuple(seq)
        if bad := [a for a in seq if type(a) is not int]:
            raise ValueError(f"sequence entries must be integers, got {bad[0]!r}")
        if any(a < 0 for a in seq):
            raise ValueError("sequence entries must be >= 0")
        super().__init__(seq)

    def _check_length(self, n):
        if len(self.seq) < n - 1:
            raise ValueError(
                f"need {n - 1} sequence entries for level {n}, have {len(self.seq)}"
            )

    def _row(self, n):
        self._check_length(n)
        g = [1] + [0] * (n - 1)
        for a in self.seq[: n - 1]:
            # from the top down, so each step reads g_{j-1} before a
            for j in range(n - 1, 0, -1):
                g[j] = gcd(g[j], a * g[j - 1])
        # e(n, i) = g_{n-i}
        return tuple(reversed(g))

    def _value(self, n, i):
        return self.row(n)[i - 1]

    # Lazard's recursion for this table: level n is generated by the
    # a_{n-1}-th powers of level n - 1 and the commutators [level n - 1, level 1]
    def power_exponent(self, n):
        self._check_length(n)
        return self.seq[n - 2]

    def power_level(self, n):
        return n - 1

    def splittings(self, n):
        return [(n - 1, 1)]

    def describe(self):
        return "gcdseq:" + ",".join(str(a) for a in self.seq)


class ZassenhausEMap(EMap):
    """e(n, i) = p^(t*j) where j is minimal with i*p^j >= n; j does not
    increase with i, and is 0 at i = n."""

    __slots__ = _fields = ("p", "t")
    descending_by_construction = True

    def __init__(self, p: int, t: int = 1):
        if not _is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if t < 1:
            raise ValueError(f"t must be >= 1, got {t}")
        super().__init__(p, t)

    def _value(self, n, i):
        j = 0
        v = i
        while v < n:
            v *= self.p
            j += 1
        return _entry_power(n, i, self.p, self.t * j)

    # the recursion for this table: level n is generated by the p^t-th powers
    # of level ceil(n/p), which is the entry e(n, ceil(n/p)) = p^t, and the
    # commutators [level s, level n - s] over every splitting
    def power_exponent(self, n):
        return self._value(n, self.power_level(n))

    def power_level(self, n):
        return -(-n // self.p)

    def splittings(self, n):
        return [(s, n - s) for s in range(1, n)]

    def describe(self):
        return f"zass:{self.p},{self.t}"


class ExplicitEMap(EMap):
    """Values from a finite table of rows {n: (e(n,1), ..., e(n,n))}, given
    as a mapping or as (n, row) pairs.

    Indices and values must be ints (a bool is not one), and no index may
    come twice: a table read from JSON is checked, not cast or merged.  It
    compares by `pairs`, the (n, row) pairs sorted by n; lookups read
    `table`, the rows as a dict, read-only like `TruncSeries.parts`."""

    __slots__ = ("pairs", "table")
    _fields = ("pairs",)

    def __init__(self, pairs):
        clean = {}
        for n, values in pairs.items() if isinstance(pairs, dict) else pairs:
            if type(n) is not int:
                raise ValueError(f"row index must be an integer, got {n!r}")
            if n in clean:
                raise ValueError(f"row {n} appears more than once")
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"row {n} must be a list of values, got {values!r}")
            if bad := [v for v in values if type(v) is not int]:
                raise ValueError(f"row {n} values must be integers, got {bad[0]!r}")
            values = tuple(values)
            if n < 1:
                raise ValueError(f"row index must be >= 1, got {n}")
            if len(values) != n:
                raise ValueError(f"row {n} must have {n} values, got {len(values)}")
            if any(v < 0 for v in values):
                raise ValueError(f"row {n} has negative entries")
            clean[n] = values
        super().__init__(tuple(sorted(clean.items())), clean)

    def _value(self, n, i):
        if n not in self.table:
            raise ValueError(f"no table row for n = {n}")
        return self.table[n][i - 1]

    def describe(self):
        return "explicit"


def check_descending(e: EMap, n_max: int) -> CheckResult:
    """e(n, n) = 1 and e(n, i) in e(n, i+1)*Z for all n <= n_max.

    The violation, if any, is the first (n, i) in scan order; the diagonal
    condition reports as (n, n).
    """
    for n in range(1, n_max + 1):
        row = e.row(n)
        for i in range(1, n):
            if not divisible(row[i - 1], row[i]):
                return CheckResult(False, (n, i))
        if row[n - 1] != 1:
            return CheckResult(False, (n, n))
    return CheckResult(True, None)


def check_binomial(e: EMap, n_max: int) -> CheckResult:
    """binom(e(n,i), l) in e(n, i*l)*Z whenever l <= e(n,i) and i*l <= n.

    l never exceeds n (since i*l <= n forces l <= n), and e(n, i) = 0 leaves
    nothing to check.  Violations report as (n, i, l).
    """
    for n in range(1, n_max + 1):
        row = e.row(n)
        for i in range(1, n + 1):
            v = row[i - 1]
            c = 1  # binom(v, l), from binom(v, l - 1) by an exact division
            for l in range(1, min(v, n // i) + 1):
                c = c * (v - l + 1) // l
                if not divisible(c, row[i * l - 1]):
                    return CheckResult(False, (n, i, l))
    return CheckResult(True, None)


def _p_valuation(v: int, p: int) -> int:
    r = 0
    while v % p == 0:
        v //= p
        r += 1
    return r


def check_condition_iii(e: EMap, n_max: int) -> CheckResult:
    """For each prime p | e(n,i) and each r with i*p^r <= n:

    if v_p(e(n,i)) >= r then v_p(e(n,i)) - r >= v_p(e(n, i*p^r)).

    Zero values check vacuously (their valuation is infinite).  Violations
    report as (n, i, r, p).
    """
    for n in range(1, n_max + 1):
        row = e.row(n)
        for i in range(1, n + 1):
            v = row[i - 1]
            if v == 0:
                continue
            # a prime p with i*p > n has no r to check
            for p, s in _prime_factors(v, n // i).items():
                target = i * p
                r = 1
                while target <= n and r <= s:
                    other = row[target - 1]
                    # a descending row cannot put 0 to the right of a nonzero
                    # value, so other == 0 counts as an infinite valuation
                    if other == 0 or s - r < _p_valuation(other, p):
                        return CheckResult(False, (n, i, r, p))
                    target *= p
                    r += 1
    return CheckResult(True, None)


def prefix_gcds(values) -> list[int]:
    """The running gcds gcd(v1), gcd(v1, v2), ... of a sequence of integers."""
    return list(accumulate(values, gcd, initial=0))[1:]


def ideal_divisors(row) -> list[int]:
    """The divisors gcd(e(n, 1..d)) of the level-n ideal for d = 1, 2, ...,
    up to its last degree whose divisor is not 1, from row n of the table.

    The running gcd never leaves 1 once it gets there, so the degrees past
    the list, and degrees >= n, constrain nothing.
    """
    divisors = prefix_gcds(row[:-1])
    while divisors and divisors[-1] == 1:
        divisors.pop()
    return divisors


def normalize(e: EMap, n_max: int) -> ExplicitEMap:
    """Replace each row by its prefix gcds: e'(n, i) = gcd(e(n,1..i)).

    The result is descending and generates the same ideal in every degree.
    Requires e(n, n) = 1 for all n <= n_max.
    """
    table = {}
    for n in range(1, n_max + 1):
        row = e.row(n)
        if row[n - 1] != 1:
            raise ValueError(f"e({n},{n}) = {row[n - 1]} != 1; cannot normalize")
        table[n] = tuple(prefix_gcds(row))
    return ExplicitEMap(table)


def divisor_witness(s: TruncSeries, divisors) -> tuple | None:
    """First (length, lex) term of s of degree 1 <= d <= len(divisors) not
    divisible by divisors[d - 1], or None; the constant term is not read."""
    for d, (divisor, part) in enumerate(zip(divisors, s.parts[1:]), 1):
        if failing := [w for w, c in part.items() if not divisible(c, divisor)]:
            w = min(failing)
            return (d, w, part[w])
    return None


def ideal_member_witness(s: TruncSeries, e: EMap, n: int):
    """First (length, lex) coefficient of s breaking membership, or None.

    Membership in the level-n ideal means: zero constant term, and every
    degree-i coefficient divisible by gcd(e(n,1..i)) for 1 <= i <= n-1.
    Degrees >= n are unconstrained, and so are degrees whose divisor is 1,
    so s needs a cap only up to the last degree whose divisor is not 1.
    For descending tables the prefix gcd is e(n, i) itself.
    """
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")
    if s.ring != ZZ:
        raise ValueError(f"ideal membership is over Z, series is over {s.ring}")
    divisors = ideal_divisors(e.row(n))
    if s.cap < len(divisors):
        raise ValueError(
            f"cap {s.cap} too small: membership at level {n} reads degrees up to {len(divisors)}"
        )
    if c := s.parts[0].get(()):
        return (0, (), c)
    return divisor_witness(s, divisors)


def ideal_member(s: TruncSeries, e: EMap, n: int) -> bool:
    return ideal_member_witness(s, e, n) is None


def spec_ints(body: str, count: int | None = None) -> list[int]:
    """The comma-separated integers of a spec body (see `spec_int`), exactly
    `count` if given."""
    values = [spec_int(a) for a in body.split(",")]
    if count is not None and len(values) != count:
        raise ValueError(f"expected {count} integers, got {len(values)}")
    return values


def read_json(path: str, what: str):
    """The JSON in the file at path; a failure to read it raises "cannot read <what> ..."."""
    import json  # only files read JSON; the CLI has it loaded already
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"cannot read {what} {path!r}: {exc}") from exc


def parse_emap(text: str) -> EMap:
    """Parse an e-map spec string.

    Grammar: "trivial" | "const:<a>" | "gcdseq:<a1>,<a2>,..." | "zass:<p>,<t>"
    | "file:<path>" where the file holds a JSON array of rows
    {"n": ..., "values": [e(n,1), ..., e(n,n)]}.
    """
    text = text.strip()
    if text == "trivial":
        return TrivialEMap()
    kind, sep, body = text.partition(":")
    if not sep:
        raise ValueError(f"bad e-map spec {text!r}")
    try:
        if kind == "const":
            return ConstantEMap(spec_int(body))
        if kind == "gcdseq":
            return SequenceGcdEMap(spec_ints(body))
        if kind == "zass":
            return ZassenhausEMap(*spec_ints(body, 2))
    except LimitError:
        raise
    except ValueError as exc:
        raise ValueError(f"bad e-map spec {text!r}: {exc}") from exc
    if kind == "file":
        try:
            # pairs, not a dict: a repeated n or n = true beside n = 1 is refused
            pairs = [(row["n"], row["values"]) for row in read_json(body, "e-map table")]
        except (TypeError, KeyError) as exc:
            raise ValueError(f"bad e-map table in {body!r}: expected rows with n and values") from exc
        return ExplicitEMap(pairs)
    raise ValueError(f"bad e-map spec {text!r}: unknown kind {kind!r}")
