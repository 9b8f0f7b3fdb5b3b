"""Exponent tables e(n, i) and the graded ideals of divisibility they cut out.

A table assigns a non-negative integer e(n, i) to every 1 <= i <= n.  It is
called descending when e(n, n) = 1 and each e(n, i) is a multiple of
e(n, i+1), where "multiple of 0" means equal to 0.  The associated ideal in
Z<<x1..xk>> consists of the series with zero constant term whose degree-i
part is divisible by e(n, i) for i < n; degrees >= n are unconstrained.
"""

from __future__ import annotations

import json
from itertools import accumulate
from math import comb, gcd
from typing import NamedTuple

from .coeff import ZZ, divisible
from .magnus import TruncSeries


class CheckResult(NamedTuple):
    ok: bool
    violation: tuple | None


def _prime_factors(v: int) -> dict[int, int]:
    """Prime factorization of v >= 1 by trial division."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= v:
        while v % d == 0:
            out[d] = out.get(d, 0) + 1
            v //= d
        d += 1 if d == 2 else 2
    if v > 1:
        out[v] = out.get(v, 0) + 1
    return out


def _is_prime(v: int) -> bool:
    return v >= 2 and list(_prime_factors(v)) == [v]


class EMap:
    """Base class; subclasses fill in _value(n, i)."""

    def evaluate(self, n: int, i: int) -> int:
        if n < 1 or not 1 <= i <= n:
            raise ValueError(f"need 1 <= i <= n, got (n, i) = ({n}, {i})")
        return self._value(n, i)

    def _value(self, n: int, i: int) -> int:
        raise NotImplementedError

    def row(self, n: int) -> tuple[int, ...]:
        return tuple(self.evaluate(n, i) for i in range(1, n + 1))

    def describe(self) -> str:
        raise NotImplementedError


class TrivialEMap(EMap):
    """e(n, n) = 1 and e(n, i) = 0 below the diagonal."""

    def _value(self, n, i):
        return 1 if i == n else 0

    def describe(self):
        return "trivial"

    def __repr__(self):
        return "TrivialEMap()"


class ConstantEMap(EMap):
    """e(n, i) = a^(n-i) for a fixed a >= 0."""

    def __init__(self, a: int):
        if a < 0:
            raise ValueError(f"base must be >= 0, got {a}")
        self.a = a

    def _value(self, n, i):
        return self.a ** (n - i)

    def describe(self):
        return f"const:{self.a}"

    def __repr__(self):
        return f"ConstantEMap({self.a})"


class SequenceGcdEMap(EMap):
    """e(n, i) = gcd of all products of n-i distinct entries of a1..a_{n-1}.

    Symmetric in the first n-1 entries of the sequence.  Row n comes from
    Lazard's recurrence, one entry at a time: with g_j the gcd of the
    products of j distinct entries seen so far (g_0 = 1, and g_j = 0 while
    there are none), an entry a sends g_j to gcd(g_j, a * g_{j-1}).  Rows
    are memoized.
    """

    def __init__(self, seq):
        seq = tuple(int(a) for a in seq)
        if any(a < 0 for a in seq):
            raise ValueError("sequence entries must be >= 0")
        self.seq = seq
        self._rows: dict[int, list[int]] = {}

    def _value(self, n, i):
        if i == n:
            return 1
        if len(self.seq) < n - 1:
            raise ValueError(
                f"need {n - 1} sequence entries for level {n}, have {len(self.seq)}"
            )
        row = self._rows.get(n)
        if row is None:
            row = [1] + [0] * (n - 1)
            for a in self.seq[: n - 1]:
                # from the top down, so each step reads g_{j-1} before a
                for j in range(n - 1, 0, -1):
                    row[j] = gcd(row[j], a * row[j - 1])
            self._rows[n] = row
        return row[n - i]

    def describe(self):
        return "gcdseq:" + ",".join(str(a) for a in self.seq)

    def __repr__(self):
        return f"SequenceGcdEMap({self.seq})"


class ZassenhausEMap(EMap):
    """e(n, i) = p^(t*j) where j is minimal with i*p^j >= n."""

    def __init__(self, p: int, t: int = 1):
        if not _is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if t < 1:
            raise ValueError(f"t must be >= 1, got {t}")
        self.p = p
        self.t = t

    def _value(self, n, i):
        j = 0
        v = i
        while v < n:
            v *= self.p
            j += 1
        return self.p ** (self.t * j)

    def describe(self):
        return f"zass:{self.p},{self.t}"

    def __repr__(self):
        return f"ZassenhausEMap({self.p}, {self.t})"


class ExplicitEMap(EMap):
    """Values from a finite table of rows {n: (e(n,1), ..., e(n,n))}."""

    def __init__(self, table):
        clean = {}
        for n, values in table.items():
            n = int(n)
            values = tuple(int(v) for v in values)
            if n < 1:
                raise ValueError(f"row index must be >= 1, got {n}")
            if len(values) != n:
                raise ValueError(f"row {n} must have {n} values, got {len(values)}")
            if any(v < 0 for v in values):
                raise ValueError(f"row {n} has negative entries")
            clean[n] = values
        self.table = clean

    def _value(self, n, i):
        if n not in self.table:
            raise ValueError(f"no table row for n = {n}")
        return self.table[n][i - 1]

    def describe(self):
        return "explicit"

    def __repr__(self):
        return f"ExplicitEMap({self.table})"


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
            top = min(v, n // i)
            for l in range(1, top + 1):
                if not divisible(comb(v, l), row[i * l - 1]):
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
            for p, s in _prime_factors(v).items():
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


def ideal_divisors(e: EMap, n: int) -> list[int]:
    """The divisors gcd(e(n, 1..d)) of the level-n ideal for d = 1, 2, ...,
    up to its last degree whose divisor is not 1.

    The running gcd never leaves 1 once it gets there, so the degrees past
    the list, and degrees >= n, constrain nothing.
    """
    divisors = prefix_gcds(e.evaluate(n, i) for i in range(1, n))
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
    """First (length, lex) term of s with a nonzero constant, or of degree
    d <= len(divisors) not divisible by divisors[d - 1]; None if there is none."""
    for w, c in s.sorted_terms():
        d = len(w)
        if d == 0:
            return (0, w, c)
        if d > len(divisors):
            break
        if not divisible(c, divisors[d - 1]):
            return (d, w, c)
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
    divisors = ideal_divisors(e, n)
    if s.cap < len(divisors):
        raise ValueError(
            f"cap {s.cap} too small: membership at level {n} reads degrees up to {len(divisors)}"
        )
    return divisor_witness(s, divisors)


def ideal_member(s: TruncSeries, e: EMap, n: int) -> bool:
    return ideal_member_witness(s, e, n) is None


def spec_ints(body: str, count: int | None = None) -> list[int]:
    """The comma-separated integers of a spec body, exactly `count` if given."""
    values = [int(a) for a in body.split(",")]
    if count is not None and len(values) != count:
        raise ValueError(f"expected {count} integers, got {len(values)}")
    return values


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
            return ConstantEMap(int(body))
        if kind == "gcdseq":
            return SequenceGcdEMap(spec_ints(body))
        if kind == "zass":
            return ZassenhausEMap(*spec_ints(body, 2))
    except ValueError as exc:
        raise ValueError(f"bad e-map spec {text!r}: {exc}") from exc
    if kind == "file":
        try:
            with open(body, encoding="utf-8") as fh:
                rows = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read e-map table {body!r}: {exc}") from exc
        try:
            table = {row["n"]: row["values"] for row in rows}
        except (TypeError, KeyError) as exc:
            raise ValueError(f"bad e-map table in {body!r}: expected rows with n and values") from exc
        return ExplicitEMap(table)
    raise ValueError(f"bad e-map spec {text!r}: unknown kind {kind!r}")
