"""Truncated power series in non-commuting variables and the Magnus expansion.

A series lives in R<<x1..xk>> with all terms of degree > cap discarded.
The expansion sends xi to 1 + xi and xi^-1 to the geometric series
(1 + xi)^-1 = 1 - xi + xi^2 - ..., truncated at the cap; a run xi^k goes
to (1 + xi)^k = sum_j binom(k, j) xi^j in one step.
"""

from __future__ import annotations

from .coeff import RingSpec
from .words import GroupWord, Monomial, format_monomial


class CapExceededError(ValueError):
    """A coefficient beyond the degree cap was requested; it is unknown, not zero."""


def _canonical(coeffs: dict, modulus: int) -> dict:
    """Coefficients reduced into Z/modulus (Z when 0), zeros dropped."""
    if modulus:
        return {w: r for w, c in coeffs.items() if (r := c % modulus)}
    return {w: c for w, c in coeffs.items() if c}


class TruncSeries:
    """Sparse truncated series: a dict from monomials to nonzero ring elements.

    Instances are canonical (coefficients reduced into the ring, zeros never
    stored) and treated as immutable.  Binary operations require matching
    ring, alphabet and cap.
    """

    __slots__ = ("ring", "alphabet_size", "cap", "coeffs")

    def __init__(self, ring: RingSpec, alphabet_size: int, cap: int, coeffs=None):
        if alphabet_size < 1:
            raise ValueError(f"alphabet size must be >= 1, got {alphabet_size}")
        if cap < 1:
            raise ValueError(f"degree cap must be >= 1, got {cap}")
        checked: dict[Monomial, int] = {}
        for w, c in (coeffs or {}).items():
            w = tuple(w)
            if len(w) > cap:
                raise ValueError(f"monomial {w} exceeds degree cap {cap}")
            if any(not 1 <= i <= alphabet_size for i in w):
                raise ValueError(f"monomial {w} outside alphabet of size {alphabet_size}")
            checked[w] = c
        self._store(ring, alphabet_size, cap, checked)

    @classmethod
    def _trusted(cls, ring: RingSpec, alphabet_size: int, cap: int, coeffs) -> "TruncSeries":
        """Wrap an internal result whose monomials are known to fit the cap and
        alphabet; only the coefficients are reduced."""
        series = object.__new__(cls)
        series._store(ring, alphabet_size, cap, coeffs)
        return series

    def _store(self, ring: RingSpec, alphabet_size: int, cap: int, coeffs):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "alphabet_size", alphabet_size)
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "coeffs", _canonical(coeffs, ring.modulus))

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    @classmethod
    def one(cls, ring: RingSpec, alphabet_size: int, cap: int) -> "TruncSeries":
        return cls(ring, alphabet_size, cap, {(): 1})

    def _require_compatible(self, other: "TruncSeries"):
        if (
            self.ring != other.ring
            or self.alphabet_size != other.alphabet_size
            or self.cap != other.cap
        ):
            raise ValueError("mismatched ring, alphabet or cap")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncSeries)
            and self.ring == other.ring
            and self.alphabet_size == other.alphabet_size
            and self.cap == other.cap
            and self.coeffs == other.coeffs
        )

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._require_compatible(other)
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, 0) + c
        return TruncSeries._trusted(self.ring, self.alphabet_size, self.cap, out)

    def __neg__(self) -> "TruncSeries":
        return self.scale(-1)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self + (-other)

    def scale(self, c: int) -> "TruncSeries":
        return TruncSeries._trusted(
            self.ring, self.alphabet_size, self.cap,
            {w: c * a for w, a in self.coeffs.items()},
        )

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        """Concatenation product; terms pushed past the cap are dropped."""
        self._require_compatible(other)
        cap = self.cap
        out: dict[Monomial, int] = {}
        for u, a in self.coeffs.items():
            room = cap - len(u)
            for v, b in other.coeffs.items():
                if len(v) <= room:
                    w = u + v
                    out[w] = out.get(w, 0) + a * b
        return TruncSeries._trusted(self.ring, self.alphabet_size, cap, out)

    def sorted_terms(self):
        """Terms in (length, lex) order."""
        return sorted(self.coeffs.items(), key=lambda item: (len(item[0]), item[0]))

    def __repr__(self) -> str:
        terms = self.sorted_terms()
        if not terms:
            body = "0"
        else:
            body = " + ".join(f"{c}*{format_monomial(w)}" for w, c in terms)
        return f"<TruncSeries {body} over {self.ring}, cap {self.cap}>"


def coefficient(series: TruncSeries, w: Monomial) -> int:
    """The coefficient at w; degrees beyond the cap raise, never silently 0."""
    w = tuple(w)
    if len(w) > series.cap:
        raise CapExceededError(
            f"degree {len(w)} exceeds cap {series.cap}; coefficient is unknown"
        )
    for c in w:
        if not 1 <= c <= series.alphabet_size:
            raise ValueError(
                f"monomial {w} uses letter {c} outside x1..x{series.alphabet_size}"
            )
    return series.coeffs.get(w, 0)


def magnus(g: GroupWord, ring: RingSpec, cap: int) -> TruncSeries:
    """The truncated Magnus expansion of a group word.

    A run xi^k expands to (1 + xi)^k = sum_{j <= cap} binom(k, j) xi^j, with
    the generalised binomial k(k-1)...(k-j+1)/j! when k < 0, so the word
    costs one series product per run, left to right, however long the runs.
    Each product updates the accumulated coefficients in place: a snapshot
    of them supplies every term's left factor, so each reads its value from
    before the run, and a coefficient that becomes 0 is dropped at once.
    """
    if cap < 1:
        raise ValueError(f"degree cap must be >= 1, got {cap}")
    m = ring.modulus
    acc: dict[Monomial, int] = {(): 1}
    for i, k in g.runs:
        # the run's terms of degree >= 1; its constant term 1 keeps acc
        terms = []
        c = k
        for j in range(1, cap + 1):
            if r := c % m if m else c:
                terms.append((j, (i,) * j, r))
            c = c * (k - j) // (j + 1)
        for u, a in list(acc.items()):
            room = cap - len(u)
            for j, tail, c in terms:
                if j > room:
                    break
                w = u + tail
                v = acc.get(w, 0) + a * c
                if m:
                    v %= m
                if v:
                    acc[w] = v
                else:
                    acc.pop(w, None)
    return TruncSeries._trusted(ring, g.alphabet_size, cap, acc)


def series_json(series: TruncSeries) -> dict:
    """JSON-ready form: terms in (length, lex) order, coefficients as strings."""
    return {
        "ring": str(series.ring),
        "cap": series.cap,
        "terms": [
            {"word": format_monomial(w), "coeff": str(c)}
            for w, c in series.sorted_terms()
        ],
    }
