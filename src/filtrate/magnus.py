"""Truncated power series in non-commuting variables and the Magnus expansion.

A series lives in R<<x1..xk>> with all terms of degree > cap discarded.
The expansion sends xi to 1 + xi and xi^-1 to the geometric series
(1 + xi)^-1 = 1 - xi + xi^2 - ..., truncated at the cap.  `magnus` takes a
run xi^k in one step: it multiplies by (1 + xi)^k = sum_j binom(k, j) xi^j
when k > 0, and divides by (1 + xi)^|k| when k < 0; at cap 1 both come to
adding k times the constant term at xi, one update per run.  It takes a
power u^q of a word that keeps its powers by repeated squaring of u's
expansion.
"""

from __future__ import annotations

from .coeff import Record, RingSpec, check_cells
from .words import GroupWord, Monomial, _inverse, format_monomial


class CapExceededError(ValueError):
    """A coefficient beyond the degree cap was requested; it is unknown, not zero."""


def _canonical(coeffs: dict, modulus: int) -> dict:
    """Coefficients reduced into Z/modulus (Z when 0), zeros dropped."""
    if modulus:
        return {w: r for w, c in coeffs.items() if (r := c % modulus)}
    return {w: c for w, c in coeffs.items() if c}


class TruncSeries(Record):
    """Sparse truncated series, kept by degree: parts[d] maps the monomials
    of length d to their nonzero ring elements, for 0 <= d <= cap.

    Instances are canonical (coefficients reduced into the ring, zeros never
    stored) and values (see `coeff.Record`): immutable, copyable and
    picklable, but not hashable, since parts holds dicts.  Binary operations
    require matching ring, alphabet and cap.
    """

    __slots__ = _fields = ("ring", "alphabet_size", "cap", "parts")
    __hash__ = None

    def __init__(self, ring: RingSpec, alphabet_size: int, cap: int, coeffs=None):
        if alphabet_size < 1:
            raise ValueError(f"alphabet size must be >= 1, got {alphabet_size}")
        if cap < 1:
            raise ValueError(f"degree cap must be >= 1, got {cap}")
        parts: list[dict[Monomial, int]] = [{} for _ in range(cap + 1)]
        for w, c in (coeffs or {}).items():
            w = tuple(w)
            if len(w) > cap:
                raise ValueError(f"monomial {w} exceeds degree cap {cap}")
            if any(not 1 <= i <= alphabet_size for i in w):
                raise ValueError(f"monomial {w} outside alphabet of size {alphabet_size}")
            parts[len(w)][w] = c
        super().__init__(ring, alphabet_size, cap, [_canonical(p, ring.modulus) for p in parts])

    @property
    def coeffs(self) -> dict:
        """Every term in one new dict, a flat view of parts."""
        return {w: c for part in self.parts for w, c in part.items()}

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

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._require_compatible(other)
        out = self.coeffs
        for w, c in other.coeffs.items():
            out[w] = out.get(w, 0) + c
        return TruncSeries(self.ring, self.alphabet_size, self.cap, out)

    def __neg__(self) -> "TruncSeries":
        return self.scale(-1)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self + (-other)

    def scale(self, c: int) -> "TruncSeries":
        return TruncSeries(self.ring, self.alphabet_size, self.cap,
                           {w: c * a for w, a in self.coeffs.items()})

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        """Concatenation product; terms pushed past the cap are dropped."""
        self._require_compatible(other)
        parts = _product(self.parts, other.parts, self.ring.modulus, self.cap)
        return TruncSeries._make(self.ring, self.alphabet_size, self.cap, parts)

    def sorted_terms(self):
        """Terms in (length, lex) order."""
        return [term for part in self.parts for term in sorted(part.items())]

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
    return series.parts[len(w)].get(w, 0)


def _one(m: int, cap: int) -> list[dict]:
    """The parts of the series 1 over Z/m (Z when 0); over Z/1 it is 0."""
    return [{} if m == 1 else {(): 1}] + [{} for _ in range(cap)]


def _product(a: list[dict], b: list[dict], m: int, cap: int) -> list[dict]:
    """The product of two series kept by degree, truncated at the cap: degree
    d sums a[i] b[d-i] over i, reduced into Z/m (Z when 0), zeros dropped."""
    out = []
    for d in range(cap + 1):
        part: dict[Monomial, int] = {}
        for i in range(d + 1):
            right = b[d - i]
            if not right:
                continue
            for u, x in a[i].items():
                for v, y in right.items():
                    w = u + v
                    part[w] = part.get(w, 0) + x * y
        out.append(_canonical(part, m))
    return out


def _apply_run(parts: list[dict], i: int, k: int, m: int, cap: int):
    """Multiply parts, kept by degree, by the expansion of the run xi^k in place.

    With k > 0 this multiplies by (1 + xi)^k: degree d gains
    sum_j binom(k, j) parts[d-j] xi^j over 1 <= j <= min(k, d), and the
    degrees are updated from the cap down, so each reads parts[d-j] from
    before the run.  With k < 0 it divides by (1 + xi)^|k|, whose constant
    term is 1, so over every Z/m the quotient r is unique: degree d of r is
    parts[d] - sum_j binom(|k|, j) r[d-j] xi^j, and the degrees are updated
    from 1 up, so each reads parts[d-j] already divided.  Either sign costs
    min(|k|, cap) terms, and a coefficient that becomes 0 is dropped at once.
    """
    # (j, xi^j, +-binom(|k|, j)) for the run's nonzero binomials, j >= 1
    n = abs(k)
    terms = []
    c = 1
    for j in range(1, min(n, cap) + 1):
        c = c * (n - j + 1) // j
        if r := c % m if m else c:
            terms.append((j, (i,) * j, r if k > 0 else -r))
    for d in range(cap, 0, -1) if k > 0 else range(1, cap + 1):
        part = parts[d]
        for j, tail, b in terms:
            if j > d:
                break
            for u, a in parts[d - j].items():
                w = u + tail
                v = part.get(w, 0) + a * b
                if m:
                    v %= m
                if v:
                    part[w] = v
                else:
                    part.pop(w, None)


def _walk(parts: list[dict], program, m: int, cap: int) -> list[dict]:
    """parts times the expansion of a word's program (see GroupWord).

    A run node (i, k) is applied in place.  At cap 1 that is one update:
    (1 + xi)^k truncated at degree 1 is 1 + k xi for either sign of k, so
    degree 1 gains k c0 at xi, with c0 the constant term (0 over Z/1); at
    a higher cap `_apply_run` applies it.  A power node (body, q) expands
    body once and multiplies parts by it |q| times by repeated squaring,
    O(log |q|) products; a node with q < 0 takes the |q|-th power of the
    inverse body, so no series is ever inverted.
    """
    for body, q in program:
        if type(body) is int:
            if cap > 1:
                _apply_run(parts, body, q, m, cap)
            elif c0 := parts[0].get((), 0):
                part = parts[1]
                w = (body,)
                v = part.get(w, 0) + q * c0
                if m:
                    v %= m
                if v:
                    part[w] = v
                else:
                    part.pop(w, None)
            continue
        if q < 0:
            body, q = _inverse(body), -q
        base = _walk(_one(m, cap), body, m, cap)
        while True:
            if q & 1:
                parts = _product(parts, base, m, cap)
            q >>= 1
            if not q:
                break
            base = _product(base, base, m, cap)
    return parts


def magnus(g: GroupWord, ring: RingSpec, cap: int) -> TruncSeries:
    """The truncated Magnus expansion of a group word.

    The coefficients are kept by degree, parts[d].  `_walk` goes over
    `GroupWord.program_at(cap)`: the word's runs, one pass each however
    long, or the program that keeps its powers when that is estimated
    cheaper at this cap, so that a power u^q costs O(log |q|) truncated
    products, not |q| passes over u's runs.  The expansion is a
    homomorphism, so both give the same series.  A cap whose cap + 1
    degrees exceed MAX_CELLS is refused before any is made.
    """
    if cap < 1:
        raise ValueError(f"degree cap must be >= 1, got {cap}")
    check_cells(f"the Magnus expansion at cap {cap}", "one per degree 0..cap", cap + 1)
    m = ring.modulus
    parts = _walk(_one(m, cap), g.program_at(cap), m, cap)
    return TruncSeries._make(ring, g.alphabet_size, cap, parts)


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
