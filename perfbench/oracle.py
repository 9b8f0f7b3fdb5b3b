"""An oracle for the benchmark, written from definitions without filtrate.

Nothing here imports the package under test.  The parts are:

* a word parser and a run-length Magnus expander over Z and Z/m: a run
  x_i^k expands as sum_j binom(k, j) x_i^j (generalised binomial for k < 0),
  compound powers go by repeated squaring and [a, b] = a^-1 b^-1 a b;
* exponent-table rows from the formulas in the package README, and the
  per-degree prefix-gcd membership test with both routes' witnesses;
* the Moebius necklace count;
* the descending, binomial (math.comb) and valuation audits.

A series is a list indexed by degree 0..cap of dicts {monomial: coefficient},
monomials being tuples of generator indices; zero coefficients are dropped.
"""

from __future__ import annotations

import json
from itertools import combinations, product
from math import comb, gcd


# ---------------------------------------------------------------- words

def parse(text: str):
    """Parse the word grammar into a tree of tuples.

    ("gen", i) | ("id",) | ("mul", [node, ...]) | ("pow", node, k)
    | ("comm", a, b).  Raises ValueError on malformed text.
    """
    pos = 0
    n = len(text)

    def ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def integer():
        nonlocal pos
        start = pos
        if pos < n and text[pos] == "-":
            pos += 1
        while pos < n and text[pos].isdigit():
            pos += 1
        body = text[start:pos]
        if body in ("", "-"):
            raise ValueError(f"expected an integer at {start} in {text!r}")
        return int(body)

    def word():
        nonlocal pos
        parts = [term()]
        ws()
        while pos < n and text[pos] == "*":
            pos += 1
            parts.append(term())
            ws()
        return parts[0] if len(parts) == 1 else ("mul", parts)

    def term():
        nonlocal pos
        node = atom()
        ws()
        if pos < n and text[pos] == "^":
            pos += 1
            ws()
            node = ("pow", node, integer())
        return node

    def expect(ch):
        nonlocal pos
        ws()
        if pos >= n or text[pos] != ch:
            raise ValueError(f"expected {ch!r} at {pos} in {text!r}")
        pos += 1

    def atom():
        nonlocal pos
        ws()
        ch = text[pos] if pos < n else ""
        if ch == "x":
            pos += 1
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            if start == pos:
                raise ValueError(f"expected a generator index at {start} in {text!r}")
            return ("gen", int(text[start:pos]))
        if ch == "e":
            pos += 1
            return ("id",)
        if ch == "[":
            pos += 1
            a = word()
            expect(",")
            b = word()
            expect("]")
            return ("comm", a, b)
        if ch == "(":
            pos += 1
            a = word()
            expect(")")
            return a
        raise ValueError(f"unexpected {ch!r} at {pos} in {text!r}")

    node = word()
    ws()
    if pos != n:
        raise ValueError(f"trailing text at {pos} in {text!r}")
    return node


def flatten(node, inverse: bool = False) -> list[int]:
    """The freely unreduced letter string of a word tree, as signed indices."""
    kind = node[0]
    if kind == "gen":
        return [-node[1] if inverse else node[1]]
    if kind == "id":
        return []
    if kind == "mul":
        parts = reversed(node[1]) if inverse else node[1]
        return [s for p in parts for s in flatten(p, inverse)]
    if kind == "pow":
        k = -node[2] if inverse else node[2]
        return flatten(node[1], k < 0) * abs(k)
    a, b = node[1], node[2]
    if inverse:
        a, b = b, a
    return flatten(a, True) + flatten(b, True) + flatten(a) + flatten(b)


def reduced_letters(text: str) -> list[int]:
    """The freely reduced letter string of a word."""
    out: list[int] = []
    for s in flatten(parse(text)):
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return out


def runs(letters) -> list[int]:
    """Lengths of the maximal runs of one repeated signed letter."""
    out = []
    prev = None
    for s in letters:
        if s == prev:
            out[-1] += 1
        else:
            out.append(1)
            prev = s
    return out


# ---------------------------------------------------------------- series

def _clean(value: int, modulus: int) -> int:
    return value % modulus if modulus else value


def one(cap: int) -> list[dict]:
    return [{(): 1}] + [{} for _ in range(cap)]


def mul(a: list[dict], b: list[dict], cap: int, modulus: int) -> list[dict]:
    """Graded product; terms of degree above the cap are dropped."""
    out = [dict() for _ in range(cap + 1)]
    for da in range(cap + 1):
        for u, x in a[da].items():
            for db in range(cap + 1 - da):
                target = out[da + db]
                for v, y in b[db].items():
                    w = u + v
                    target[w] = target.get(w, 0) + x * y
    for level in out:
        for w in [w for w, c in level.items() if not _clean(c, modulus)]:
            del level[w]
        if modulus:
            for w in level:
                level[w] %= modulus
    return out


def gbinom(k: int, j: int) -> int:
    """binom(k, j) for any integer k: k (k-1) ... (k-j+1) / j!."""
    if k >= 0:
        return comb(k, j)
    return (-1) ** j * comb(-k + j - 1, j)


def run_series(i: int, k: int, cap: int, modulus: int) -> list[dict]:
    """(1 + x_i)^k truncated: sum_j binom(k, j) x_i^j."""
    out = one(cap)
    for j in range(1, cap + 1):
        c = _clean(gbinom(k, j), modulus)
        if c:
            out[j][(i,) * j] = c
    return out


def power(s: list[dict], k: int, cap: int, modulus: int) -> list[dict]:
    """s^k for k >= 0 by repeated squaring."""
    acc = one(cap)
    while k:
        if k & 1:
            acc = mul(acc, s, cap, modulus)
        k >>= 1
        if k:
            s = mul(s, s, cap, modulus)
    return acc


def expand(node, cap: int, modulus: int, inverse: bool = False) -> list[dict]:
    """Magnus expansion of a word tree (or of its inverse)."""
    kind = node[0]
    if kind == "gen":
        return run_series(node[1], -1 if inverse else 1, cap, modulus)
    if kind == "id":
        return one(cap)
    if kind == "mul":
        parts = list(reversed(node[1])) if inverse else node[1]
        acc = expand(parts[0], cap, modulus, inverse)
        for p in parts[1:]:
            acc = mul(acc, expand(p, cap, modulus, inverse), cap, modulus)
        return acc
    if kind == "pow":
        base, k = node[1], node[2]
        k = -k if inverse else k
        if base[0] == "gen":
            return run_series(base[1], k, cap, modulus)
        return power(expand(base, cap, modulus, k < 0), abs(k), cap, modulus)
    a, b = node[1], node[2]
    if inverse:
        a, b = b, a
    acc = expand(a, cap, modulus, True)
    for factor in (expand(b, cap, modulus, True), expand(a, cap, modulus), expand(b, cap, modulus)):
        acc = mul(acc, factor, cap, modulus)
    return acc


def magnus(text: str, cap: int, modulus: int = 0) -> list[dict]:
    return expand(parse(text), cap, modulus)


def letterwise(text: str, cap: int, modulus: int = 0) -> list[dict]:
    """Magnus expansion multiplied out one letter at a time.

    x_i -> 1 + x_i and x_i^-1 -> 1 - x_i + x_i^2 - ...; a slow second route
    used only to test the run-length expander.
    """
    acc = one(cap)
    for s in flatten(parse(text)):
        letter = one(cap)
        i = abs(s)
        for j in range(1, cap + 1 if s < 0 else 2):
            letter[j][(i,) * j] = _clean((-1) ** j if s < 0 else 1, modulus)
        acc = mul(acc, letter, cap, modulus)
    return acc


def coefficient(series: list[dict], w: tuple, modulus: int = 0) -> int:
    return _clean(series[len(w)].get(w, 0), modulus)


def sorted_terms(series: list[dict]):
    """Nonzero terms in (length, lex) order."""
    return [(w, level[w]) for level in series for w in sorted(level)]


def format_monomial(w) -> str:
    return "".join(f"x{i}" for i in w) if w else "e"


def parse_monomial(text: str) -> tuple:
    text = text.strip()
    if text == "e":
        return ()
    return tuple(int(part) for part in text.split("x")[1:])


# ---------------------------------------------------------------- tables

def table_row(spec: str, n: int) -> tuple[int, ...]:
    """(e(n,1), ..., e(n,n)) from the README formulas for each table kind."""
    spec = spec.strip()
    if spec == "trivial":
        return tuple(1 if i == n else 0 for i in range(1, n + 1))
    kind, _, body = spec.partition(":")
    if kind == "const":
        a = int(body)
        return tuple(a ** (n - i) for i in range(1, n + 1))
    if kind == "gcdseq":
        seq = [int(a) for a in body.split(",")][: n - 1]
        row = []
        for i in range(1, n + 1):
            g = 0
            for subset in combinations(seq, n - i):
                p = 1
                for a in subset:
                    p *= a
                g = gcd(g, p)
            row.append(g)
        return tuple(row)
    if kind == "zass":
        p, t = (int(a) for a in body.split(","))
        row = []
        for i in range(1, n + 1):
            j = 0
            while i * p ** j < n:
                j += 1
            row.append(p ** (t * j))
        return tuple(row)
    if kind == "file":
        with open(body, encoding="utf-8") as fh:
            rows = {r["n"]: tuple(r["values"]) for r in json.load(fh)}
        return rows[n]
    raise ValueError(f"unknown table {spec!r}")


def _divides(d: int, value: int) -> bool:
    return value == 0 if d == 0 else value % d == 0


def prefix_gcds(row) -> list[int]:
    out, g = [], 0
    for v in row:
        g = gcd(g, v)
        out.append(g)
    return out


def series_witness(series: list[dict], row, n: int):
    """First (length, lex) term of series - 1 of degree < n not divisible by
    the prefix gcd of the row, as (degree, monomial, coefficient), or None."""
    g = prefix_gcds(row)
    if series[0].get((), 0) != 1:
        return (0, (), series[0].get((), 0) - 1)
    for d in range(1, n):
        for w in sorted(series[d]):
            if not _divides(g[d - 1], series[d][w]):
                return (d, w, series[d][w])
    return None


def kernel_witness(series: list[dict], row, n: int, alphabet: int):
    """First monomial w (by degree, then lex) whose unipotent image over
    Z/e(n, |w|) is not the identity, with the entry at the least (i, j),
    as (degree, monomial, entry); None for a member."""
    for d in range(1, n):
        m = row[d - 1]
        for w in product(range(1, alphabet + 1), repeat=d):
            for i in range(d):
                for j in range(i + 1, d + 1):
                    c = _clean(series[j - i].get(w[i:j], 0), m)
                    if c:
                        return (d, w, c)
    return None


def membership(text: str, spec: str, n: int, alphabet: int) -> dict:
    """Verdict and both routes' witnesses for a word at level n."""
    row = table_row(spec, n)
    if n == 1:
        return {"member": True, "series": None, "kernel": None, "row": row}
    s = magnus(text, n - 1)
    sw = series_witness(s, row, n)
    kw = kernel_witness(s, row, n, alphabet)
    return {"member": sw is None, "series": sw, "kernel": kw, "row": row}


# ---------------------------------------------------------------- necklaces

def mobius(d: int) -> int:
    result, p = 1, 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            result = -result
        p += 1
    return -result if d > 1 else result


def necklace(m: int, n: int) -> int:
    total = sum(mobius(d) * m ** (n // d) for d in range(1, n + 1) if n % d == 0)
    return total // n


# ---------------------------------------------------------------- audits

def audit_descending(spec: str, n_max: int):
    for n in range(1, n_max + 1):
        row = table_row(spec, n)
        for i in range(1, n):
            if not _divides(row[i], row[i - 1]):
                return [n, i]
        if row[n - 1] != 1:
            return [n, n]
    return None


def audit_binomial(spec: str, n_max: int):
    for n in range(1, n_max + 1):
        row = table_row(spec, n)
        for i in range(1, n + 1):
            v = row[i - 1]
            for l in range(1, n // i + 1):
                if l <= v and not _divides(row[i * l - 1], comb(v, l)):
                    return [n, i, l]
    return None


def _valuation(v: int, p: int) -> int:
    r = 0
    while v % p == 0:
        v //= p
        r += 1
    return r


def _primes_dividing(v: int) -> list[int]:
    out, p = [], 2
    while p * p <= v:
        if v % p == 0:
            out.append(p)
            while v % p == 0:
                v //= p
        p += 1
    return out + ([v] if v > 1 else [])


def audit_condition_iii(spec: str, n_max: int):
    """For p | e(n,i) and i p^r <= n: v_p(e(n,i)) >= r implies
    v_p(e(n,i)) - r >= v_p(e(n, i p^r)); v_p(0) is infinite."""
    for n in range(1, n_max + 1):
        row = table_row(spec, n)
        for i in range(1, n + 1):
            v = row[i - 1]
            if v == 0:
                continue
            for p in _primes_dividing(v):
                s = _valuation(v, p)
                r = 1
                while i * p ** r <= n:
                    other = row[i * p ** r - 1]
                    if s >= r and (other == 0 or s - r < _valuation(other, p)):
                        return [n, i, r, p]
                    r += 1
    return None


def emap_check(spec: str, n_max: int) -> dict:
    """The three audits as the emap-check report states them."""
    desc = audit_descending(spec, n_max)
    out = {"descending": {"ok": desc is None, "violation": desc}}
    if desc is None:
        for key, audit in (("binomial", audit_binomial), ("condition_iii", audit_condition_iii)):
            v = audit(spec, n_max)
            out[key] = {"ok": v is None, "violation": v}
    else:
        out["binomial"] = None
        out["condition_iii"] = None
    return out
