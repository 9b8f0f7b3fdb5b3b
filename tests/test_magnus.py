import importlib
import random
import time
from math import comb, gcd

import pytest

from filtrate.coeff import RingSpec, ZZ
from filtrate.magnus import (
    CapExceededError,
    TruncSeries,
    coefficient,
    magnus,
    series_json,
)
from filtrate.words import (
    GroupWord,
    basic_commutator,
    enumerate_monomials,
    lyndon_words,
    parse_word,
    realize,
)

from helpers import (
    magnus_by_letters,
    random_power_expression,
    random_reduced_word,
    random_series,
    series_inverse,
)


def s_one(cap=3, ring=ZZ, k=2):
    return TruncSeries.one(ring, k, cap)


def s_gen(i, cap=3, ring=ZZ, k=2):
    return TruncSeries(ring, k, cap, {(i,): 1})


def test_construction_canonicalizes():
    s = TruncSeries(RingSpec(5), 2, 2, {(1,): 7, (2,): 5, (): -1})
    assert s.coeffs == {(1,): 2, (): 4}
    with pytest.raises(ValueError):
        TruncSeries(ZZ, 2, 2, {(1, 1, 1): 1})
    with pytest.raises(ValueError):
        TruncSeries(ZZ, 2, 2, {(3,): 1})
    with pytest.raises(ValueError):
        TruncSeries(ZZ, 2, 0, {})


def test_addition_and_scaling():
    a = s_one() + s_gen(1)
    b = a - a
    assert b == TruncSeries(ZZ, 2, 3)
    assert a.scale(3).coeffs == {(): 3, (1,): 3}
    assert a.scale(0) == TruncSeries(ZZ, 2, 3)


def test_multiplication_examples():
    x1, x2 = s_gen(1), s_gen(2)
    assert (x1 * x2).coeffs == {(1, 2): 1}
    assert (x1 * x2) != (x2 * x1)
    # truncation: cap 1 kills every product of two generators
    y1 = TruncSeries(ZZ, 2, 1, {(1,): 1})
    y2 = TruncSeries(ZZ, 2, 1, {(2,): 1})
    assert (y1 * y2) == TruncSeries(ZZ, 2, 1)


def test_mismatched_operands_rejected():
    with pytest.raises(ValueError):
        s_one(cap=2) + s_one(cap=3)
    with pytest.raises(ValueError):
        s_one(ring=ZZ) * s_one(ring=RingSpec(5))
    with pytest.raises(ValueError):
        s_one(k=2) + TruncSeries.one(ZZ, 3, 3)


def test_ring_axioms_on_random_series():
    rng = random.Random(31)
    for _ in range(150):
        ring = rng.choice((ZZ, RingSpec(6), RingSpec(7)))
        cap = rng.randint(1, 4)
        a = random_series(rng, ring, 2, cap)
        b = random_series(rng, ring, 2, cap)
        c = random_series(rng, ring, 2, cap)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        one = TruncSeries.one(ring, 2, cap)
        assert a * one == a == one * a


def test_no_zero_coefficients_stored():
    rng = random.Random(32)
    for _ in range(100):
        a = random_series(rng, RingSpec(4), 2, 3)
        b = random_series(rng, RingSpec(4), 2, 3)
        for s in (a + b, a * b, a - b):
            assert all(c != 0 for c in s.coeffs.values())
            assert all(len(w) <= 3 for w in s.coeffs)
            assert TruncSeries(s.ring, 2, 3, s.coeffs) == s


def test_inverse_frozen_examples():
    # (1 + x1)^-1 at cap 3, by the alternating geometric series
    inv = series_inverse(s_one(3, ZZ, 1) + s_gen(1, 3, ZZ, 1))
    assert inv.coeffs == {(): 1, (1,): -1, (1, 1): 1, (1, 1, 1): -1}
    # (1 + x1 + x2)^-1 at cap 2
    inv2 = series_inverse(s_one(2) + s_gen(1, 2) + s_gen(2, 2))
    assert inv2.coeffs == {
        (): 1, (1,): -1, (2,): -1,
        (1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 1,
    }
    assert series_inverse(s_one()) == s_one()


def test_inverse_multiplies_back_to_one():
    rng = random.Random(33)
    for _ in range(150):
        ring = rng.choice((ZZ, RingSpec(6), RingSpec(9)))
        cap = rng.randint(1, 4)
        s = random_series(rng, ring, 2, cap)
        unit = rng.choice((1, -1)) if ring == ZZ else rng.choice(
            [u for u in range(1, ring.modulus + 1) if gcd(u, ring.modulus) == 1]
        )
        s = s - TruncSeries(ring, 2, cap, {(): s.coeffs.get((), 0)}) + TruncSeries(ring, 2, cap, {(): unit})
        inv = series_inverse(s)
        one = TruncSeries.one(ring, 2, cap)
        assert s * inv == one
        assert inv * s == one


def test_inverse_rejects_non_units():
    with pytest.raises(ValueError):
        series_inverse(s_one().scale(2))
    with pytest.raises(ValueError):
        series_inverse(TruncSeries(ZZ, 2, 3))
    with pytest.raises(ValueError):
        series_inverse(TruncSeries(RingSpec(6), 2, 2, {(): 2}))


def test_geometric_series_identity():
    # (1 - beta) * sum(beta^k, k = 0..cap) = 1 when beta has no constant term,
    # with the sum assembled from explicit powers rather than series_inverse()
    rng = random.Random(34)
    for _ in range(200):
        ring = rng.choice((ZZ, RingSpec(8)))
        cap = rng.randint(1, 4)
        beta = random_series(rng, ring, 2, cap)
        beta = beta - TruncSeries(ring, 2, cap, {(): beta.coeffs.get((), 0)})
        one = TruncSeries.one(ring, 2, cap)
        total = one
        p = one
        for _ in range(cap):
            p = p * beta
            total = total + p
        assert (one - beta) * total == one


def test_magnus_frozen_examples():
    x1 = parse_word("x1", 2)
    assert magnus(x1, ZZ, 3).coeffs == {(): 1, (1,): 1}
    inv = magnus(parse_word("x1^-1", 2), ZZ, 2)
    assert inv.coeffs == {(): 1, (1,): -1, (1, 1): 1}
    comm = magnus(parse_word("[x1,x2]", 2), ZZ, 2)
    assert comm.coeffs == {(): 1, (1, 2): 1, (2, 1): -1}
    assert magnus(parse_word("e", 2), ZZ, 4) == TruncSeries.one(ZZ, 2, 4)


def test_magnus_matches_letter_by_letter_on_long_runs():
    # runs longer than the cap, both signs, over Z and rings with zero divisors
    rng = random.Random(39)
    for _ in range(300):
        ring = rng.choice((ZZ, RingSpec(4), RingSpec(6), RingSpec(9)))
        cap = rng.randint(1, 4)
        k = rng.randint(1, 3)
        g = GroupWord(k)
        letters = []
        for _ in range(rng.randint(0, 5)):
            i = rng.randint(1, k)
            e = rng.choice((1, -1)) * rng.randint(1, 2 * cap + 3)
            g = g * GroupWord(k, (i,)) ** e
            letters += [i if e > 0 else -i] * abs(e)
        s = magnus(g, ring, cap)
        assert s.coeffs == magnus_by_letters(letters, ring.modulus, cap), (g, ring, cap)
        # the unchecked internal constructor must yield what the public one does
        assert TruncSeries(ring, k, cap, s.coeffs) == s


def test_magnus_divides_negative_runs_like_the_geometric_series():
    # a run xi^-s divides by (1 + xi)^s; the oracle multiplies by the
    # alternating series once per inverse letter.  |s| straddles the cap
    rng = random.Random(40)
    for cap in range(1, 7):
        sizes = sorted({1, cap - 1, cap, cap + 1, 3 * cap} - {0})
        for k in (1, 2, 3):
            for modulus in (0, 1, 2, 4, 6, 9, 64):
                ring = RingSpec(modulus)
                for mixed in (False, True):
                    letters = []
                    i = 0
                    for s in rng.sample(sizes, len(sizes)):
                        # a letter unlike the last one, so the run keeps |s|
                        i = rng.choice([j for j in range(1, k + 1) if j != i] or [1])
                        sign = rng.choice((1, -1)) if mixed else -1
                        letters += [sign * i] * s
                    g = GroupWord(k, letters)
                    assert mixed or all(e < 0 for _, e in g.runs)
                    assert magnus(g, ring, cap).coeffs == magnus_by_letters(letters, modulus, cap), \
                        (g, ring, cap)


def test_magnus_coefficient_cancels_and_returns():
    # x1^a x2 x1^(m-a) brings the coefficient at x1 to m, which is 0 in Z/m,
    # and the closing x1 makes it 1 again; every prefix is checked, so the
    # terms built on x1 while it is 0 are checked too
    for m in (4, 6, 12):
        ring = RingSpec(m)
        for a in range(1, m):
            g = GroupWord(2)
            letters = []
            for count, (i, e) in enumerate([(1, a), (2, 1), (1, m - a), (2, 1), (1, 1)], 1):
                g = g * GroupWord(2, (i,)) ** e
                letters += [i] * e
                s = magnus(g, ring, 3)
                assert s.coeffs == magnus_by_letters(letters, m, 3), (m, a, count)
                assert ((1,) in s.coeffs) == (count not in (3, 4)), (m, a, count)


def test_magnus_of_a_huge_run():
    s = magnus(parse_word("x1^10000000", 1), ZZ, 3)
    assert s.coeffs == {
        (): 1, (1,): 10**7, (1, 1): 10**7 * (10**7 - 1) // 2,
        (1, 1, 1): 10**7 * (10**7 - 1) * (10**7 - 2) // 6,
    }
    assert magnus(parse_word("x1^-10000000", 1), RingSpec(9), 2).coeffs == {
        (): 1, (1,): -10**7 % 9, (1, 1): 10**7 * (10**7 + 1) // 2 % 9,
    }


def test_magnus_is_a_homomorphism():
    rng = random.Random(35)
    for _ in range(500):
        ring = rng.choice((ZZ, RingSpec(6)))
        cap = rng.randint(1, 5)
        k = rng.randint(1, 3)
        g = random_reduced_word(rng, k, 10)
        h = random_reduced_word(rng, k, 10)
        assert magnus(g * h, ring, cap) == magnus(g, ring, cap) * magnus(h, ring, cap)


def test_magnus_of_inverse_is_series_inverse():
    rng = random.Random(36)
    for _ in range(200):
        cap = rng.randint(1, 4)
        g = random_reduced_word(rng, 2, 10)
        assert magnus(g.inverse(), ZZ, cap) == series_inverse(magnus(g, ZZ, cap))


def test_magnus_commutes_with_coefficient_reduction():
    rng = random.Random(37)
    for _ in range(200):
        m = rng.choice((2, 3, 6, 10))
        cap = rng.randint(1, 4)
        g = random_reduced_word(rng, 2, 12)
        over_z = magnus(g, ZZ, cap)
        reduced = TruncSeries(RingSpec(m), 2, cap, dict(over_z.coeffs))
        assert reduced == magnus(g, RingSpec(m), cap)


def test_magnus_witt_floor_small():
    # realized Lyndon bracketings of weight n vanish below degree n and hit
    # a unit coefficient in degree n
    for n in range(1, 6):
        for u in lyndon_words(2, n):
            g = realize(basic_commutator(u), 2)
            s = magnus(g, ZZ, n)
            assert all(len(w) >= n for w in s.coeffs if w != ()), (u, s)
            assert any(len(w) == n and c in (1, -1) for w, c in s.coeffs.items()), u


def test_coefficient_and_cap_discipline():
    s = magnus(parse_word("[x1,x2]", 2), ZZ, 2)
    assert coefficient(s, (1, 2)) == 1
    assert coefficient(s, (2, 1)) == -1
    assert coefficient(s, (1, 1)) == 0
    assert coefficient(s, ()) == 1
    with pytest.raises(CapExceededError):
        coefficient(s, (1, 2, 1))


def test_series_json_shape_and_order():
    s = magnus(parse_word("[x1,x2]", 2), ZZ, 2)
    blob = series_json(s)
    assert blob == {
        "ring": "Z",
        "cap": 2,
        "terms": [
            {"word": "e", "coeff": "1"},
            {"word": "x1x2", "coeff": "1"},
            {"word": "x2x1", "coeff": "-1"},
        ],
    }
    rng = random.Random(38)
    for _ in range(50):
        t = series_json(random_series(rng, ZZ, 3, 3))["terms"]
        keys = [(len(item["word"]), item["word"]) for item in t]
        assert keys == sorted(keys)
        assert all(set(item) == {"word", "coeff"} and isinstance(item["coeff"], str) for item in t)


def test_letter_cache_consistency():
    # same word, two calls, equal results; expansions over different rings stay apart
    g = parse_word("x1^-1*x2*x1", 2)
    a = magnus(g, ZZ, 3)
    b = magnus(g, RingSpec(5), 3)
    c = magnus(g, ZZ, 3)
    assert a == c
    assert b.ring == RingSpec(5)
    assert a != b


# the package exports the function magnus under the module's name
magnus_module = importlib.import_module("filtrate.magnus")

POWER_RINGS = tuple(RingSpec(m) for m in (0, 1, 2, 4, 6, 9, 12))


def _walked(program, ring, k, cap):
    """The expansion of a program through the power-node walk, whatever the
    cost rule in `magnus` would choose."""
    parts = magnus_module._walk(magnus_module._one(ring.modulus, cap), program, ring.modulus, cap)
    return TruncSeries._make(ring, k, cap, parts).coeffs


def test_power_programs_match_letter_by_letter():
    # nested powers, products and commutators with q in -5..5: each program
    # is walked as it stands, and the parsed word goes through magnus
    rng = random.Random(71)
    for _ in range(400):
        ring = rng.choice(POWER_RINGS)
        cap = rng.randint(1, 6)
        k = rng.randint(1, 3)
        text, letters, program = random_power_expression(rng, k, 3, range(-5, 6))
        if len(letters) > 300:
            continue
        want = TruncSeries(ring, k, cap, magnus_by_letters(letters, ring.modulus, cap)).coeffs
        assert _walked(program, ring, k, cap) == want, (text, ring, cap)
        assert magnus(parse_word(text, k), ring, cap).coeffs == want, (text, ring, cap)


def test_large_powers_match_letter_by_letter():
    # (u)^q with large |q|, where magnus walks the program, not the runs
    rng = random.Random(72)
    walked = 0
    for _ in range(400):
        ring = rng.choice(POWER_RINGS)
        cap = rng.randint(1, 4)
        k = rng.randint(1, 3)
        q = rng.choice((1, -1)) * rng.choice((64, 100, 257))
        base, base_letters, base_program = random_power_expression(rng, k, 2, range(-3, 4))
        if not 1 < len(base_letters) <= 6:
            continue
        text = f"({base})^{q}"
        letters = (base_letters if q > 0 else [-s for s in reversed(base_letters)]) * abs(q)
        g = parse_word(text, k)
        walked += g.program_at(cap) is not g.runs
        want = TruncSeries(ring, k, cap, magnus_by_letters(letters, ring.modulus, cap)).coeffs
        assert _walked(((base_program, q),), ring, k, cap) == want, (text, ring, cap)
        assert magnus(g, ring, cap).coeffs == want, (text, ring, cap)
    assert walked >= 20, walked


def test_magnus_results_are_canonical_by_degree():
    # magnus's parts are wrapped as they are, not reduced again: each degree
    # holds only its own monomials, with reduced nonzero coefficients
    rng = random.Random(73)
    walked = 0
    for _ in range(300):
        ring = rng.choice(tuple(RingSpec(m) for m in (0, 1, 2, 4, 6)))
        m = ring.modulus
        cap = rng.randint(1, 6)
        k = rng.randint(1, 3)
        text = random_power_expression(rng, k, 2, range(-3, 4))[0]
        if rng.random() < 0.5:
            text = f"({text})^{rng.choice((-100, 64, 257))}"
        g = parse_word(text, k)
        walked += g.program_at(cap) is not g.runs
        s = magnus(g, ring, cap)
        assert len(s.parts) == cap + 1
        for d, part in enumerate(s.parts):
            assert all(len(w) == d for w in part), (text, ring, cap)
            assert all(c != 0 and (not m or 0 <= c < m) for c in part.values()), (text, ring, cap)
        assert s.parts[0] == ({} if m == 1 else {(): 1})
        assert s == TruncSeries(ring, k, cap, s.coeffs), (text, ring, cap)
    assert walked >= 20, walked


def test_magnus_of_a_power_past_the_run_limit_of_a_flat_walk():
    # (x1 x2)^N expands to (1 + X)^N with X = x1 + x2 + x1x2, so the
    # coefficient at w sums binom(N, j) over the ways to cut w into j blocks
    # x1, x2 or x1x2
    n = 500000
    g = parse_word(f"(x1*x2)^{n}", 2)

    def cuts(w, j):
        if not w:
            return j == 0
        return j > 0 and (cuts(w[1:], j - 1) + (w[:2] == (1, 2) and cuts(w[2:], j - 1)))

    want = {(): 1}
    for d in range(1, 4):
        for w in enumerate_monomials(2, d):
            if c := sum(comb(n, j) * cuts(w, j) for j in range(1, d + 1)):
                want[w] = c
    start = time.perf_counter()
    s = magnus(g, ZZ, 3)
    elapsed = time.perf_counter() - start
    assert s.coeffs == want
    assert elapsed < 0.5, elapsed
