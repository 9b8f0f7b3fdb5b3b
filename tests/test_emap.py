import json
import random
import time
from itertools import combinations_with_replacement, takewhile
from math import comb

import pytest

from filtrate import coeff
from filtrate.coeff import MAX_CELLS, RingSpec, ZZ, divisible
from filtrate.emap import (
    MAX_ENTRY_BITS,
    PRIME_LIMIT,
    LimitError,
    ConstantEMap,
    ExplicitEMap,
    SequenceGcdEMap,
    TrivialEMap,
    ZassenhausEMap,
    _is_prime,
    check_binomial,
    check_condition_iii,
    check_descending,
    divisor_witness,
    ideal_divisors,
    ideal_member,
    ideal_member_witness,
    normalize,
    parse_emap,
    prefix_gcds,
)
from filtrate.magnus import TruncSeries

from helpers import (
    binomial_by_comb,
    condition_iii_by_factoring,
    decompose_in_ideal,
    divisor_witness_by_scan,
    gcdseq_by_subsets,
    random_descending_table,
    random_row_table,
    random_series,
)


def test_trivial_values():
    e = TrivialEMap()
    assert e.row(4) == (0, 0, 0, 1)
    assert e.evaluate(1, 1) == 1


def test_constant_values():
    e = ConstantEMap(2)
    assert e.evaluate(4, 2) == 4
    assert e.row(3) == (4, 2, 1)
    assert ConstantEMap(0).row(3) == (0, 0, 1)
    with pytest.raises(ValueError):
        ConstantEMap(-1)


def test_sequence_gcd_values():
    e = SequenceGcdEMap((2, 3, 4))
    # products of 2 distinct entries: 6, 8, 12; gcd 2
    assert e.evaluate(4, 2) == 2
    assert e.evaluate(4, 1) == 24
    assert e.evaluate(4, 3) == 1
    assert e.evaluate(4, 4) == 1
    with pytest.raises(ValueError):
        e.evaluate(5, 1)
    zeros = SequenceGcdEMap((0, 2))
    assert zeros.evaluate(3, 1) == 0
    assert zeros.evaluate(3, 2) == 2
    assert SequenceGcdEMap(()).row(1) == (1,)


@pytest.mark.parametrize("seq, bad", [
    ([2.7, 3], "2.7"), ([2, "3"], "'3'"), ([True, 2], "True"), ([2.0], "2.0"),
])
def test_sequence_entries_are_ints(seq, bad):
    # as in ExplicitEMap, an entry is checked, not cast: 2.7 was read as 2
    with pytest.raises(ValueError, match=rf"^sequence entries must be integers, got {bad}$"):
        SequenceGcdEMap(seq)


def test_sequence_gcd_matches_the_subset_definition():
    # zeros and repeated primes included: an early gcd of 1 is rare
    rng = random.Random(47)
    checked = 0
    for _ in range(300):
        seq = [rng.choice((0, 0, 1, 2, 3, 4, 5, 6, 8, 9, 12, 30)) for _ in range(rng.randint(0, 9))]
        e = SequenceGcdEMap(seq)
        for n in range(1, len(seq) + 2):
            for i in range(1, n + 1):
                assert e.evaluate(n, i) == gcdseq_by_subsets(seq, n, i), (seq, n, i)
                checked += 1
    assert checked > 5000


def test_sequence_gcd_is_symmetric_in_the_prefix():
    # level n reads only the first n - 1 entries, so invariance is under
    # permutations of that prefix (the tail may move freely beyond it)
    rng = random.Random(41)
    for _ in range(40):
        seq = [rng.randint(0, 9) for _ in range(6)]
        for n in range(1, 8):
            prefix = seq[: n - 1]
            rng.shuffle(prefix)
            permuted = prefix + seq[n - 1:]
            assert SequenceGcdEMap(seq).row(n) == SequenceGcdEMap(permuted).row(n)


def test_constant_is_sequence_gcd_with_constant_sequence():
    for a in (0, 1, 2, 6):
        const = ConstantEMap(a)
        seq = SequenceGcdEMap((a,) * 7)
        for n in range(1, 9):
            assert const.row(n) == seq.row(n)


def test_zassenhaus_values():
    e = ZassenhausEMap(2, 1)
    assert e.evaluate(4, 1) == 4
    assert e.row(4) == (4, 2, 2, 1)
    assert e.row(5) == (8, 4, 2, 2, 1)
    big = ZassenhausEMap(3, 2)
    assert big.evaluate(4, 1) == 81
    assert big.row(9)[0] == 81 and big.row(9)[2] == 9
    with pytest.raises(ValueError):
        ZassenhausEMap(4, 1)
    with pytest.raises(ValueError):
        ZassenhausEMap(2, 0)


def test_power_entries_are_refused_past_the_bit_limit():
    # the bound is exponent * bits(base): 2^t is bounded by 2t bits
    half = MAX_ENTRY_BITS // 2
    assert ZassenhausEMap(2, half).evaluate(2, 1) == 2 ** half
    with pytest.raises(ValueError, match=rf"^table entry e\(2,1\) has up to {2 * half + 2} bits"):
        ZassenhausEMap(2, half + 1).evaluate(2, 1)
    assert ConstantEMap(3).evaluate(half + 1, 1) == 3 ** half
    with pytest.raises(ValueError, match=rf"^table entry e\({half + 2},1\)"):
        ConstantEMap(3).evaluate(half + 2, 1)
    # bases 0 and 1 give entries 0 and 1 at any level
    assert ConstantEMap(1).evaluate(10**9, 1) == 1
    assert ConstantEMap(0).evaluate(10**9, 1) == 0


def test_explicit_table_validation():
    e = ExplicitEMap({1: (1,), 2: (2, 1)})
    assert e.evaluate(2, 1) == 2
    with pytest.raises(ValueError):
        e.evaluate(3, 1)
    with pytest.raises(ValueError):
        ExplicitEMap({2: (1,)})
    with pytest.raises(ValueError):
        ExplicitEMap({1: (-1,)})
    with pytest.raises(ValueError):
        e.evaluate(2, 0)
    with pytest.raises(ValueError):
        e.evaluate(2, 3)


def test_check_descending():
    assert check_descending(TrivialEMap(), 10).ok
    assert check_descending(ConstantEMap(5), 10).ok
    assert check_descending(ZassenhausEMap(2, 1), 12).ok
    assert check_descending(SequenceGcdEMap(tuple(range(2, 13))), 12).ok
    bad = ExplicitEMap({1: (1,), 2: (2, 1), 3: (3, 2, 1)})
    result = check_descending(bad, 3)
    assert not result.ok and result.violation == (3, 1)
    diag = ExplicitEMap({1: (1,), 2: (4, 2)})
    result = check_descending(diag, 2)
    assert not result.ok and result.violation == (2, 2)


def test_check_descending_on_random_families():
    # FiltrationSpec skips the scan for the families that claim descent by
    # construction, so every claim is checked here over random parameters
    rng = random.Random(42)
    tables = [TrivialEMap()]
    tables += [SequenceGcdEMap(tuple(rng.randint(0, 12) for _ in range(11))) for _ in range(30)]
    tables += [ConstantEMap(rng.randint(0, 40)) for _ in range(20)]
    tables += [ZassenhausEMap(rng.choice((2, 3, 5, 7, 11, 101)), rng.randint(1, 4))
               for _ in range(20)]
    for e in tables:
        assert e.descending_by_construction, e
        assert check_descending(e, 12).ok, e
    assert not ExplicitEMap({1: (1,)}).descending_by_construction


def test_is_prime_matches_trial_division():
    primes = []
    for v in range(10**5):
        prime = v >= 2 and all(v % p for p in takewhile(lambda p: p * p <= v, primes))
        if prime:
            primes.append(v)
        assert _is_prime(v) == prime, v
    # strong pseudoprimes to the first 4, 9 and 12 prime bases, then primes
    for v in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(v), v
    for v in (10**9 + 7, 999999999989, 100000000000031, 2**61 - 1):
        assert _is_prime(v), v
    assert not _is_prime(PRIME_LIMIT - 2)
    with pytest.raises(LimitError, match=f"decided only below the limit of {PRIME_LIMIT}"):
        _is_prime(PRIME_LIMIT)
    with pytest.raises(LimitError):
        ZassenhausEMap(PRIME_LIMIT + 2, 1)


def test_check_binomial_families():
    assert check_binomial(TrivialEMap(), 8).ok
    for a in range(0, 9):
        assert check_binomial(ConstantEMap(a), 8).ok
    assert check_binomial(ZassenhausEMap(2, 1), 10).ok
    assert check_binomial(SequenceGcdEMap((2, 3, 4, 5, 6, 7, 8)), 8).ok


def test_check_binomial_violation():
    # binom(e(4,1), 2) = binom(2, 2) = 1 is not a multiple of e(4,2) = 2
    bad = ExplicitEMap({1: (1,), 2: (2, 1), 3: (2, 1, 1), 4: (2, 2, 1, 1)})
    assert check_descending(bad, 4).ok
    result = check_binomial(bad, 4)
    assert not result.ok and result.violation == (4, 1, 2)


def test_check_binomial_matches_math_comb():
    # the audit builds binom(v, l) from binom(v, l - 1); an oracle that takes
    # each binomial afresh from math.comb must agree
    rng = random.Random(62)
    verdicts = []
    for _ in range(400):
        n_max = rng.randint(2, 9)
        e = random_descending_table(rng, n_max)
        expected = binomial_by_comb(e, n_max)
        assert check_binomial(e, n_max) == (expected is None, expected), e.table
        verdicts.append(expected is None)
    assert 50 < verdicts.count(False) < 350
    for e in (TrivialEMap(), ConstantEMap(2), ConstantEMap(6),
              SequenceGcdEMap((3, 3, 2, 2, 2, 2, 5, 9, 4, 7, 2)),
              ZassenhausEMap(2, 1), ZassenhausEMap(3, 2)):
        expected = binomial_by_comb(e, 12)
        assert check_binomial(e, 12) == (expected is None, expected), e


def test_check_binomial_builds_each_binomial_from_the_last():
    # a math.comb call per l took about 11 s here
    start = time.perf_counter()
    assert check_binomial(ConstantEMap(2), 250).ok
    assert time.perf_counter() - start < 5


def test_check_condition_iii():
    assert check_condition_iii(ZassenhausEMap(3, 2), 9).ok
    assert check_condition_iii(ZassenhausEMap(2, 1), 12).ok
    assert check_condition_iii(ConstantEMap(4), 8).ok
    assert check_condition_iii(TrivialEMap(), 8).ok
    bad = ExplicitEMap({1: (1,), 2: (2, 1), 3: (2, 1, 1), 4: (2, 2, 1, 1)})
    result = check_condition_iii(bad, 4)
    assert not result.ok and result.violation == (4, 1, 1, 2)


def test_condition_iii_matches_full_factoring():
    # the audit leaves primes p with i*p > n unfactored, since no r >= 1 has
    # i*p^r <= n; an oracle that factors every entry in full must agree
    rng = random.Random(61)
    verdicts = set()
    for _ in range(400):
        n_max = rng.randint(2, 8)
        if rng.random() < 0.5:
            multipliers = (0, 1, 2, 3, 4, 5, 7, 9, 25, 97, 101)
            e = random_descending_table(rng, n_max, multipliers=multipliers)
        else:
            e = random_row_table(rng, n_max, bound=250)
        expected = condition_iii_by_factoring(e, n_max)
        assert check_condition_iii(e, n_max) == (expected is None, expected), e.table
        verdicts.add(expected is None)
    assert verdicts == {True, False}
    for e in (TrivialEMap(), ConstantEMap(6), SequenceGcdEMap((3, 3, 2, 2, 2, 2, 5, 9, 4, 7, 2)),
              ZassenhausEMap(2, 1), ZassenhausEMap(3, 2)):
        expected = condition_iii_by_factoring(e, 12)
        assert check_condition_iii(e, 12) == (expected is None, expected), e


def test_condition_iii_does_not_factor_large_primes(tmp_path):
    # p^t with a large prime p: trial division up to p itself took seconds
    p = 100000007
    path = tmp_path / "table.json"
    path.write_text(json.dumps([{"n": 1, "values": [1]}, {"n": 2, "values": [p * p, 1]}]))
    start = time.perf_counter()
    assert check_condition_iii(parse_emap(f"file:{path}"), 2).ok
    assert check_condition_iii(ConstantEMap(1000003), 40).ok
    assert time.perf_counter() - start < 1


def test_condition_iii_implies_binomial():
    rng = random.Random(43)
    seen_pass = 0
    for _ in range(60):
        n_max = rng.randint(2, 6)
        e = random_descending_table(rng, n_max)
        if check_condition_iii(e, n_max).ok:
            seen_pass += 1
            assert check_binomial(e, n_max).ok, e.table
    assert seen_pass > 5


def test_normalize():
    raw = ExplicitEMap({1: (1,), 2: (4, 1), 3: (4, 6, 1)})
    norm = normalize(raw, 3)
    assert norm.table[3] == (4, 2, 1)
    assert norm.table[2] == (4, 1)
    assert check_descending(norm, 3).ok
    # descending input is a fixed point
    z = ZassenhausEMap(2, 2)
    assert normalize(z, 6).table == {n: z.row(n) for n in range(1, 7)}
    with pytest.raises(ValueError):
        normalize(ExplicitEMap({1: (1,), 2: (4, 2)}), 2)


def test_normalize_output_always_descending():
    rng = random.Random(44)
    for _ in range(100):
        e = random_row_table(rng, rng.randint(1, 6))
        norm = normalize(e, max(e.table))
        assert check_descending(norm, max(e.table)).ok


def test_ideal_member_frozen_examples():
    assert ideal_member(TruncSeries(ZZ, 2, 1, {(1,): 3}), ConstantEMap(3), 2)
    assert not ideal_member(TruncSeries(ZZ, 2, 1, {(1,): 1}), TrivialEMap(), 2)
    # degrees >= n are unconstrained
    s = TruncSeries(ZZ, 2, 2, {(1, 2): 1, (2, 1): -1})
    assert ideal_member(s, TrivialEMap(), 2)
    # nonzero constant term is never in the ideal
    assert ideal_member_witness(TruncSeries(ZZ, 2, 2, {(): 1}), TrivialEMap(), 2) == (0, (), 1)


def test_ideal_member_witness_order_and_content():
    e = ConstantEMap(2)
    s = TruncSeries(ZZ, 2, 3, {(1,): 4, (2,): 3, (1, 1): 1})
    # degree-1 scan in lex order: x1 passes (4 in 4Z fails? e(4? ...)
    witness = ideal_member_witness(s, e, 4)
    # e(4, 1) = 8: the first bad coefficient is x1 -> 4
    assert witness == (1, (1,), 4)
    s2 = TruncSeries(ZZ, 2, 3, {(1,): 8, (2,): 8, (1, 2): 2})
    assert ideal_member_witness(s2, e, 4) == (2, (1, 2), 2)


def test_divisor_witness_matches_a_length_lex_scan():
    # divisor lists hold 0 and 1 and may run past the cap, where no degree
    # is left to read
    rng = random.Random(91)
    found = past_cap = 0
    for _ in range(600):
        cap = rng.randint(1, 5)
        s = random_series(rng, ZZ, rng.randint(1, 3), cap, terms=rng.randint(0, 20), bound=12)
        divisors = [rng.choice((0, 1, 1, 2, 3, 4, 6)) for _ in range(rng.randint(0, cap + 3))]
        witness = divisor_witness(s, divisors)
        assert witness == divisor_witness_by_scan(s, divisors), (s, divisors)
        found += witness is not None
        past_cap += len(divisors) > cap
    assert found > 200 and past_cap > 100, (found, past_cap)


def test_ideal_member_preconditions():
    s = TruncSeries(ZZ, 2, 1, {(1,): 2})
    with pytest.raises(ValueError):
        ideal_member(s, TrivialEMap(), 3)  # cap 1 < n - 1
    with pytest.raises(ValueError):
        ideal_member(TruncSeries(RingSpec(5), 2, 2, {}), TrivialEMap(), 2)
    with pytest.raises(ValueError):
        ideal_member(s, TrivialEMap(), 0)
    # n = 1: only the constant term matters
    assert ideal_member(s, TrivialEMap(), 1)
    assert not ideal_member(TruncSeries(ZZ, 2, 1, {(): 2}), TrivialEMap(), 1)


def test_ideal_divisors_stop_at_the_last_constrained_degree():
    assert prefix_gcds([12, 18, 0, 5, 7]) == [12, 6, 6, 1, 1]
    assert prefix_gcds([0, 0]) == [0, 0]
    e = SequenceGcdEMap((3, 3, 2, 2, 2, 2))
    assert e.row(7) == (144, 24, 4, 2, 1, 1, 1)
    assert ideal_divisors(e.row(7)) == [144, 24, 4, 2]
    assert ideal_divisors(TrivialEMap().row(4)) == [0, 0, 0]
    assert ideal_divisors(ConstantEMap(1).row(5)) == []
    assert ideal_divisors(TrivialEMap().row(1)) == []
    # the prefix gcd, not the raw entry: gcd(4, 6) = 2, then gcd(2, 3) = 1
    assert ideal_divisors(ExplicitEMap({4: (4, 6, 3, 1)}).row(4)) == [4, 2]


def test_ideal_member_witness_needs_only_the_constrained_degrees():
    e = SequenceGcdEMap((3, 3, 2, 2, 2, 2))  # e(7, .) = (144, 24, 4, 2, 1, 1, 1)
    s = TruncSeries(ZZ, 2, 4, {(1,): 144, (1, 2, 1, 2): 1})
    assert ideal_member_witness(s, e, 7) == (4, (1, 2, 1, 2), 1)
    for cap in (1, 2, 3):
        with pytest.raises(ValueError, match="reads degrees up to 4"):
            ideal_member_witness(TruncSeries(ZZ, 2, cap, {(1,): 144}), e, 7)
    # degrees whose divisor is 1 are unconstrained at any cap
    s = TruncSeries(ZZ, 2, 6, {(1,): 288, (1,) * 5: 1, (2,) * 6: -1})
    assert ideal_member_witness(s, e, 7) is None
    assert ideal_member_witness(TruncSeries(ZZ, 2, 1, {(1,): 1}), ConstantEMap(1), 9) is None
    assert ideal_member_witness(TruncSeries(ZZ, 2, 1, {(): 1}), ConstantEMap(1), 9) == (0, (), 1)


def test_ideal_membership_constructive_round_trip():
    rng = random.Random(45)
    for _ in range(150):
        n = rng.randint(2, 6)
        e = random_descending_table(rng, n)
        cap = n - 1 + rng.randint(0, 1)
        coeffs = {}
        for _ in range(rng.randint(1, 6)):
            d = rng.randint(1, cap)
            w = tuple(rng.randint(1, 2) for _ in range(d))
            scale = e.evaluate(n, d) if d < n else 1
            coeffs[w] = coeffs.get(w, 0) + scale * rng.randint(-5, 5)
        s = TruncSeries(ZZ, 2, cap, coeffs)
        assert ideal_member(s, e, n), (e.table, s.coeffs)
        rebuilt = decompose_in_ideal(s, e, n)
        assert rebuilt == s


def test_ideal_membership_agrees_with_decomposition_oracle():
    rng = random.Random(46)
    members = non_members = 0
    for _ in range(300):
        n = rng.randint(2, 6)
        e = random_descending_table(rng, n, multipliers=(0, 1, 2, 3))
        cap = n - 1 + rng.randint(0, 1)
        if rng.random() < 0.5:
            s = random_series(rng, ZZ, 2, cap, terms=5, bound=18)
        else:
            # scale each low degree into the ideal so the true branch runs too
            coeffs = {}
            for _ in range(rng.randint(1, 5)):
                d = rng.randint(1, cap)
                w = tuple(rng.randint(1, 2) for _ in range(d))
                scale = e.evaluate(n, d) if d < n else 1
                coeffs[w] = coeffs.get(w, 0) + scale * rng.randint(-4, 4)
            s = TruncSeries(ZZ, 2, cap, coeffs)
        member = ideal_member(s, e, n)
        rebuilt = decompose_in_ideal(s, e, n)
        assert member == (rebuilt is not None)
        if member:
            members += 1
            assert rebuilt == s
        else:
            non_members += 1
    assert members > 20 and non_members > 20


def test_ideal_member_matches_normalized_table():
    rng = random.Random(47)
    for _ in range(200):
        n = rng.randint(2, 6)
        e = random_row_table(rng, n)
        norm = normalize(e, n)
        s = random_series(rng, ZZ, 2, n - 1, terms=5, bound=24)
        assert ideal_member(s, e, n) == ideal_member(s, norm, n)


def _condition_1(e, splittings, total):
    """e(s,i)*e(t,j) must lie in e(s+t, i+j)*Z for every splitting."""
    for s, t in splittings:
        if s + t > total:
            continue
        for i in range(1, s + 1):
            for j in range(1, t + 1):
                if not divisible(e.evaluate(s, i) * e.evaluate(t, j), e.evaluate(s + t, i + j)):
                    return (s, t, i, j)
    return None


def _condition_2(e, f, g, n_max):
    """binom(f(n), l) * e(g(n), j1) * ... * e(g(n), jl) in e(n, sum j)*Z."""
    for n in range(2, n_max + 1):
        fn, gn = f(n), g(n)
        for l in range(1, min(fn, n) + 1):
            for js in combinations_with_replacement(range(1, gn + 1), l):
                total = sum(js)
                if total > n:
                    continue
                value = comb(fn, l)
                for j in js:
                    value *= e.evaluate(gn, j)
                if not divisible(value, e.evaluate(n, total)):
                    return (n, l, js)
    return None


def _own_splittings(e, total):
    return [pair for n in range(2, total + 1) for pair in e.splittings(n)]


def test_recursion_conditions_for_prefix_gcd_scheme():
    # the conditions are read through the table's own recursion
    rng = random.Random(48)
    for _ in range(10):
        seq = tuple(rng.randint(0, 12) for _ in range(9))
        e = SequenceGcdEMap(seq)
        assert _own_splittings(e, 10) == [(s, 1) for s in range(1, 10)]
        assert _condition_1(e, _own_splittings(e, 10), 10) is None, seq
        assert _condition_2(e, e.power_exponent, e.power_level, 8) is None, seq


def test_recursion_conditions_for_power_scheme():
    for p, t in ((2, 1), (2, 2), (3, 1), (5, 1)):
        e = ZassenhausEMap(p, t)
        splittings = _own_splittings(e, 10)
        assert sorted(splittings) == [(s, t2) for s in range(1, 10) for t2 in range(1, 11 - s)]
        assert _condition_1(e, splittings, 10) is None, (p, t)
        assert _condition_2(e, e.power_exponent, e.power_level, 8) is None, (p, t)


def test_sequence_recursion_reads_the_sequence():
    e = SequenceGcdEMap((2, 0, 5))
    assert [e.power_exponent(n) for n in (2, 3, 4)] == [2, 0, 5]
    assert [e.power_level(n) for n in (2, 3, 4)] == [1, 2, 3]
    assert e.splittings(4) == [(3, 1)]
    # a short sequence is refused alike by the recursion and by the table
    short = SequenceGcdEMap((2,))
    with pytest.raises(ValueError) as power:
        short.power_exponent(5)
    with pytest.raises(ValueError) as row:
        short.row(5)
    assert str(power.value) == str(row.value) == "need 4 sequence entries for level 5, have 1"


def test_zassenhaus_power_exponent_is_its_own_entry():
    for p in (2, 3, 5, 7):
        for t in (1, 2, 3):
            e = ZassenhausEMap(p, t)
            for n in range(2, 40):
                level = -(-n // p)
                assert e.power_level(n) == level
                assert e.power_exponent(n) == p ** t == e.evaluate(n, level), (p, t, n)


def test_parse_emap():
    assert isinstance(parse_emap("trivial"), TrivialEMap)
    assert parse_emap("const:3").a == 3
    assert parse_emap("gcdseq:2,3,4").seq == (2, 3, 4)
    z = parse_emap("zass:3,2")
    assert (z.p, z.t) == (3, 2)
    for bad in ("", "const", "const:x", "zass:4,1", "zass:2", "unknown:1", "gcdseq:"):
        with pytest.raises(ValueError):
            parse_emap(bad)
    with pytest.raises(ValueError, match=r"^bad e-map spec 'zass:2': expected 2 integers, got 1$"):
        parse_emap(" zass:2 ")
    assert parse_emap(" zass:2,1 ").describe() == "zass:2,1"


def test_parse_emap_file(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps([
        {"n": 1, "values": [1]},
        {"n": 2, "values": [2, 1]},
    ]))
    e = parse_emap(f"file:{path}")
    assert e.evaluate(2, 1) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("[{\"rows\": 1}]")
    with pytest.raises(ValueError):
        parse_emap(f"file:{bad}")
    with pytest.raises(ValueError):
        parse_emap("file:/does/not/exist")


def test_describe_round_trips():
    for spec in ("trivial", "const:4", "gcdseq:2,3,4", "zass:2,3"):
        assert parse_emap(spec).describe() == spec


def test_rows_over_the_cell_limit_are_refused_before_they_are_built():
    n = MAX_CELLS + 1
    message = (rf"^row {n} of the exponent table needs {n} cells \(one per entry e\(n, 1..n\)\),"
               rf" over the limit of {MAX_CELLS}$")
    for e in (TrivialEMap(), ConstantEMap(2), ZassenhausEMap(2, 1)):
        with pytest.raises(ValueError, match=message):
            e.row(n)
        # a single entry is not a row, and is not refused
        assert e.evaluate(n, n) == 1
    assert TrivialEMap().row(3) == (0, 0, 1)


def test_sequence_gcd_rows_are_refused_over_the_cell_limit(monkeypatch):
    # the row is built through EMap.row, so its length is checked before
    # Lazard's recurrence runs its O(n^2) gcds
    monkeypatch.setattr(coeff, "MAX_CELLS", 10)
    e = SequenceGcdEMap([2] * 20)
    message = (r"^row 15 of the exponent table needs 15 cells \(one per entry e\(n, 1..n\)\),"
               r" over the limit of 10$")
    with pytest.raises(ValueError, match=message):
        e.row(15)
    # a single entry costs its whole row, and is refused with it
    with pytest.raises(ValueError, match=message):
        e.evaluate(15, 15)
    assert e.row(10) == tuple(2 ** (10 - i) for i in range(1, 11))
    with pytest.raises(ValueError, match=r"^need 6 sequence entries for level 7, have 5$"):
        SequenceGcdEMap([2] * 5).row(7)
