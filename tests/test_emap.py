import json
import random
from itertools import combinations_with_replacement
from math import comb

import pytest

from filtrate.coeff import RingSpec, ZZ, divisible
from filtrate.emap import (
    ConstantEMap,
    ExplicitEMap,
    SequenceGcdEMap,
    TrivialEMap,
    ZassenhausEMap,
    check_binomial,
    check_condition_iii,
    check_descending,
    ideal_divisors,
    ideal_member,
    ideal_member_witness,
    normalize,
    parse_emap,
    prefix_gcds,
)
from filtrate.magnus import TruncSeries

from helpers import (
    decompose_in_ideal,
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
    rng = random.Random(42)
    for _ in range(30):
        seq = tuple(rng.randint(0, 12) for _ in range(11))
        assert check_descending(SequenceGcdEMap(seq), 12).ok
    for p in (2, 3, 5):
        for t in (1, 2, 3):
            assert check_descending(ZassenhausEMap(p, t), 12).ok


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


def test_check_condition_iii():
    assert check_condition_iii(ZassenhausEMap(3, 2), 9).ok
    assert check_condition_iii(ZassenhausEMap(2, 1), 12).ok
    assert check_condition_iii(ConstantEMap(4), 8).ok
    assert check_condition_iii(TrivialEMap(), 8).ok
    bad = ExplicitEMap({1: (1,), 2: (2, 1), 3: (2, 1, 1), 4: (2, 2, 1, 1)})
    result = check_condition_iii(bad, 4)
    assert not result.ok and result.violation == (4, 1, 1, 2)


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
    assert ideal_divisors(e, 7) == [144, 24, 4, 2]
    assert ideal_divisors(TrivialEMap(), 4) == [0, 0, 0]
    assert ideal_divisors(ConstantEMap(1), 5) == []
    assert ideal_divisors(TrivialEMap(), 1) == []
    # the prefix gcd, not the raw entry: gcd(4, 6) = 2, then gcd(2, 3) = 1
    assert ideal_divisors(ExplicitEMap({4: (4, 6, 3, 1)}), 4) == [4, 2]


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


def test_recursion_conditions_for_prefix_gcd_scheme():
    rng = random.Random(48)
    for _ in range(10):
        seq = tuple(rng.randint(0, 12) for _ in range(9))
        e = SequenceGcdEMap(seq)
        splittings = [(s, 1) for s in range(1, 10)]
        assert _condition_1(e, splittings, 10) is None, seq
        assert _condition_2(e, lambda n: seq[n - 2], lambda n: n - 1, 8) is None, seq


def test_recursion_conditions_for_power_scheme():
    for p, t in ((2, 1), (2, 2), (3, 1), (5, 1)):
        e = ZassenhausEMap(p, t)
        splittings = [(s, t2) for s in range(1, 10) for t2 in range(1, 10)]
        assert _condition_1(e, splittings, 10) is None, (p, t)
        q = p ** t
        assert _condition_2(e, lambda n: q, lambda n: -(-n // p), 8) is None, (p, t)


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
