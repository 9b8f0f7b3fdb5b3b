"""End-to-end acceptance: one test per shipped guarantee, one PASS/FAIL line each.

Every criterion pins its instance counts and wall-clock budget in the code;
the printed line carries the observed numbers so a log shows what actually ran.
"""

import random
import time

from filtrate.coeff import RingSpec, ZZ, integer_rank
from filtrate.emap import (
    ConstantEMap,
    SequenceGcdEMap,
    TrivialEMap,
    ZassenhausEMap,
    check_binomial,
    check_condition_iii,
    check_descending,
    ideal_member,
)
from filtrate.filt import (
    FiltrationSpec,
    member_kernels,
    member_series,
    phi,
    product_sampler,
    sample_recursive,
)
from filtrate.magnus import TruncSeries, coefficient, magnus
from filtrate.massey import massey_rank, necklace
from filtrate.words import (
    GroupWord,
    basic_commutator,
    commutator,
    enumerate_monomials,
    lyndon_words,
    realize,
)

from helpers import (
    decompose_in_ideal,
    necklace_by_mobius,
    random_descending_table,
    random_reduced_word,
    random_series,
    unimatrix_product,
)


def _verdict(capsys, number: int, name: str, ok: bool, detail: str):
    # step around output capture so the line lands in plain pytest logs
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_acceptance_1_two_route_agreement(capsys):
    budget_s = 60.0
    start = time.perf_counter()
    rng = random.Random(101)
    emaps = [
        TrivialEMap(),
        SequenceGcdEMap((2, 3, 4, 5)),
        ConstantEMap(2),
        ZassenhausEMap(2, 1),
    ]
    sample_count = 10
    recursive_count = 9
    checked = members = 0
    disagreements = []
    for emap in emaps:
        for k in (2, 3):
            for level in (2, 3, 4, 5):
                spec = FiltrationSpec(emap, level)
                words = [random_reduced_word(rng, k, 10) for _ in range(44)]
                words += product_sampler(emap, level, k, sample_count,
                                         seed=rng.randint(0, 10**6))
                words += sample_recursive(ZassenhausEMap(2, 1), level, k, recursive_count,
                                          seed=rng.randint(0, 10**6))
                for g in words:
                    s = member_series(g, spec)
                    if s != member_kernels(g, spec):
                        disagreements.append((emap.describe(), level, g))
                    checked += 1
                    members += s
    elapsed = time.perf_counter() - start
    ok = not disagreements and checked == 2016 and members >= 200 and elapsed < budget_s
    _verdict(capsys, 1, "two-route-agreement", ok,
             f"{checked} instances, {members} members, "
             f"{len(disagreements)} disagreements, {elapsed:.1f}s < {budget_s:.0f}s")
    assert ok, disagreements[:3]


def test_acceptance_2_commutator_depth_floor(capsys):
    budget_s = 5.0
    start = time.perf_counter()
    checked = 0
    failures = []
    for k in (2, 3):
        for n in range(2, 6):
            for u in lyndon_words(k, n):
                g = realize(basic_commutator(u), k)
                s = magnus(g, ZZ, n)
                low = [w for w in s.coeffs if 0 < len(w) < n]
                lead = coefficient(s, u)
                if low or lead not in (1, -1):
                    failures.append((k, u, low[:2], lead))
                checked += 1
    elapsed = time.perf_counter() - start
    ok = not failures and checked == 89 and elapsed < budget_s
    _verdict(capsys, 2, "commutator-depth-floor", ok,
             f"{checked} bracketings, weights 2..5, alphabets 2..3, "
             f"{elapsed:.1f}s < {budget_s:.0f}s")
    assert ok, failures[:3]


def test_acceptance_3_binomial_audits(capsys):
    budget_s = 30.0
    start = time.perf_counter()
    rng = random.Random(103)
    failures = []
    audited = 0
    for _ in range(10):
        seq = tuple(rng.randint(1, 12) for _ in range(7))
        if not check_binomial(SequenceGcdEMap(seq), 8).ok:
            failures.append(("gcdseq", seq))
        audited += 1
    for a in range(1, 9):
        if not check_binomial(ConstantEMap(a), 8).ok:
            failures.append(("const", a))
        audited += 1
    for p in (2, 3, 5):
        for t in (1, 2, 3):
            if not check_binomial(ZassenhausEMap(p, t), 8).ok:
                failures.append(("zass", p, t))
            audited += 1
    implications = 0
    for _ in range(200):
        table = random_descending_table(rng, 6)
        assert check_descending(table, 6).ok
        if check_condition_iii(table, 6).ok:
            implications += 1
            if not check_binomial(table, 6).ok:
                failures.append(("implication", table.describe()))
    elapsed = time.perf_counter() - start
    ok = not failures and implications >= 20 and elapsed < budget_s
    _verdict(capsys, 3, "binomial-audits", ok,
             f"{audited} family audits, {implications}/200 valuation-to-binomial "
             f"implications, {elapsed:.1f}s < {budget_s:.0f}s")
    assert ok, failures[:3]


def test_acceptance_4_recursive_sampler_containment(capsys):
    budget_s = 60.0
    start = time.perf_counter()
    count = 200
    small = 30
    # each table samples from its own recursion
    emaps = [
        SequenceGcdEMap((2, 3, 4, 5)),
        SequenceGcdEMap((0, 0, 0, 0)),
        ZassenhausEMap(2, 1),
        ZassenhausEMap(3, 1),
    ]
    checked = 0
    failures = []
    for emap in emaps:
        for level in (2, 3, 4, 5):
            spec = FiltrationSpec(emap, level)
            for g in sample_recursive(emap, level, 2, count, seed=104 + level):
                if not member_series(g, spec):
                    failures.append((emap, level, g))
                checked += 1
    # a permuted exponent prefix generates the same level-5 subgroup
    target = FiltrationSpec(SequenceGcdEMap((2, 3, 4, 5)), 5)
    for perm in ((3, 2, 5, 4), (5, 4, 3, 2), (4, 5, 2, 3)):
        for g in sample_recursive(SequenceGcdEMap(perm), 5, 2, small, seed=105):
            if not member_series(g, target):
                failures.append(("perm", perm, g))
            checked += 1
    # each level sits inside the one above it
    for level in (3, 4, 5):
        lower = FiltrationSpec(ZassenhausEMap(2, 1), level - 1)
        for g in sample_recursive(ZassenhausEMap(2, 1), level, 2, small, seed=106 + level):
            if not member_series(g, lower):
                failures.append(("chain", level, g))
            checked += 1
    elapsed = time.perf_counter() - start
    ok = not failures and checked == 3380 and elapsed < budget_s
    _verdict(capsys, 4, "recursive-sampler-containment", ok,
             f"{checked} samples across 4 schemes, levels 2..5, "
             f"{elapsed:.1f}s < {budget_s:.0f}s")
    assert ok, failures[:3]


def test_acceptance_5_prime_power_cross_ring(capsys):
    budget_s = 30.0
    start = time.perf_counter()
    rng = random.Random(107)
    checked = members = 0
    failures = []
    for p in (2, 3):
        for n in (2, 3, 4, 5):
            spec = FiltrationSpec(ZassenhausEMap(p, 1), n)
            pool = [random_reduced_word(rng, 2, 10) for _ in range(30)]
            pool += sample_recursive(ZassenhausEMap(p, 1), n, 2, 10, seed=rng.randint(0, 10**6))
            one = TruncSeries.one(RingSpec(p), 2, n - 1)
            for g in pool:
                flat = magnus(g, RingSpec(p), n - 1) == one
                if member_series(g, spec) != flat:
                    failures.append((p, n, g))
                checked += 1
                members += flat
    elapsed = time.perf_counter() - start
    ok = not failures and checked == 320 and members >= 40 and elapsed < budget_s
    _verdict(capsys, 5, "prime-power-cross-ring", ok,
             f"{checked} instances, {members} members, p in {{2,3}}, levels 2..5, "
             f"{elapsed:.1f}s < {budget_s:.0f}s")
    assert ok, failures[:3]


def test_acceptance_6_pairing_rank_equals_necklace(capsys):
    budget_s = 120.0
    start = time.perf_counter()
    expected = {
        (2, 2): 1, (2, 3): 2, (2, 4): 3, (2, 5): 6,
        (3, 2): 3, (3, 3): 8, (3, 4): 18, (3, 5): 48,
        (2, 12): 335, (4, 6): 670,
    }
    failures = []
    for (m, n), value in expected.items():
        if necklace_by_mobius(m, n) != value or necklace(m, n) != value:
            failures.append(("count", m, n))
        if massey_rank(m, n) != value:
            failures.append(("rank", m, n))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < budget_s
    _verdict(capsys, 6, "pairing-rank-equals-necklace", ok,
             f"{len(expected)} (alphabet, level) pairs up to (2, 12) and (4, 6), "
             f"{elapsed:.1f}s < {budget_s:.0f}s")
    assert ok, failures


def test_acceptance_7_algebraic_invariants(capsys):
    budget_s = 30.0
    start = time.perf_counter()
    rng = random.Random(108)
    failures = []
    spec = FiltrationSpec(ConstantEMap(2), 3)
    pool = product_sampler(ConstantEMap(2), 3, 2, 30, seed=109)
    closure = 0
    for _ in range(100):
        g, h = rng.choice(pool), rng.choice(pool)
        x = GroupWord(2, (rng.randint(1, 2),))
        for candidate in (g * h, g.inverse(), x * g * x.inverse()):
            if not member_series(candidate, spec):
                failures.append(("closure", candidate))
            closure += 1
    homs = 0
    for _ in range(100):
        k = rng.randint(2, 3)
        g = random_reduced_word(rng, k, 8)
        h = random_reduced_word(rng, k, 8)
        d = rng.randint(1, 3)
        w = tuple(rng.randint(1, k) for _ in range(d))
        ring = rng.choice((ZZ, RingSpec(4), RingSpec(5)))
        if phi(w, g * h, ring) != unimatrix_product(phi(w, g, ring), phi(w, h, ring), ring):
            failures.append(("hom", w, g, h))
        homs += 1
    corners = 0
    for n in (2, 3):
        deep = product_sampler(TrivialEMap(), n, 2, 20, seed=110 + n)
        for _ in range(20):
            g, h = rng.choice(deep), rng.choice(deep)
            for w in enumerate_monomials(2, n):
                left = phi(w, g * h, ZZ)[0][n]
                right = phi(w, g, ZZ)[0][n] + phi(w, h, ZZ)[0][n]
                if left != right:
                    failures.append(("corner", n, w))
                corners += 1
    elapsed = time.perf_counter() - start
    ok = (not failures and closure >= 100 and homs >= 100 and corners >= 100
          and elapsed < budget_s)
    _verdict(capsys, 7, "algebraic-invariants", ok,
             f"{closure} closure, {homs} homomorphism, {corners} corner checks, "
             f"{elapsed:.1f}s < {budget_s:.0f}s")
    assert ok, failures[:3]


def test_acceptance_8_ideal_decomposition_round_trip(capsys):
    budget_s = 10.0
    start = time.perf_counter()
    rng = random.Random(111)
    checked = members = 0
    failures = []
    for _ in range(300):
        n = rng.randint(2, 6)
        emap = random_descending_table(rng, n)
        k = rng.randint(2, 3)
        s = random_series(rng, ZZ, k, n - 1, terms=6, bound=24)
        if rng.random() < 0.5:
            # half the stream: scale each degree to force membership
            coeffs = {}
            g = 0
            from math import gcd
            for i in range(1, n):
                g = gcd(g, emap.evaluate(n, i))
                for w in enumerate_monomials(k, i):
                    if rng.random() < 0.2:
                        coeffs[w] = g * rng.randint(-3, 3)
            s = TruncSeries(ZZ, k, n - 1, coeffs)
        else:
            s = s - TruncSeries.one(ZZ, k, n - 1).scale(s.coeffs.get((), 0))
        rebuilt = decompose_in_ideal(s, emap, n)
        verdict = ideal_member(s, emap, n)
        if (rebuilt is not None) != verdict:
            failures.append((emap.describe(), n, s.coeffs))
        if rebuilt is not None and rebuilt != s:
            failures.append(("rebuild", emap.describe(), n))
        checked += 1
        members += verdict
    elapsed = time.perf_counter() - start
    ok = (not failures and checked == 300 and members >= 60
          and checked - members >= 60 and elapsed < budget_s)
    _verdict(capsys, 8, "ideal-decomposition-round-trip", ok,
             f"{checked} series, {members} members, {elapsed:.1f}s < {budget_s:.0f}s")
    assert ok, failures[:3]
