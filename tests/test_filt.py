import json
import random
import time
from itertools import permutations
from types import SimpleNamespace

import pytest

from filtrate.coeff import MAX_CELLS, RingSpec, ZZ
from filtrate.emap import (
    ConstantEMap,
    EMap,
    ExplicitEMap,
    SequenceGcdEMap,
    TrivialEMap,
    ZassenhausEMap,
    check_binomial,
    check_condition_iii,
    parse_emap,
)
from filtrate import coeff, filt
from filtrate.filt import (
    FiltrationSpec,
    kernel_witness,
    member_kernels,
    member_series,
    phi,
    product_sampler,
    sample_recursive,
    series_witness,
)
from filtrate.magnus import TruncSeries, coefficient, magnus
from filtrate.words import (
    GroupWord,
    basic_commutator,
    commutator,
    enumerate_monomials,
    lyndon_words,
    parse_word,
    realize,
)

from helpers import (
    equal_ignoring_corner,
    magnus_by_letters,
    membership_witnesses,
    random_descending_table,
    random_power_expression,
    random_reduced_word,
    unimatrix_identity,
    unimatrix_product,
)


def test_unimatrix_identity_and_product():
    i3 = unimatrix_identity(3, ZZ)
    assert i3 == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert unimatrix_identity(2, RingSpec(1)) == [[0, 0], [0, 0]]
    a = [[1, 2, 0], [0, 1, 3], [0, 0, 1]]
    b = [[1, 5, 1], [0, 1, 7], [0, 0, 1]]
    # (1,3) picks up the shear product 2*7 on top of the sums
    assert unimatrix_product(a, b, ZZ) == [[1, 7, 15], [0, 1, 10], [0, 0, 1]]
    assert unimatrix_product(a, b, RingSpec(5)) == [[1, 2, 0], [0, 1, 0], [0, 0, 1]]
    assert unimatrix_product(a, i3, ZZ) == a == unimatrix_product(i3, a, ZZ)
    with pytest.raises(ValueError):
        unimatrix_product(a, unimatrix_identity(4, ZZ), ZZ)


def test_unimatrix_product_associative():
    rng = random.Random(51)
    for _ in range(80):
        ring = rng.choice((ZZ, RingSpec(6)))
        size = rng.randint(2, 5)
        def rand():
            return [[1 if i == j else rng.randint(-4, 4) if i < j else 0
                     for j in range(size)] for i in range(size)]
        a, b, c = rand(), rand(), rand()
        assert unimatrix_product(unimatrix_product(a, b, ring), c, ring) == \
            unimatrix_product(a, unimatrix_product(b, c, ring), ring)


def test_unimatrix_rows_and_corner_quotient():
    m = [[1, 1, 9], [0, 1, 0], [0, 0, 1]]
    other = [[1, 1, -2], [0, 1, 0], [0, 0, 1]]
    assert equal_ignoring_corner(m, other)
    assert not equal_ignoring_corner(m, [[1, 2, 9], [0, 1, 0], [0, 0, 1]])
    assert not equal_ignoring_corner(m, unimatrix_identity(4, ZZ))


def test_phi_frozen_examples():
    x1 = parse_word("x1", 2)
    assert phi((1,), x1, ZZ) == [[1, 1], [0, 1]]
    assert phi((1,), parse_word("x2", 2), ZZ) == unimatrix_identity(2, ZZ)
    comm = phi((1, 2), parse_word("[x1,x2]", 2), ZZ)
    assert comm == [[1, 0, 1], [0, 1, 0], [0, 0, 1]]
    # over Z/2 the square of a generator maps to the identity at length 1
    assert phi((1,), parse_word("x1^2", 2), RingSpec(2)) == unimatrix_identity(2, RingSpec(2))
    # over Z/1 every entry, the diagonal included, is 0
    assert phi((1, 2), parse_word("x1*x2", 2), RingSpec(1)) == [[0] * 3] * 3
    with pytest.raises(ValueError):
        phi((), x1, ZZ)


def test_phi_entries_are_subword_coefficients():
    rng = random.Random(52)
    for _ in range(60):
        k = rng.randint(2, 3)
        g = random_reduced_word(rng, k, 8)
        d = rng.randint(1, 3)
        w = tuple(rng.randint(1, k) for _ in range(d))
        ring = rng.choice((ZZ, RingSpec(4)))
        m = phi(w, g, ring)
        s = magnus(g, ring, d)
        assert len(m) == d + 1 and all(len(row) == d + 1 for row in m)
        for i in range(d + 1):
            for j in range(d + 1):
                # the diagonal is the coefficient at the empty word, 1
                expected = coefficient(s, w[i:j]) if i <= j else 0
                assert m[i][j] == expected


def test_phi_is_a_homomorphism():
    rng = random.Random(53)
    for _ in range(300):
        k = rng.randint(2, 3)
        g = random_reduced_word(rng, k, 8)
        h = random_reduced_word(rng, k, 8)
        d = rng.randint(1, 3)
        w = tuple(rng.randint(1, k) for _ in range(d))
        ring = rng.choice((ZZ, RingSpec(4), RingSpec(5)))
        assert phi(w, g * h, ring) == unimatrix_product(phi(w, g, ring), phi(w, h, ring), ring)
    g = parse_word("x1*x2^-1", 2)
    product = unimatrix_product(phi((1, 2), g, ZZ), phi((1, 2), g.inverse(), ZZ), ZZ)
    assert product == unimatrix_identity(3, ZZ)
    assert phi((1, 2, 1), GroupWord(2), ZZ) == unimatrix_identity(4, ZZ)


def test_filtration_spec_validation():
    FiltrationSpec(TrivialEMap(), 3)
    with pytest.raises(ValueError):
        FiltrationSpec(TrivialEMap(), 0)
    with pytest.raises(ValueError):
        FiltrationSpec(ExplicitEMap({1: (1,), 2: (2, 1), 3: (3, 2, 1)}), 3)
    # a table that only breaks past the level is fine at the level
    FiltrationSpec(ExplicitEMap({1: (1,), 2: (2, 1), 3: (3, 2, 1)}), 2)


def test_member_frozen_examples():
    comm = parse_word("[x1,x2]", 2)
    lvl2 = FiltrationSpec(TrivialEMap(), 2)
    lvl3 = FiltrationSpec(TrivialEMap(), 3)
    assert member_series(comm, lvl2) and member_kernels(comm, lvl2)
    assert not member_series(comm, lvl3) and not member_kernels(comm, lvl3)
    for p in (2, 3):
        g = parse_word(f"x1^{p}", 2)
        spec = FiltrationSpec(ConstantEMap(p), 2)
        assert member_series(g, spec) and member_kernels(g, spec)
    assert not member_series(parse_word("x1", 2), FiltrationSpec(ConstantEMap(2), 2))
    empty = parse_word("e", 2)
    for spec in (lvl3, FiltrationSpec(ZassenhausEMap(2, 1), 5)):
        assert member_series(empty, spec) and member_kernels(empty, spec)


def test_level_one_membership_is_trivial():
    spec = FiltrationSpec(TrivialEMap(), 1)
    rng = random.Random(54)
    for _ in range(20):
        g = random_reduced_word(rng, 2, 8)
        assert member_series(g, spec) and member_kernels(g, spec)


def test_series_witness_content():
    g = parse_word("x1", 2)
    spec = FiltrationSpec(ConstantEMap(2), 3)
    witness = series_witness(g, spec)
    assert witness == (1, (1,), 1)  # e(3,1) = 4 does not divide 1
    assert series_witness(parse_word("x1^4", 2), spec) is None
    # witness coefficient really is the expansion coefficient
    d, w, c = witness
    assert coefficient(magnus(g, ZZ, 2), w) == c


def test_kernel_witness_content():
    g = parse_word("x1", 2)
    spec = FiltrationSpec(ConstantEMap(2), 3)
    witness = kernel_witness(g, spec)
    assert witness is not None
    d, w, v = witness
    ring = RingSpec(spec.emap.evaluate(3, d))
    image = phi(w, g, ring)
    assert image != unimatrix_identity(d + 1, ring)
    assert v != 0 and any(v in row[i + 1:] for i, row in enumerate(image))


def _member_pool(rng, k, level):
    """Random words plus constructed members, shuffled."""
    pool = [random_reduced_word(rng, k, 10) for _ in range(44)]
    count = 10
    pool += product_sampler(ConstantEMap(2), level, k, count, seed=rng.randint(0, 10**6))
    pool += sample_recursive(ZassenhausEMap(2, 1), level, k, count, seed=rng.randint(0, 10**6))
    rng.shuffle(pool)
    return pool


def test_route_agreement_fuzz():
    rng = random.Random(55)
    emaps = [
        TrivialEMap(),
        ConstantEMap(2),
        ConstantEMap(3),
        SequenceGcdEMap((2, 3, 4, 5)),
        ZassenhausEMap(2, 1),
        ZassenhausEMap(3, 1),
    ]
    agree = members = 0
    for emap in emaps:
        for k in (2, 3):
            level = rng.randint(2, 5)
            spec = FiltrationSpec(emap, level)
            for g in _member_pool(rng, k, level)[:45]:
                s = member_series(g, spec)
                assert s == member_kernels(g, spec), (g, emap.describe(), level)
                agree += 1
                members += s
    assert agree >= 500 and members >= 40


def test_sampler_determinism_and_budget(monkeypatch):
    a = sample_recursive(ZassenhausEMap(2, 1), 3, 2, 8, seed=9)
    b = sample_recursive(ZassenhausEMap(2, 1), 3, 2, 8, seed=9)
    assert a == b
    c = product_sampler(ConstantEMap(2), 3, 2, 8, seed=9)
    d = product_sampler(ConstantEMap(2), 3, 2, 8, seed=9)
    assert c == d
    assert sample_recursive(SequenceGcdEMap((2, 2)), 3, 2, 0, seed=1) == []
    assert product_sampler(TrivialEMap(), 3, 2, 0, seed=1) == []
    samplers = ((sample_recursive, ZassenhausEMap(2, 1)), (product_sampler, TrivialEMap()))
    # one word per count: a count is refused before any word is drawn, and
    # before the product sampler sizes its Lyndon pools (level 30 has more
    # than MAX_CELLS letters of them)
    for sampler, table in samplers:
        with pytest.raises(ValueError, match=r"^level must be >= 1, got 0$"):
            sampler(table, 0, 2, -1)
        with pytest.raises(ValueError, match=r"^count must be >= 0, got -1$"):
            sampler(table, 3, 2, -1)
        for level in (3, 30):
            with pytest.raises(ValueError,
                               match=rf"^the sample count needs {MAX_CELLS + 1} cells"):
                sampler(table, level, 2, MAX_CELLS + 1)
    # a count of exactly the limit is drawn, under a limit small enough to draw
    monkeypatch.setattr(coeff, "MAX_CELLS", 4)
    for sampler, table in samplers:
        assert len(sampler(table, 1, 2, 4)) == 4
        with pytest.raises(ValueError, match=r"^the sample count needs 5 cells"):
            sampler(table, 1, 2, 5)


def _assert_own_members(e, rng, count):
    """Samples of the recursion of table e lie in its own terms at levels
    2..6, on both routes."""
    for level in range(2, 7):
        spec = FiltrationSpec(e, level)
        for g in sample_recursive(e, level, 2, count, seed=rng.randint(0, 10**6)):
            assert series_witness(g, spec) is None, (e, level, g)
            assert kernel_witness(g, spec) is None, (e, level, g)


def test_recursive_samples_are_members_afilt():
    rng = random.Random(56)
    count = 12
    for A in ((2, 3, 4, 5, 6), (0, 0, 0, 0, 0), (2, 2, 2, 2, 2), (0, 2, 0, 3, 4), (3, 0, 6, 0, 2)):
        _assert_own_members(SequenceGcdEMap(A), rng, count)


def test_recursive_samples_are_members_zassenhaus():
    rng = random.Random(57)
    count = 12
    for p, t in ((2, 1), (3, 1), (2, 2), (3, 2)):
        _assert_own_members(ZassenhausEMap(p, t), rng, count)


def test_zero_sequence_recursion_is_lower_central():
    # all power exponents 0: the recursion degenerates to iterated commutators
    count = 15
    spec = FiltrationSpec(TrivialEMap(), 3)
    for g in sample_recursive(SequenceGcdEMap((0, 0)), 3, 2, count, seed=58):
        assert member_series(g, spec), g


def test_permuted_prefix_samples_stay_members():
    # the membership ideal only sees the multiset of the first n - 1 exponents
    A = (2, 3, 4, 5)
    level = 5
    spec = FiltrationSpec(SequenceGcdEMap(A), level)
    count = 6
    for seed, perm in enumerate(permutations(A)):
        if seed % 4:
            continue  # six permutations are plenty
        for g in sample_recursive(SequenceGcdEMap(perm), level, 2, count, seed=59 + seed):
            assert member_series(g, spec), (perm, g)


def test_zassenhaus_chain_is_decreasing():
    count = 10
    for level in (3, 4, 5):
        samples = sample_recursive(ZassenhausEMap(2, 1), level, 2, count, seed=60 + level)
        lower = FiltrationSpec(ZassenhausEMap(2, 1), level - 1)
        for g in samples:
            assert member_series(g, lower), (level, g)


def test_cross_ring_prime_power_characterization():
    # membership under the p-power table over Z is exactly triviality of the
    # expansion over Z/p up to degree n - 1
    rng = random.Random(61)
    checked = members = 0
    for p in (2, 3):
        for n in (2, 3, 4, 5):
            spec = FiltrationSpec(ZassenhausEMap(p, 1), n)
            pool = [random_reduced_word(rng, 2, 10) for _ in range(30)]
            pool += sample_recursive(ZassenhausEMap(p, 1), n, 2, 8, seed=rng.randint(0, 10**6))
            ring = RingSpec(p)
            one = TruncSeries.one(ring, 2, n - 1)
            for g in pool:
                flat = magnus(g, ring, n - 1) == one
                assert member_series(g, spec) == flat, (p, n, g)
                checked += 1
                members += flat
    assert checked >= 300 and members >= 30


def test_product_sampler_containment():
    # product samples are members for tables that pass the binomial and
    # valuation audits, as these do
    rng = random.Random(62)
    emaps = [
        TrivialEMap(),
        ConstantEMap(2),
        ConstantEMap(3),
        SequenceGcdEMap((2, 3, 4)),
        ZassenhausEMap(2, 1),
    ]
    count = 10
    for emap in emaps:
        assert check_binomial(emap, 4).ok and check_condition_iii(emap, 4).ok
        for level in (2, 3, 4):
            spec = FiltrationSpec(emap, level)
            for g in product_sampler(emap, level, 2, count, seed=rng.randint(0, 10**6)):
                assert member_series(g, spec), (emap.describe(), level, g)


def test_members_are_closed_under_the_group_operations():
    rng = random.Random(63)
    spec = FiltrationSpec(ConstantEMap(2), 3)
    count = 40
    pool = product_sampler(ConstantEMap(2), 3, 2, count, seed=64)
    checked = 0
    for _ in range(100):
        g, h = rng.choice(pool), rng.choice(pool)
        x = GroupWord(2, (rng.randint(1, 2),))
        assert member_series(g * h, spec)
        assert member_series(g.inverse(), spec)
        assert member_series(x * g * x.inverse(), spec)
        checked += 3
    assert checked >= 300


def test_commutator_of_members_lands_deeper():
    # [level s, level t] sits inside level s + t for the lower central chain
    count = 12
    for s, t in ((1, 1), (1, 2), (2, 2)):
        us = product_sampler(TrivialEMap(), s, 2, count, seed=65 + s)
        vs = product_sampler(TrivialEMap(), t, 2, count, seed=66 + t)
        spec = FiltrationSpec(TrivialEMap(), s + t)
        for u, v in zip(us, vs):
            assert member_series(commutator(u, v), spec), (s, t, u, v)


def test_corner_entry_is_additive_on_members():
    rng = random.Random(67)
    checked = 0
    for n in (2, 3):
        pool = product_sampler(TrivialEMap(), n, 2, 20, seed=68 + n)
        for _ in range(20):
            g, h = rng.choice(pool), rng.choice(pool)
            for w in enumerate_monomials(2, n):
                left = phi(w, g * h, ZZ)[0][n]
                right = phi(w, g, ZZ)[0][n] + phi(w, h, ZZ)[0][n]
                assert left == right, (n, w, g, h)
                checked += 1
    assert checked >= 100


def test_members_act_trivially_off_the_corner():
    # at depth n every length-n monomial image is the identity away from the
    # top-right entry, which is the only place degree-n information survives
    count = 15
    for n in (2, 3):
        identity = unimatrix_identity(n + 1, ZZ)
        for g in product_sampler(TrivialEMap(), n, 2, count, seed=69 + n):
            for w in enumerate_monomials(2, n):
                assert equal_ignoring_corner(phi(w, g, ZZ), identity), (n, w, g)


def test_kernel_rows_are_bounded_before_they_are_built(monkeypatch):
    caps = []
    top_rows = filt._top_rows
    monkeypatch.setattr(filt, "_top_rows", lambda g, m, cap: caps.append(cap) or top_rows(g, m, cap))
    spec = FiltrationSpec(TrivialEMap(), 8)
    # degree 1 is read from the exponent sums before the bound applies
    assert kernel_witness(parse_word("x1", 10), spec) == (1, (1,), 1)
    with pytest.raises(ValueError, match=f"needs 11111117 cells .*limit of {MAX_CELLS}$"):
        kernel_witness(parse_word("[x1,x2]", 10), spec)
    assert caps == []
    with pytest.raises(ValueError, match=f"degree 39 needs more than {MAX_CELLS} cells"):
        kernel_witness(parse_word("[x1,x2]", 2), FiltrationSpec(TrivialEMap(), 40))
    # one level lower the rows hold 1111116 cells and are built
    spec = FiltrationSpec(TrivialEMap(), 7)
    assert kernel_witness(parse_word("[x1,x2]", 10), spec) == (2, (1, 2), 1)
    assert caps == [6]


def _witness_pool(rng, e, level, k):
    """Random words, words that pass degree 1 (commutators and e(n,1)-th
    powers), product-sampler words of the table and x1 times each."""
    pool = [random_reduced_word(rng, k, 10) for _ in range(10)]
    pool += [commutator(random_reduced_word(rng, k, 4), random_reduced_word(rng, k, 4))
             for _ in range(4)]
    pool += [random_reduced_word(rng, k, 4) ** min(e.evaluate(level, 1), 200) for _ in range(3)]
    count = 4
    built = product_sampler(e, level, k, count, seed=rng.randint(0, 10**6))
    return pool + built + [GroupWord(k, (1,)) * g for g in built]


def test_routes_match_the_full_expansion_oracle():
    rng = random.Random(57)
    gcdseq = SequenceGcdEMap((3, 3, 2, 2, 2, 2))
    cases = [(e, level) for e in (TrivialEMap(), ZassenhausEMap(2, 1), ConstantEMap(6))
             for level in (2, 3, 4, 5)]
    cases += [(gcdseq, level) for level in range(2, 8)]
    # multiplier 1 leaves degrees whose divisor is 1 below the diagonal
    cases += [(random_descending_table(rng, 5, multipliers=(0, 1, 1, 2, 3)), level)
              for level in (3, 4, 5) for _ in range(4)]
    # moduli mixing 2 and 3, whose lcm the kernel route works over
    cases += [(SequenceGcdEMap((2, 3, 2, 3, 2, 3)), level) for level in (3, 5, 6, 7)]
    # e(n, d) = 0 next to nonzero moduli: the kernel route works over Z
    zeros = ExplicitEMap({1: (1,), 2: (0, 1), 3: (0, 2, 1), 4: (0, 0, 2, 1), 5: (0, 0, 6, 2, 1)})
    cases += [(zeros, level) for level in (3, 4, 5)]
    seen = {"degree 1": 0, "higher": 0, "member": 0}
    for e, level in cases:
        spec = FiltrationSpec(e, level)
        k = 2 if level > 4 else rng.choice((2, 3))
        pool = _witness_pool(rng, e, level, k)
        if e is gcdseq:
            count = 3
            pool += sample_recursive(gcdseq, level, k, count, seed=level)
        for g in pool:
            series, kernel = membership_witnesses(g, e, level)
            assert series_witness(g, spec) == series, (g, e, level)
            assert kernel_witness(g, spec) == kernel, (g, e, level)
            seen["member" if series is None else "degree 1" if series[0] == 1 else "higher"] += 1
    assert min(seen.values()) >= 30, seen
    # one letter: x1^N is one run, however large N
    big = 10**7
    mixed = ExplicitEMap({1: (1,), 2: (2, 1), 3: (6, 2, 1), 4: (12, 6, 2, 1), 5: (48, 12, 6, 2, 1)})
    degrees = set()
    for e, level in [(ZassenhausEMap(2, 1), 5), (ZassenhausEMap(5, 1), 4), (zeros, 5), (mixed, 5),
                     (ConstantEMap(6), 4), (TrivialEMap(), 3), (SequenceGcdEMap((2, 3, 2, 3, 2, 3)), 7)]:
        spec = FiltrationSpec(e, level)
        first = e.evaluate(level, 1)
        multiple = big // first * first if first else 0
        for power in (big, -big, big + 1, 2**23, -(2**23), 5**10, 6**9, -(6**9), multiple, -multiple):
            g = parse_word(f"x1^{power}", 1)
            series, kernel = membership_witnesses(g, e, level)
            assert series_witness(g, spec) == series, (power, e, level)
            assert kernel_witness(g, spec) == kernel, (power, e, level)
            degrees.add(None if kernel is None else kernel[0])
    assert degrees == {None, 1, 3}, degrees


def test_routes_match_the_oracle_on_inverse_runs():
    # the series route divides by (1 + xi)^|e| on a negative run and the
    # kernel route multiplies by binom(e, j) with e < 0: two algorithms,
    # checked against one letter-by-letter expansion
    rng = random.Random(59)

    def inverse_word(k, length):
        return GroupWord(k, [-rng.randint(1, k) for _ in range(length)])

    tables = (TrivialEMap(), ZassenhausEMap(2, 1), ZassenhausEMap(3, 1), ConstantEMap(6),
              SequenceGcdEMap((3, 3, 2, 2, 2, 2)))
    seen = {"degree 1": 0, "higher": 0, "member": 0}
    for e in tables:
        for level in range(2, 7):
            spec = FiltrationSpec(e, level)
            k = 3 if level < 5 else 2
            q = min(e.evaluate(level, 1), 12) or 1
            u, v, w = (inverse_word(k, 3) for _ in range(3))
            pool = [inverse_word(k, 6), u ** q, (u * v) ** -q, commutator(u, v) ** -1,
                    commutator(commutator(u, v), w) ** -2,
                    commutator(u ** q, v ** -q), GroupWord(k, (1,)) * u ** q]
            # one letter is one run, however long: x1^-N with N past every cap
            pool += [GroupWord(1, (-1,)) ** ((e.evaluate(level, 1) or 1) * m) for m in (1, 7, 1000)]
            for g in pool:
                series, kernel = membership_witnesses(g, e, level)
                assert series_witness(g, spec) == series, (g, e, level)
                assert kernel_witness(g, spec) == kernel, (g, e, level)
                seen["member" if series is None else "degree 1" if series[0] == 1 else "higher"] += 1
    assert min(seen.values()) >= 20, seen


def test_routes_match_the_oracle_on_nested_powers():
    # words that keep their powers: the series route may walk the program,
    # the kernel route reads the runs, and both must name the witnesses of
    # one letter-by-letter expansion
    rng = random.Random(73)
    tables = (TrivialEMap(), ZassenhausEMap(2, 1), ZassenhausEMap(3, 1), ConstantEMap(6),
              SequenceGcdEMap((3, 3, 2, 2, 2, 2)))
    seen = {"degree 1": 0, "higher": 0, "member": 0, "walked": 0}
    for e in tables:
        for level in range(2, 6):
            spec = FiltrationSpec(e, level)
            top = len(filt.ideal_divisors(spec.row))
            first = e.evaluate(level, 1)
            exponents = list(range(-5, 6)) + [first, -first, 2 * first, 16, -16, 64]
            texts = []
            for _ in range(12):
                k = rng.choice((2, 3)) if level < 5 else 2
                text, letters, _ = random_power_expression(rng, k, 3, exponents)
                if len(letters) <= 400:
                    texts.append((text, k))
                # a long power of a short base, alone and in a product and
                # a commutator, which the series route walks as a program
                base, letters, _ = random_power_expression(rng, k, 2, range(-3, 4))
                if 1 < len(letters) <= 4:
                    q = first * rng.choice((2, 4, 8))
                    q = rng.choice((1, -1)) * (q if 0 < q <= 64 else 64)
                    texts += [(f"({base})^{q}", k), (f"x1*({base})^{q}", k),
                              (f"[({base})^{q},x2]", k)]
            for text, k in texts:
                g = parse_word(text, k)
                series, kernel = membership_witnesses(g, e, level)
                assert series_witness(g, spec) == series, (text, e, level)
                assert kernel_witness(g, spec) == kernel, (text, e, level)
                seen["member" if series is None else "degree 1" if series[0] == 1 else "higher"] += 1
                seen["walked"] += top > 0 and g.program_at(top) is not g.runs
    assert min(seen.values()) >= 20, seen


def test_product_samples_of_unaudited_tables_need_not_be_members():
    # rows (1), (2, 1), (2, 2, 1) descend but fail the binomial and
    # valuation audits, and some of their product samples are not members
    unaudited = ExplicitEMap({1: (1,), 2: (2, 1), 3: (2, 2, 1)})
    assert not check_binomial(unaudited, 3).ok and not check_condition_iii(unaudited, 3).ok
    spec = FiltrationSpec(unaudited, 3)
    samples = product_sampler(unaudited, 3, 2, 20, seed=1)
    assert not all(member_series(g, spec) for g in samples)


def test_families_build_a_spec_from_one_row():
    # a family that descends by construction is not scanned row by row
    start = time.perf_counter()
    FiltrationSpec(ZassenhausEMap(2, 1), 2000)
    FiltrationSpec(SequenceGcdEMap((2,) * 449), 450)
    assert time.perf_counter() - start < 0.5


def test_routes_read_only_the_row_the_spec_keeps(monkeypatch, tmp_path):
    rng = random.Random(60)
    path = tmp_path / "table.json"
    path.write_text(json.dumps([{"n": n, "values": list(values)}
                                for n, values in random_descending_table(rng, 7).table.items()]))
    tables = (TrivialEMap(), ConstantEMap(6), SequenceGcdEMap((3, 3, 2, 2, 2, 2)),
              ZassenhausEMap(2, 1), parse_emap(f"file:{path}"))
    cases = [(FiltrationSpec(e, level), _witness_pool(rng, e, level, 2))
             for e in tables for level in range(1, 8)]
    reads = []

    def counted(method):
        def reading(self, *args):
            reads.append((self, method.__name__, args))
            return method(self, *args)
        return reading

    for cls, name in ((EMap, "evaluate"), (EMap, "row"), (SequenceGcdEMap, "row")):
        monkeypatch.setattr(cls, name, counted(getattr(cls, name)))
    # building a spec reads the table, and the counter sees it
    FiltrationSpec(tables[-1], 3)
    assert reads
    reads.clear()
    degrees = set()
    for spec, pool in cases:
        for g in pool:
            series = series_witness(g, spec)
            assert (kernel_witness(g, spec) is None) == (series is None), (g, spec)
            degrees.add(None if series is None else min(series[0], 2))
    assert reads == []
    assert degrees == {None, 1, 2}, degrees


def test_kernel_route_reads_rows_that_are_not_chains():
    # the route reads e(n, d) alone, so a row whose moduli 4 and 6 are not a
    # chain has it work over their lcm 12, above each of them; e(4, 1) = 2
    # leaves exponent sums that are nonzero mod 4
    e = ExplicitEMap({4: (2, 4, 6, 1)})
    spec = SimpleNamespace(emap=e, level=4, row=e.row(4))
    rng = random.Random(58)
    pool = [random_reduced_word(rng, 2, 10) ** power for power in (2, 12) for _ in range(20)]
    pool += [commutator(random_reduced_word(rng, 2, 4), random_reduced_word(rng, 2, 4)) ** power
             for power in (1, 12) for _ in range(20)]
    seen = set()
    for g in pool:
        _, kernel = membership_witnesses(g, e, 4)
        assert kernel_witness(g, spec) == kernel, g
        seen.add(None if kernel is None else kernel[0])
    assert seen == {None, 2, 3}, seen


def test_a_degree_can_fail_on_its_longest_row_alone():
    # each word's expansion vanishes mod e(n, d) below its witness degree d,
    # so at degree d only the row of length d holds a nonzero entry: a route
    # that read the shorter rows alone would call every one of them a member
    cases = []
    for k in (2, 3):
        for d in (2, 3, 4):
            for u in lyndon_words(k, d):
                g = realize(basic_commutator(u), k)
                cases += [(g, TrivialEMap(), d + 1, d), (g ** 2, ConstantEMap(2), d + 2, d)]
    # rows over Z/12 where x1^4 leaves 4 in the row of length 1, which only
    # e(4, 2) = 4 clears
    cases.append((parse_word("x1^4", 1), ExplicitEMap({4: (4, 4, 6, 1)}), 4, 2))
    for g, e, level, d in cases:
        m = e.evaluate(level, d)
        coeffs = magnus_by_letters(g.letters, 0, d)
        assert not any(c % m if m else c for w, c in coeffs.items() if 0 < len(w) < d), (g, e, level)
        _, kernel = membership_witnesses(g, e, level)
        assert kernel is not None and kernel[0] == d, (g, e, level, kernel)
        spec = SimpleNamespace(emap=e, level=level, row=e.row(level))
        assert kernel_witness(g, spec) == kernel, (g, e, level)


def test_expansions_stop_at_the_degrees_that_can_decide(monkeypatch):
    calls = []
    tables = []
    expand, top_rows = filt.magnus, filt._top_rows

    def recording(g, ring, cap):
        calls.append((ring, cap))
        return expand(g, ring, cap)

    def recording_rows(g, modulus, cap):
        tables.append((modulus, cap))
        return top_rows(g, modulus, cap)

    monkeypatch.setattr(filt, "magnus", recording)
    monkeypatch.setattr(filt, "_top_rows", recording_rows)
    # a degree-1 failure is read from a cap-1 expansion, or the exponent sums,
    # alone; the sums build no rows
    g = parse_word("x1*x2^2", 2)
    spec = FiltrationSpec(ZassenhausEMap(2, 1), 5)
    assert series_witness(g, spec) == kernel_witness(g, spec) == (1, (1,), 1)
    assert calls == [(ZZ, 1)]
    assert tables == []
    e = SequenceGcdEMap((3, 3, 2, 2, 2, 2))
    assert e.row(7) == (144, 24, 4, 2, 1, 1, 1)
    spec = FiltrationSpec(e, 7)
    count = 2
    for g in [parse_word("x1^144", 2)] + sample_recursive(e, 7, 2, count, seed=3):
        calls.clear()
        tables.clear()
        assert series_witness(g, spec) is None
        assert calls == [(ZZ, 1), (ZZ, 4)]
        assert tables == []
        calls.clear()
        assert kernel_witness(g, spec) is None
        # the kernel route expands nothing: one table up to degree 4 over
        # the lcm of e(7, 2..4)
        assert calls == []
        assert tables == [(24, 4)]
    # a table with every divisor 1 constrains nothing
    calls.clear()
    tables.clear()
    spec = FiltrationSpec(ConstantEMap(1), 5)
    g = parse_word("x1*x2", 2)
    assert series_witness(g, spec) is None and kernel_witness(g, spec) is None
    assert calls == [] and tables == []
