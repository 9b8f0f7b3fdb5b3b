import random

import pytest

import filtrate.massey as massey
from filtrate import filt
from filtrate.coeff import ZZ, integer_rank
from filtrate.emap import TrivialEMap
from filtrate.filt import FiltrationSpec, member_series, product_sampler
from filtrate.magnus import coefficient, magnus
from filtrate.massey import PairingMatrix, massey_rank, necklace, pairing_matrix, pairing_rank
from filtrate.words import enumerate_monomials, lyndon_words, parse_word, realize, basic_commutator

from helpers import necklace_by_mobius, pairing_rows_by_magnus, pairing_value, rational_rank


def test_necklace_frozen_values():
    assert necklace(2, 1) == 2
    assert necklace(2, 2) == 1
    assert necklace(2, 3) == 2
    assert necklace(2, 4) == 3
    assert necklace(2, 5) == 6
    assert necklace(3, 2) == 3
    assert necklace(3, 3) == 8
    assert necklace(3, 4) == 18
    assert necklace(3, 5) == 48
    with pytest.raises(ValueError):
        necklace(0, 2)
    with pytest.raises(ValueError):
        necklace(2, 0)


def test_necklace_matches_independent_mobius_sum():
    for m in range(1, 5):
        for n in range(1, 9):
            assert necklace(m, n) == necklace_by_mobius(m, n)


def test_necklace_divisor_sum_identity():
    # summing d * counts over divisors recovers the full word count
    for m in range(1, 5):
        for n in range(1, 9):
            total = sum(d * necklace(m, d) for d in range(1, n + 1) if n % d == 0)
            assert total == m**n


def test_pairing_value_frozen():
    g = parse_word("[x1,x2]", 2)
    assert pairing_value(g, {(1, 2): 1}, 2) == 1
    assert pairing_value(g, {(2, 1): 1}, 2) == -1
    assert pairing_value(g, {(1, 2): 1, (2, 1): 1}, 2) == 0
    assert pairing_value(g, {(1, 2): 3, (2, 2): 100}, 2) == 3


def test_pairing_value_preconditions():
    with pytest.raises(ValueError):
        pairing_value(parse_word("x1", 2), {(1, 2): 1}, 2)
    with pytest.raises(ValueError):
        pairing_value(parse_word("[x1,x2]", 2), {(1,): 1}, 2)
    with pytest.raises(ValueError):
        pairing_value(parse_word("[x1,x2]", 2), {(1, 3): 1}, 2)


def test_pairing_value_additive_on_products():
    rng = random.Random(71)
    count = 25
    for n in (2, 3):
        pool = product_sampler(TrivialEMap(), n, 2, count, seed=72 + n)
        monomials = list(enumerate_monomials(2, n))
        for _ in range(50):
            g, h = rng.choice(pool), rng.choice(pool)
            weights = {rng.choice(monomials): rng.randint(-3, 3) for _ in range(3)}
            assert pairing_value(g * h, weights, n) == (
                pairing_value(g, weights, n) + pairing_value(h, weights, n)
            )


def test_deeper_elements_pair_to_zero():
    # weight n + 1 realizations sit below level n + 1, hence kill every
    # degree-n functional
    rng = random.Random(73)
    for n in (2, 3):
        monomials = list(enumerate_monomials(2, n))
        for w in lyndon_words(2, n + 1):
            g = realize(basic_commutator(w), 2)
            assert member_series(g, FiltrationSpec(TrivialEMap(), n + 1))
            weights = {rng.choice(monomials): rng.randint(-3, 3) for _ in range(3)}
            assert pairing_value(g, weights, n) == 0


def test_pairing_matrix_level_two_two_letters():
    pm = pairing_matrix(2, 2)
    assert isinstance(pm, PairingMatrix)
    assert pm.level == 2 and pm.alphabet_size == 2
    assert pm.row_labels == (parse_word("[x1,x2]", 2),)
    assert pm.column_labels == ((1, 1), (1, 2), (2, 1), (2, 2))
    assert pm.entries == ((0, 1, -1, 0),)


def test_pairing_matrix_shapes_and_entries():
    pm = pairing_matrix(2, 3)
    assert len(pm.entries) == 2 and all(len(r) == 8 for r in pm.entries)
    pm = pairing_matrix(3, 2)
    assert len(pm.entries) == 3 and all(len(r) == 9 for r in pm.entries)
    # each entry is the expansion coefficient of the realized row bracket
    for w, row in zip(lyndon_words(3, 2), pm.entries):
        g = realize(basic_commutator(w), 3)
        s = magnus(g, ZZ, 2)
        for mono, value in zip(enumerate_monomials(3, 2), row):
            assert coefficient(s, mono) == value
    assert all(any(v != 0 for v in row) for row in pm.entries)
    with pytest.raises(ValueError):
        pairing_matrix(2, 1)
    with pytest.raises(ValueError, match="alphabet size must be >= 1, got 0"):
        pairing_matrix(0, 2)


def test_rank_equals_necklace_count():
    for m in (2, 3):
        for n in (2, 3, 4):
            pm = pairing_matrix(m, n)
            assert len(pm.entries) == necklace(m, n)
            rank = massey_rank(m, n)
            assert rank == necklace(m, n), (m, n, rank)
            assert rank == rational_rank([list(r) for r in pm.entries])
    assert massey_rank(2, 5) == necklace(2, 5) == 6


def test_lie_rows_match_magnus_rows():
    # every (k, n) with k**n <= 1024: the degree-n coefficients of each
    # realized bracketing, read from the kernel route's top rows (one pass
    # of binomials over the runs); up to k**n <= 256 also the rows of the
    # old build, which expanded each bracketing with `magnus` to cap n
    for k in range(2, 33):
        n = 2
        while k**n <= 1024:
            pm = pairing_matrix(k, n)
            realized = tuple(realize(basic_commutator(u), k) for u in lyndon_words(k, n))
            assert pm.row_labels == realized
            assert pm.entries == tuple(
                tuple(filt._top_rows(g, 0, n)[n]) for g in realized
            ), (k, n)
            if k**n <= 256:
                assert pm.entries == pairing_rows_by_magnus(k, n), (k, n)
            n += 1


def _with_entries(pm, entries):
    return PairingMatrix(pm.level, pm.alphabet_size, pm.row_labels, pm.column_labels, entries)


def _with_row(pm, i, row):
    return _with_entries(pm, pm.entries[:i] + (tuple(row),) + pm.entries[i + 1:])


def test_rank_falls_back_to_elimination_without_the_certificate(monkeypatch):
    calls = []

    def spy(entries):
        calls.append(len(entries))
        return integer_rank(entries)

    monkeypatch.setattr(massey, "integer_rank", spy)
    for k, n in ((2, 5), (3, 4), (2, 6)):
        calls.clear()
        pm = pairing_matrix(k, n)
        rows = len(pm.entries)
        assert pairing_rank(pm) == rows == necklace(k, n)
        assert calls == []
        i = rows // 2
        lyndon = pm.column_labels.index(list(lyndon_words(k, n))[i])
        doubled = list(pm.entries[i])
        doubled[lyndon] *= 2
        earlier = list(pm.entries[i])
        earlier[0] = 1  # x1^n, never a term of a bracketing
        mutants = [
            _with_row(pm, i, doubled),
            _with_row(pm, i, earlier),
            _with_row(pm, i, pm.entries[i - 1]),
            _with_entries(pm, pm.entries + pm.entries[:1]),
        ]
        for mutant in mutants:
            calls.clear()
            rank = pairing_rank(mutant)
            assert calls == [len(mutant.entries)], (k, n)
            assert rank == rational_rank([list(r) for r in mutant.entries]), (k, n)
        # a duplicated row, in place or appended, loses a rank
        assert pairing_rank(mutants[2]) == rows - 1
        assert pairing_rank(mutants[3]) == rows


def test_oversampling_members_does_not_raise_rank():
    # rows coming from arbitrary depth-n members stay inside the span of the
    # bracket rows
    rng = random.Random(74)
    for m, n in ((2, 3), (2, 4), (3, 3)):
        pm = pairing_matrix(m, n)
        rows = [list(r) for r in pm.entries]
        pool = product_sampler(TrivialEMap(), n, m, 2 * len(rows), seed=75 + m + n)
        monomials = list(enumerate_monomials(m, n))
        for g in pool:
            s = magnus(g, ZZ, n)
            rows.append([coefficient(s, w) for w in monomials])
        assert integer_rank(rows) == necklace(m, n), (m, n)
