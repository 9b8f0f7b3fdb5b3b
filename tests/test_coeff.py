import random

import pytest

from filtrate.coeff import RingSpec, ZZ, divisible, integer_rank, parse_ring

from helpers import is_unit, rational_rank


def test_ring_spec_validation():
    assert RingSpec(0).is_integers
    assert not RingSpec(5).is_integers
    with pytest.raises(ValueError):
        RingSpec(-1)


def test_divisible_zero_convention():
    # 0*Z = {0}: divisibility by 0 means being 0
    assert divisible(0, 0)
    assert not divisible(5, 0)
    assert divisible(6, 3)
    assert not divisible(5, 3)
    assert divisible(0, 7)
    assert divisible(-6, 3)
    assert divisible(17, 1)


def test_is_unit():
    assert is_unit(1, ZZ) and is_unit(-1, ZZ)
    assert not is_unit(2, ZZ)
    assert is_unit(3, RingSpec(7))
    assert not is_unit(3, RingSpec(6))
    assert is_unit(0, RingSpec(1))


def test_integer_rank_examples():
    assert integer_rank([[1, -1]]) == 1
    assert integer_rank([[1, 0], [0, 1]]) == 2
    assert integer_rank([[2, 4], [1, 2]]) == 1
    assert integer_rank([]) == 0
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([[0]]) == 0


def test_integer_rank_needs_rectangular_input():
    with pytest.raises(ValueError):
        integer_rank([[1, 2], [3]])


def test_integer_rank_against_rational_elimination():
    rng = random.Random(13)
    for _ in range(100):
        m = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)]
        assert integer_rank(m) == rational_rank(m)


def test_integer_rank_rectangular_and_low_rank():
    rng = random.Random(14)
    for _ in range(60):
        nr = rng.randint(1, 7)
        nc = rng.randint(1, 7)
        m = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
        r = integer_rank(m)
        assert r == rational_rank(m)
        assert r <= min(nr, nc)
        transpose = [list(col) for col in zip(*m)]
        assert integer_rank(transpose) == r
    # rank-1 outer products with big entries stay exact
    for _ in range(20):
        u = [rng.randint(-10**9, 10**9) for _ in range(5)]
        v = [rng.randint(-10**9, 10**9) for _ in range(5)]
        m = [[a * b for b in v] for a in u]
        assert integer_rank(m) == (1 if any(u) and any(v) else 0)


def test_parse_ring():
    assert parse_ring("Z") == ZZ
    assert parse_ring("Z/6") == RingSpec(6)
    assert parse_ring(" Z/1 ") == RingSpec(1)
    for bad in ("Q", "Z/0", "Z/-3", "Z/x", "Z/", ""):
        with pytest.raises(ValueError):
            parse_ring(bad)


def test_ring_spec_strings():
    assert str(ZZ) == "Z"
    assert str(RingSpec(12)) == "Z/12"
