import random

import pytest

from filtrate import coeff, filt
from filtrate.coeff import RingSpec, ZZ, divisible, integer_rank, parse_ring
from filtrate.emap import ConstantEMap
from filtrate.filt import FiltrationSpec, kernel_witness, product_sampler
from filtrate.massey import pairing_matrix
from filtrate.words import lyndon_words, parse_word

from helpers import is_unit, rational_rank


def test_ring_spec_validation():
    assert RingSpec(0) == ZZ
    assert RingSpec(5) != ZZ
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


def _kernel_cells(monkeypatch, k, n):
    """The cells the kernel route builds to decide degrees up to n over k
    letters: every entry of `_top_rows` past the empty word's, and one per row."""
    built = []
    top_rows = filt._top_rows
    monkeypatch.setattr(filt, "_top_rows",
                        lambda g, m, cap: built.append(top_rows(g, m, cap)) or built[-1])
    # every e(n + 1, d) with d <= n is a power of 2, so every degree up to n is decided
    assert kernel_witness(parse_word("e", k), FiltrationSpec(ConstantEMap(2), n + 1)) is None
    (rows,) = built
    return sum(map(len, rows[1:])) + len(rows) - 1


def _sampler_cells(monkeypatch, k, n):
    """The letters of the Lyndon pools the product sampler lists at level n
    over k letters, where every weight 1..n is drawn from."""
    letters = []
    monkeypatch.setattr(filt, "lyndon_words",
                        lambda k, i: letters.extend(words := list(lyndon_words(k, i))) or words)
    assert len(product_sampler(ConstantEMap(2), n, k, 1)) == 1
    return sum(map(len, letters))


def _pairing_cells(monkeypatch, k, n):
    """The cells of the pairing matrix at level n over k letters: an entry
    per row and column, and the n letters of each column label."""
    matrix = pairing_matrix(k, n)
    assert {len(row) for row in matrix.entries} == {len(matrix.column_labels)}
    assert {len(w) for w in matrix.column_labels} == {n}
    return (len(matrix.entries) + n) * len(matrix.column_labels)


# build -> (cells it builds at alphabet k, length n; what it is; its formula)
BUILDS = {
    "kernel": (_kernel_cells, "the kernel route at alphabet {k}, degree {n}",
               "alphabet^1 + ... + alphabet^{n} + {n}"),
    "sampler": (_sampler_cells, "the product sampler at alphabet {k}, level {n}",
                "weight * necklace(alphabet, weight), summed over the weights"),
    "pairing": (_pairing_cells, "the pairing matrix at alphabet {k}, level {n}",
                "(rows + level) * alphabet^level"),
}


@pytest.mark.parametrize("build", BUILDS)
@pytest.mark.parametrize("k, n", [(2, 3), (2, 6), (3, 3), (5, 2)])
def test_each_exponential_build_counts_the_cells_it_builds(monkeypatch, build, k, n):
    cells_of, what, formula = BUILDS[build]
    cells = cells_of(monkeypatch, k, n)
    # the limit is read when the build is checked, by the count and the
    # shortcut alike: a build of exactly the limit is made, one cell over is not
    monkeypatch.setattr(coeff, "MAX_CELLS", cells)
    assert cells_of(monkeypatch, k, n) == cells
    monkeypatch.setattr(coeff, "MAX_CELLS", cells - 1)
    with pytest.raises(ValueError) as refused:
        cells_of(monkeypatch, k, n)
    assert str(refused.value) == (f"{what} needs {cells} cells ({formula}), over the limit of"
                                  f" {cells - 1}").format(k=k, n=n)


@pytest.mark.parametrize("build", BUILDS)
@pytest.mark.parametrize("k, n", [(51, 2), (2, 7), (10**4000, 2)])
def test_a_build_surely_over_the_limit_is_refused_uncounted(monkeypatch, build, k, n):
    # k, or 2^n, over a limit of 50: the count, which at k = 10^4000 has
    # more digits than int() prints, is never computed
    cells_of, what, formula = BUILDS[build]
    monkeypatch.setattr(coeff, "MAX_CELLS", 50)
    with pytest.raises(ValueError) as refused:
        cells_of(monkeypatch, k, n)
    assert str(refused.value) == (f"{what} needs more than 50 cells ({formula}), over the limit"
                                  " of 50").format(k=k, n=n)
