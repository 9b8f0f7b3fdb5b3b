"""Tests of the benchmark's oracle; they do not import filtrate.

    python3 -m pytest perfbench/test_oracle.py -q
"""

import random

import pytest

import oracle
import workloads


def _random_expression(rng, k, depth):
    """A small word expression using every construct of the grammar."""
    if depth == 0 or rng.random() < 0.3:
        return f"x{rng.randint(1, k)}" + (f"^{rng.choice((-3, -2, -1, 2, 3))}" if rng.random() < 0.4 else "")
    kind = rng.choice(("mul", "pow", "comm", "paren"))
    a = _random_expression(rng, k, depth - 1)
    b = _random_expression(rng, k, depth - 1)
    if kind == "mul":
        return f"{a}*{b}"
    if kind == "pow":
        return f"({a})^{rng.choice((-2, -1, 0, 2, 3))}"
    if kind == "comm":
        return f"[{a},{b}]"
    return f"({a})"


@pytest.mark.parametrize("modulus", [0, 2, 3, 4, 6, 9])
def test_run_length_expansion_matches_letterwise(modulus):
    rng = random.Random(modulus)
    for _ in range(60):
        k = rng.randint(1, 3)
        text = _random_expression(rng, k, 3)
        cap = rng.randint(1, 4)
        assert oracle.magnus(text, cap, modulus) == oracle.letterwise(text, cap, modulus), text


def test_long_runs_match_letterwise():
    for text in ("x1^40*x2^-37", "[x1^12,x2^-9]^3", "((x1*x2^-1)^5)^-3"):
        for modulus in (0, 8):
            assert oracle.magnus(text, 4, modulus) == oracle.letterwise(text, 4, modulus)


def test_readme_expansions():
    assert oracle.sorted_terms(oracle.magnus("[x1,[x1,x2]]", 3)) == [
        ((), 1), ((1, 1, 2), 1), ((1, 2, 1), -2), ((2, 1, 1), 1)]
    assert oracle.sorted_terms(oracle.magnus("x1^-1", 3, 4)) == [
        ((), 1), ((1,), 3), ((1, 1), 1), ((1, 1, 1), 3)]


def test_generalised_binomial():
    for k in (-5, -1, 0, 1, 7):
        # (1 + x)^k (1 + x)^-k = 1
        assert oracle.mul(oracle.run_series(1, k, 6, 0), oracle.run_series(1, -k, 6, 0), 6, 0) == oracle.one(6)
    assert [oracle.gbinom(-2, j) for j in range(5)] == [1, -2, 3, -4, 5]


def test_reduction_and_runs():
    assert oracle.reduced_letters("x1*x2*x2^-1*x1^-1") == []
    assert oracle.reduced_letters("[x1,x2]") == [-1, -2, 1, 2]
    assert oracle.runs(oracle.reduced_letters("x1^3*x2^-2*x1")) == [3, 2, 1]


def test_necklace_counts():
    assert [oracle.necklace(2, n) for n in range(1, 9)] == [2, 1, 2, 3, 6, 9, 18, 30]
    assert [oracle.necklace(k, n) for k, n in workloads.MASSEY_INSTANCES] == [18, 30, 116, 150, 204]


def test_table_rows():
    assert oracle.table_row("trivial", 4) == (0, 0, 0, 1)
    assert oracle.table_row("const:3", 3) == (9, 3, 1)
    assert oracle.table_row("zass:2,1", 5) == (8, 4, 2, 2, 1)
    assert oracle.table_row("zass:3,2", 4) == (81, 9, 9, 1)
    assert oracle.table_row("gcdseq:2,3,4", 4) == (24, 2, 1, 1)


def test_membership_witnesses():
    # the README's member example: [x1,x2] is not in level 3 of the lower central series
    got = oracle.membership("[x1,x2]", "trivial", 3, 2)
    assert got["member"] is False
    assert got["series"] == (2, (1, 2), 1)
    assert got["kernel"] == (2, (1, 2), 1)
    assert oracle.membership("[x1,[x1,x2]]", "zass:2,1", 3, 2)["member"] is True
    assert oracle.membership("x1^4", "zass:2,1", 4, 1)["member"] is True
    assert oracle.membership("x1^2", "zass:2,1", 4, 1)["series"] == (1, (1,), 2)


def test_audits(tmp_path):
    assert oracle.emap_check("zass:2,1", 6) == {
        "descending": {"ok": True, "violation": None},
        "binomial": {"ok": True, "violation": None},
        "condition_iii": {"ok": True, "violation": None}}
    assert oracle.audit_descending("gcdseq:2,3,4,6", 5) is None
    # descending, but binom(2, 2) = 1 is not in e(3, 2) Z = 2Z, and
    # v_2(e(3,1)) - 1 = 0 < v_2(e(3,2)) = 1
    path = tmp_path / "table.json"
    path.write_text('[{"n": 1, "values": [1]}, {"n": 2, "values": [3, 1]}, {"n": 3, "values": [2, 2, 1]}]')
    assert oracle.emap_check(f"file:{path}", 3) == {
        "descending": {"ok": True, "violation": None},
        "binomial": {"ok": False, "violation": [3, 1, 2]},
        "condition_iii": {"ok": False, "violation": [3, 1, 1, 2]}}
    path.write_text('[{"n": 1, "values": [1]}, {"n": 2, "values": [2, 1]}, {"n": 3, "values": [2, 4, 1]}]')
    assert oracle.emap_check(f"file:{path}", 3)["descending"] == {"ok": False, "violation": [3, 1]}


def test_built_members_are_members():
    rng = random.Random(3)
    for table in workloads.MEMBERSHIP_TABLES:
        for level, k in workloads.MEMBERSHIP_CELLS[:3]:
            word = workloads.member(rng, table, k, level)
            assert oracle.membership(word, table, level, k)["member"], (table, level, word)


def test_inputs_depend_only_on_the_seed():
    assert workloads.membership(5) == workloads.membership(5)
    assert workloads.powers(5) == workloads.powers(5)
    assert workloads.membership(5) != workloads.membership(6)
    shape = [(op["table"], op["level"], op["kind"]) for op in workloads.powers(1)]
    assert shape == [(op["table"], op["level"], op["kind"]) for op in workloads.powers(2)]
