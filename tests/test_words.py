import random
import time

import pytest
from hypothesis import given, strategies as st

from filtrate.words import (
    MAX_NESTING,
    MAX_RUNS,
    BasicCommutator,
    GroupWord,
    WordSyntaxError,
    basic_commutator,
    commutator,
    enumerate_monomials,
    format_monomial,
    format_word,
    is_lyndon,
    lyndon_words,
    parse_monomial,
    parse_word,
    realize,
)
from filtrate import words as words_module
from filtrate.words import _power, _power_run_count

from helpers import (
    brute_lyndon,
    necklace_by_mobius,
    program_letters,
    random_power_expression,
    random_reduced_word,
)

signed_letters = st.lists(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda i: st.sampled_from([i, -i])
    ),
    max_size=12,
)


def words(draw_letters=signed_letters):
    return draw_letters.map(lambda ls: GroupWord(3, ls))


def test_free_reduction_is_eager_and_complete():
    w = GroupWord(2, (1, 2, -2, -1, 1))
    assert w.letters == (1,)
    assert GroupWord(2, (1, -1)).runs == ()
    # nested cancellation needs the stack, not a single adjacent scan
    assert GroupWord(2, (1, 2, 2, -2, -2, -1)).runs == ()


def test_letters_validated():
    with pytest.raises(ValueError):
        GroupWord(2, (3,))
    with pytest.raises(ValueError):
        GroupWord(2, (0,))
    with pytest.raises(ValueError):
        GroupWord(0, ())


def test_group_operations():
    x1, x2 = GroupWord(2, (1,)), GroupWord(2, (2,))
    assert (x1 * x1.inverse()).runs == ()
    assert ((x1 * x2) ** -1).letters == (-2, -1)
    assert (x1 ** 3).letters == (1, 1, 1)
    assert (x1 ** 0).runs == ()
    assert commutator(x1, x1).runs == ()
    assert commutator(x1, x2).letters == (-1, -2, 1, 2)
    e = GroupWord(2)
    assert commutator(x1, e).runs == ()
    assert commutator(e, x1).runs == ()


def test_runs_merge_and_collapse():
    x1, x2 = GroupWord(2, (1,)), GroupWord(2, (2,))
    assert parse_word("[x1^5,x1^-5]", 2) == GroupWord(2)
    assert commutator(x1 ** 5, x1 ** -5).runs == ()
    assert parse_word("(x1*x2)^-3", 2).runs == ((2, -1), (1, -1)) * 3
    assert (x1 ** 3 * x1 ** -1).runs == ((1, 2),)
    assert (x1 ** 3 * x1 ** -3).runs == ()
    # a core that starts and ends with the same letter merges at every seam
    assert (x1 ** 2 * x2 * x1 ** 3) ** 3 == parse_word("x1^2*x2*x1^5*x2*x1^5*x2*x1^3", 2)
    # a conjugate's power keeps the conjugator once
    assert (x2 * x1 * x2 ** -1) ** 4 == parse_word("x2*x1^4*x2^-1", 2)


def test_long_power_is_one_run():
    w = parse_word("x1^10000000", 1)
    assert len(w) == 10_000_000
    assert w.runs == ((1, 10_000_000),)
    assert format_word(w) == "x1^10000000"


@given(words(), st.integers(min_value=1, max_value=7))
def test_power_run_count_matches_the_built_power(w, k):
    for runs in (w.runs, w.inverse().runs):
        assert _power_run_count(runs, k) == len(_power(runs, k))


def test_oversized_powers_are_refused_before_they_are_built():
    with pytest.raises(ValueError, match=f"2000000 runs, over the limit of {MAX_RUNS}"):
        parse_word("((x1*x2)^1000)^1000", 2)
    half = MAX_RUNS // 2
    assert len(parse_word(f"(x1*x2)^{half}", 2).runs) == 2 * half
    with pytest.raises(ValueError, match=f"{2 * half + 2} runs"):
        parse_word(f"(x1*x2)^{half + 1}", 2)
    with pytest.raises(ValueError, match="runs, over the limit"):
        GroupWord(2, (1, 2)) ** -(half + 1)
    # the exact count, not runs(w) * k: a conjugate keeps its three runs
    w = parse_word("(x1*x2*x1^-1)^1000000000", 2)
    assert w.runs == ((1, 1), (2, 1_000_000_000), (1, -1))
    assert parse_word("x1^10000000", 1).runs == ((1, 10_000_000),)


@given(words(), words())
def test_product_and_commutator_limits_count_the_reduced_result(a, b):
    # the limit is checked against the exact run count, so a result of
    # exactly MAX_RUNS runs passes and one run fewer allowed refuses it
    inverse = [-s for s in reversed(a.letters)] + [-s for s in reversed(b.letters)]
    for name, build, expected in (
        ("product", lambda: a * b, GroupWord(3, a.letters + b.letters)),
        ("commutator", lambda: commutator(a, b), GroupWord(3, inverse + list(a.letters + b.letters))),
    ):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(words_module, "MAX_RUNS", len(expected.runs))
            assert build() == expected
            patch.setattr(words_module, "MAX_RUNS", len(expected.runs) - 1)
            with pytest.raises(ValueError, match=f"the {name} has {len(expected.runs)} runs"):
                build()


@given(st.lists(st.tuples(st.integers(1, 3), st.sampled_from([-2, -1, 1, 2])), min_size=1,
                max_size=8),
       st.integers(min_value=0, max_value=8))
def test_parsed_products_meet_the_limit_as_a_left_fold_does(terms, limit):
    # the parser reduces each factor onto the product so far; the limit must
    # still fire at the first prefix from two factors on that is over it
    text = "*".join(f"x{i}^{k}" for i, k in terms)
    factors = [GroupWord(3, (i,)) ** k for i, k in terms]

    def fold():
        product = factors[0]
        for w in factors[1:]:
            product = product * w
        return product

    outcomes = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(words_module, "MAX_RUNS", limit)
        for build in (fold, lambda: parse_word(text, 3)):
            try:
                outcomes.append(build())
            except ValueError as exc:
                outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def test_words_keep_their_powers_as_a_program():
    g = parse_word("(x1*x2)^64", 2)
    # 6 squares and one product into what precedes the power
    assert g.program == ((((1, 1), (2, 1)), 64),)
    assert g._program[1:] == (2, 7)
    # 2 + 7 * (cap + 1) * 2 against 128 runs: walked up to cap 7
    assert g.program_at(7) is g.program and g.program_at(8) is g.runs
    # equality, hashing and printing read the runs alone
    flat = GroupWord(2, (1, 2) * 64)
    assert flat.program is flat.runs and flat.program_at(1) is flat.runs
    assert g == flat and hash(g) == hash(flat) and format_word(g) == format_word(flat)
    assert g.inverse().program == ((((1, 1), (2, 1)), -64),)
    x1 = GroupWord(2, (1,))
    assert (x1 * g).program == ((1, 1), (((1, 1), (2, 1)), 64))
    assert commutator(g, x1).program == (
        (((1, 1), (2, 1)), -64), (1, -1), (((1, 1), (2, 1)), 64), (1, 1))
    # nested powers keep the inner node as the body of the outer one
    inner = ((((1, 1), (2, 1)), 8),)
    assert parse_word("((x1*x2)^8)^8", 2).program == ((inner, 8),)
    # a program that cannot be cheaper than the runs is not kept: one run,
    # a short power, or powers that cancel
    for text in ("x1^1000", "(x1*x2)^5", "(x1*x2*x1^-1)^1000", "(x1*x2)^64*(x1*x2)^-64"):
        w = parse_word(text, 2)
        assert w._program is None and w.program is w.runs, text


def test_programs_spell_their_runs():
    rng = random.Random(74)
    kept = 0
    for _ in range(300):
        k = rng.randint(1, 3)
        text, letters, _ = random_power_expression(rng, k, 3, (-64, -9, -2, 2, 3, 8, 64))
        if len(letters) > 3000:
            continue
        g = parse_word(text, k)
        assert g == GroupWord(k, letters), text
        assert GroupWord(k, program_letters(g.program)) == g, text
        kept += g.program is not g.runs
    assert kept >= 15, kept


def test_alphabet_mismatch_is_an_error():
    with pytest.raises(ValueError):
        GroupWord(2, (1,)) * GroupWord(3, (1,))


def test_parse_examples():
    assert parse_word("x1*x1^-1", 2).runs == ()
    assert parse_word("[x1,x2]", 2).letters == (-1, -2, 1, 2)
    assert parse_word("x1^3", 2).letters == (1, 1, 1)
    assert parse_word("e", 2).runs == ()
    assert parse_word("(x1*x2)^2", 2).letters == (1, 2, 1, 2)
    assert parse_word("[x1, [x1, x2]]", 2) == commutator(
        GroupWord(2, (1,)), commutator(GroupWord(2, (1,)), GroupWord(2, (2,)))
    )
    assert parse_word(" e * x1 ", 2).letters == (1,)
    assert parse_word("[x1,e]", 2).runs == ()
    assert parse_word("x2^-2", 2).letters == (-2, -2)


def test_parse_errors_carry_position():
    with pytest.raises(WordSyntaxError) as info:
        parse_word("x1**", 2)
    assert info.value.position == 3
    with pytest.raises(WordSyntaxError):
        parse_word("", 2)
    with pytest.raises(WordSyntaxError):
        parse_word("x0", 2)
    with pytest.raises(WordSyntaxError) as info:
        parse_word("x3", 2)
    assert "x3" in str(info.value)
    with pytest.raises(WordSyntaxError):
        parse_word("[x1,x2", 2)
    with pytest.raises(WordSyntaxError):
        parse_word("(x1", 2)
    with pytest.raises(WordSyntaxError):
        parse_word("x1^", 2)
    with pytest.raises(WordSyntaxError):
        parse_word("x1 x2", 2)
    with pytest.raises(WordSyntaxError):
        parse_word("y1", 2)


@pytest.mark.parametrize("parse, text, position", [
    (parse_word, "x1^\u00b2", 3),
    (parse_word, "x\u00b2", 1),
    (parse_word, "x\u0663", 1),
    (parse_word, "x1^\u0663", 3),
    (parse_word, "x1^-\u0663", 3),
    (parse_monomial, "x1\u00b2", 2),
    (parse_monomial, "x\u0663", 1),
    # more digits than int() converts by default (4300)
    (parse_word, "x1^" + "9" * 5000, 3),
    (parse_word, "x1^ -" + "9" * 5000, 5),
    (parse_word, "x" + "1" * 5000, 1),
    (parse_monomial, "x1x" + "1" * 5000, 3),
])
def test_integers_are_ascii_digits_that_int_reads(parse, text, position):
    # superscripts and other Unicode digits are not digits of the grammar,
    # and a number too long to convert fails at its first digit
    with pytest.raises(WordSyntaxError) as info:
        parse(text, 3)
    assert info.value.position == position


def test_whitespace_separates_tokens_and_never_splits_one():
    assert parse_word(" x1 ^ -2 * [ x1 , x2 ] ", 2) == parse_word("x1^-3*x2^-1*x1*x2", 2)
    for text, message, position in (
        ("x1 2", "unexpected character", 3),
        ("x 1", "expected a generator index after 'x'", 1),
        ("x1^- 2", "expected an integer", 3),
    ):
        with pytest.raises(WordSyntaxError) as info:
            parse_word(text, 2)
        assert str(info.value) == f"{message} (at position {position})", text
        assert info.value.position == position


@pytest.mark.parametrize("text, position", [
    ("x" + "1" * 4301, 1),
    ("x1^" + "9" * 4301, 3),
    ("x1^ -" + "9" * 4301, 5),
])
def test_an_integer_one_digit_too_long_fails_at_its_first_digit(text, position):
    # int() converts at most 4300 digits by default
    with pytest.raises(WordSyntaxError) as info:
        parse_word(text, 3)
    assert str(info.value) == f"integer of 4301 digits too long to read (at position {position})"


def test_parse_refuses_an_alphabet_below_one_whatever_the_text():
    for alphabet_size in (0, -1):
        for text in ("x1", "e", "", "y", "[x1,x2]"):
            with pytest.raises(ValueError) as info:
                parse_word(text, alphabet_size)
            assert type(info.value) is ValueError
            assert str(info.value) == f"alphabet size must be >= 1, got {alphabet_size}"


def test_deep_nesting_is_a_syntax_error():
    assert parse_word("(" * 100 + "x1" + ")" * 100, 1).letters == (1,)
    for text in ("(" * 3000 + "x1" + ")" * 3000, "[x1," * 3000 + "x1" + "]" * 3000):
        with pytest.raises(WordSyntaxError, match="nested too deeply") as info:
            parse_word(text, 1)
        assert 0 < info.value.position < len(text)


def _nested(depth, probe):
    """Parse at `depth` levels of call stack, to show the limit ignores it."""
    if depth:
        return _nested(depth - 1, probe)
    return probe()


@pytest.mark.parametrize("opener, closer, value", [
    ("(", ")", GroupWord(1, (1,))),
    ("[x1,", "]", GroupWord(1)),
])
def test_nesting_limit_is_fixed(opener, closer, value):
    deepest = opener * MAX_NESTING + "x1" + closer * MAX_NESTING
    assert _nested(800, lambda: parse_word(deepest, 1)) == value
    over = opener * (MAX_NESTING + 1) + "x1" + closer * (MAX_NESTING + 1)
    with pytest.raises(WordSyntaxError, match="nested too deeply") as info:
        _nested(800, lambda: parse_word(over, 1))
    assert info.value.position == len(opener) * MAX_NESTING


GAPS = st.sampled_from(["", "", " ", "\t", " \n "])


@st.composite
def expressions(draw, depth=3):
    """(text, value) of a word drawn from the grammar over x1..x3.

    The text puts random whitespace between tokens; the value is built from
    the same draws with *, ** and commutator.
    """
    terms, value = [], None
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from("xe[(" if depth else "xe"))
        if kind == "x":
            i = draw(st.integers(1, 3))
            text, atom = f"x{i}", GroupWord(3, (i,))
        elif kind == "e":
            text, atom = "e", GroupWord(3)
        elif kind == "[":
            a, u = draw(expressions(depth - 1))
            b, v = draw(expressions(depth - 1))
            text, atom = f"[{a}{draw(GAPS)},{b}{draw(GAPS)}]", commutator(u, v)
        else:
            a, u = draw(expressions(depth - 1))
            text, atom = f"({a}{draw(GAPS)})", u
        if draw(st.booleans()):
            k = draw(st.integers(-3, 3))
            text, atom = f"{text}{draw(GAPS)}^{draw(GAPS)}{k}", atom ** k
        terms.append(draw(GAPS) + text)
        value = atom if value is None else value * atom
    return f"{draw(GAPS)}*".join(terms) + draw(GAPS), value


@given(expressions(), st.sampled_from(["delete", "insert", "truncate"]),
       st.integers(0, 10**6), st.sampled_from("x13e[](),*^- \ty"))
def test_parse_matches_the_grammar_and_fails_in_range(expression, edit, at, char):
    text, value = expression
    w = parse_word(text, 3)
    assert w == value
    assert GroupWord(3, program_letters(w.program)) == w
    at %= len(text) + 1
    if edit == "delete":
        text = text[:at] + text[at + 1:]
    elif edit == "insert":
        text = text[:at] + char + text[at:]
    else:
        text = text[:at]
    try:
        parse_word(text, 3)
    except WordSyntaxError as err:
        assert 0 <= err.position <= len(text)
    except ValueError as err:
        assert "over the limit" in str(err)


def test_format_round_trip_counted():
    rng = random.Random(21)
    for _ in range(1000):
        k = rng.randint(1, 4)
        w = random_reduced_word(rng, k, 14)
        assert parse_word(format_word(w), k) == w


@given(words())
def test_format_round_trip(w):
    assert parse_word(format_word(w), 3) == w


@given(words(), words(), words())
def test_multiplication_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(words())
def test_inverse_cancels(w):
    assert (w * w.inverse()).runs == ()
    assert (w.inverse() * w).runs == ()


@given(words(), st.integers(min_value=-4, max_value=4))
def test_power_matches_repeated_product(w, k):
    expected = GroupWord(3)
    step = w if k >= 0 else w.inverse()
    for _ in range(abs(k)):
        expected = expected * step
    assert w ** k == expected


@given(words(), words(), st.integers(min_value=-4, max_value=4))
def test_runs_agree_with_letter_reduction(a, b, k):
    def flat_inverse(letters):
        return tuple(-s for s in reversed(letters))

    base = a.letters if k >= 0 else flat_inverse(a.letters)
    flat = {
        a * b: a.letters + b.letters,
        a ** k: base * abs(k),
        commutator(a, b): flat_inverse(a.letters) + flat_inverse(b.letters) + a.letters + b.letters,
    }
    for w, letters in flat.items():
        assert w == GroupWord(3, letters)
        assert len(w) == len(w.letters)
        assert all(e != 0 for _, e in w.runs)
        assert all(x[0] != y[0] for x, y in zip(w.runs, w.runs[1:]))


def test_reduction_leaves_no_adjacent_cancellation():
    rng = random.Random(22)
    for _ in range(300):
        w = random_reduced_word(rng, 3, 20)
        assert all(a != -b for a, b in zip(w.letters, w.letters[1:]))


def test_enumerate_monomials():
    assert list(enumerate_monomials(2, 1)) == [(1,), (2,)]
    assert list(enumerate_monomials(2, 2)) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert list(enumerate_monomials(3, 0)) == [()]
    ms = list(enumerate_monomials(3, 3))
    assert len(ms) == 27 == len(set(ms))
    assert ms == sorted(ms)
    with pytest.raises(ValueError):
        list(enumerate_monomials(0, 2))


def test_monomial_formatting():
    assert format_monomial((1, 2)) == "x1x2"
    assert format_monomial(()) == "e"
    assert parse_monomial("x1x2", 2) == (1, 2)
    assert parse_monomial("e", 2) == ()
    assert parse_monomial("x12", 12) == (12,)
    with pytest.raises(WordSyntaxError):
        parse_monomial("x3", 2)
    with pytest.raises(WordSyntaxError):
        parse_monomial("x1*x2", 2)
    with pytest.raises(WordSyntaxError):
        parse_monomial("x", 2)


def test_lyndon_words_examples():
    assert list(lyndon_words(2, 1)) == [(1,), (2,)]
    assert list(lyndon_words(2, 2)) == [(1, 2)]
    assert list(lyndon_words(2, 3)) == [(1, 1, 2), (1, 2, 2)]
    assert list(lyndon_words(3, 2)) == [(1, 2), (1, 3), (2, 3)]
    for k, n in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match="need alphabet_size >= 1 and weight >= 1"):
            list(lyndon_words(k, n))


def test_one_letter_has_one_lyndon_word():
    assert list(lyndon_words(1, 1)) == [(1,)]
    start = time.perf_counter()
    assert list(lyndon_words(1, 10**12)) == []
    assert list(enumerate_monomials(1, 10**6)) == [(1,) * 10**6]
    assert time.perf_counter() - start < 0.5


def test_lyndon_words_against_rotation_minimality():
    for k in (2, 3):
        for n in range(1, 7):
            assert list(lyndon_words(k, n)) == brute_lyndon(k, n)


def test_lyndon_words_are_sorted_and_counted_by_necklaces():
    for k in (2, 3, 4):
        for n in range(1, 7):
            ws = list(lyndon_words(k, n))
            assert ws == sorted(ws)
            assert len(ws) == necklace_by_mobius(k, n)


def test_is_lyndon():
    assert is_lyndon((1, 1, 2))
    assert not is_lyndon((2, 1))
    assert not is_lyndon((1, 2, 1, 2))
    assert is_lyndon((1,))
    assert not is_lyndon(())


def test_basic_commutator_structure():
    bc = basic_commutator((1, 2))
    assert bc.left == BasicCommutator(gen=1)
    assert bc.right == BasicCommutator(gen=2)
    # the split is at the longest proper Lyndon suffix
    assert str(basic_commutator((1, 1, 2))) == "[x1,[x1,x2]]"
    assert str(basic_commutator((1, 2, 2))) == "[[x1,x2],x2]"
    assert str(basic_commutator((1, 1, 2, 2))) == "[x1,[[x1,x2],x2]]"
    with pytest.raises(ValueError):
        basic_commutator((2, 1))
    with pytest.raises(ValueError):
        basic_commutator(())


def test_basic_commutator_foliage_and_weight():
    for k in (2, 3):
        for n in range(1, 6):
            for u in lyndon_words(k, n):
                bc = basic_commutator(u)
                assert str(bc).replace("[", "").replace("]", "").replace(",", "") == format_monomial(u)
                assert bc.weight == n


def test_basic_commutator_shape_validation():
    with pytest.raises(ValueError):
        BasicCommutator()
    with pytest.raises(ValueError):
        BasicCommutator(gen=1, left=BasicCommutator(gen=1), right=BasicCommutator(gen=2))


def test_realize():
    assert realize(basic_commutator((1,)), 2).letters == (1,)
    assert realize(basic_commutator((1, 2)), 2).letters == (-1, -2, 1, 2)
    nested = realize(basic_commutator((1, 1, 2)), 2)
    x1, x2 = GroupWord(2, (1,)), GroupWord(2, (2,))
    assert nested == commutator(x1, commutator(x1, x2))
    with pytest.raises(ValueError):
        realize(basic_commutator((1, 3)), 2)
