"""Value semantics of the record classes: RingSpec, the exponent tables
(every EMap family), FiltrationSpec, PairingMatrix, BasicCommutator,
GroupWord, TruncSeries and CheckResult.

Each is immutable, compares equal to a record of its own class with equal
fields (CheckResult, a pair, also to the plain tuple), hashes by those
fields (a TruncSeries, which holds dicts, is unhashable), copies, deep
copies and pickles to an equal value, and checks its fields on
construction.  All but CheckResult derive from `coeff.Record`.  A
FiltrationSpec compares its table as a value, so a spec over any table
survives a deep copy and a pickle as an equal value.

One sweep covers every `Record` subclass in the package: each declares
its own slots with its fields first, and `_make` of a value's slots, which
copies and pickles go through, rebuilds it slot for slot, a word's program
included, and refuses a wrong count of values.  A subclass that declares no
slots of its own is refused when it is defined.
"""

import copy
import json
import pickle

import pytest

from filtrate.coeff import Record, RingSpec, ZZ
from filtrate.emap import (
    CheckResult,
    ConstantEMap,
    EMap,
    ExplicitEMap,
    SequenceGcdEMap,
    TrivialEMap,
    ZassenhausEMap,
    check_descending,
    parse_emap,
)
from filtrate.filt import FiltrationSpec
from filtrate.magnus import TruncSeries, magnus
from filtrate.massey import PairingMatrix, pairing_matrix
from filtrate.words import BasicCommutator, GroupWord, basic_commutator, parse_word


def assert_immutable(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, 1)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.undeclared = 1


def copies(value):
    """A shallow copy, a deep copy and a pickle round trip of value."""
    return copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))


def test_ring_spec_values():
    assert RingSpec() == RingSpec(0) == RingSpec(modulus=0) == ZZ
    assert RingSpec(6) == RingSpec(modulus=6) and RingSpec(6).modulus == 6
    assert RingSpec(6) != RingSpec(5) and RingSpec(0) != 0 and RingSpec(6) != (6,)
    assert hash(RingSpec(6)) == hash(RingSpec(modulus=6))
    assert len({RingSpec(6), RingSpec(6), ZZ, RingSpec()}) == 2
    assert repr(RingSpec(6)) == "RingSpec(modulus=6)" and repr(ZZ) == "RingSpec(modulus=0)"
    assert str(RingSpec(6)) == "Z/6" and str(ZZ) == "Z"
    assert_immutable(RingSpec(6), "modulus")
    with pytest.raises(ValueError, match=r"^modulus must be non-negative, got -1$"):
        RingSpec(-1)
    for ring in (ZZ, RingSpec(12)):
        assert copy.copy(ring) == copy.deepcopy(ring) == pickle.loads(pickle.dumps(ring)) == ring


def test_filtration_spec_values(tmp_path):
    table = ExplicitEMap({1: (1,), 2: (2, 1), 3: (4, 2, 1)})
    spec = FiltrationSpec(table, 3)
    assert spec == FiltrationSpec(emap=table, level=3)
    assert (spec.emap, spec.level, spec.row) == (table, 3, (4, 2, 1))
    assert spec != FiltrationSpec(table, 2)
    # the table is compared as a value, whatever order its rows came in
    twin = FiltrationSpec(ExplicitEMap([(3, (4, 2, 1)), (1, (1,)), (2, (2, 1))]), 3)
    assert twin == spec and hash(twin) == hash(spec)
    assert spec != FiltrationSpec(ExplicitEMap({**table.table, 3: (2, 2, 1)}), 3)
    # and row takes no part: another family with the same row is another spec
    assert FiltrationSpec(ConstantEMap(2), 3).row == spec.row
    assert FiltrationSpec(ConstantEMap(2), 3) != spec
    assert repr(FiltrationSpec(TrivialEMap(), 2)) == "FiltrationSpec(emap=TrivialEMap(), level=2)"
    assert repr(FiltrationSpec(ZassenhausEMap(2, 1), 3)) == (
        "FiltrationSpec(emap=ZassenhausEMap(p=2, t=1), level=3)")
    for name in ("emap", "level", "row"):
        assert_immutable(spec, name)
    for copied in copies(spec):
        assert copied == spec and hash(copied) == hash(spec) and copied.row == spec.row
    with pytest.raises(ValueError, match=r"^level must be >= 1, got 0$"):
        FiltrationSpec(TrivialEMap(), 0)
    path = tmp_path / "table.json"
    path.write_text(json.dumps([{"n": 1, "values": [1]}, {"n": 2, "values": [3, 2]}]))
    with pytest.raises(ValueError, match=r"^exponent table is not descending up to level 2: "
                                         r"first violation at \(2, 1\)$"):
        FiltrationSpec(parse_emap(f"file:{path}"), 2)
    assert FiltrationSpec(parse_emap(f"file:{path}"), 1).row == (1,)


@pytest.mark.parametrize("text, fields", [
    ("trivial", {}),
    ("const:3", {"a": 3}),
    ("gcdseq:2,4,8", {"seq": (2, 4, 8)}),
    ("zass:2,1", {"p": 2, "t": 1}),
    ("file:", {"pairs": ((1, (1,)), (2, (2, 1)), (3, (4, 2, 1)))}),
])
def test_exponent_table_values(tmp_path, text, fields):
    if text == "file:":
        path = tmp_path / "table.json"
        # written from the last row up: the pairs are sorted by n
        path.write_text(json.dumps([{"n": n, "values": row} for n, row in fields["pairs"][::-1]]))
        text += str(path)
    e, twin = parse_emap(text), parse_emap(text)
    assert isinstance(e, EMap) and isinstance(e, Record)
    assert e == twin and e is not twin and hash(e) == hash(twin)
    assert {name: getattr(e, name) for name in type(e)._fields} == fields
    for name in (*fields, "descending_by_construction"):
        assert_immutable(e, name)
    for copied in copies(e):
        assert copied == e and hash(copied) == hash(e) and copied.row(3) == e.row(3)
    spec = FiltrationSpec(e, 3)
    assert spec == FiltrationSpec(twin, 3) and hash(spec) == hash(FiltrationSpec(twin, 3))
    for copied in copies(spec):
        assert copied == spec and hash(copied) == hash(spec) and copied.row == spec.row


def test_exponent_tables_compare_by_family_and_fields():
    assert repr(TrivialEMap()) == "TrivialEMap()"
    assert repr(ConstantEMap(3)) == "ConstantEMap(a=3)"
    assert repr(SequenceGcdEMap([2, 4])) == "SequenceGcdEMap(seq=(2, 4))"
    assert repr(ZassenhausEMap(2)) == "ZassenhausEMap(p=2, t=1)"
    assert repr(ExplicitEMap({2: (2, 1), 1: (1,)})) == "ExplicitEMap(pairs=((1, (1,)), (2, (2, 1))))"
    # each repr is a call that builds an equal table
    for e in (ConstantEMap(3), SequenceGcdEMap([2, 4]), ZassenhausEMap(2),
              ExplicitEMap({2: (2, 1), 1: (1,)})):
        assert eval(repr(e)) == e
    assert ZassenhausEMap(2) == ZassenhausEMap(2, 1) == ZassenhausEMap(p=2, t=1)
    assert ZassenhausEMap(2, 1) != ZassenhausEMap(2, 2) and ZassenhausEMap(2) != ZassenhausEMap(3)
    assert SequenceGcdEMap([2, 4]) == SequenceGcdEMap((2, 4)) != SequenceGcdEMap((4, 2))
    # equal rows in another family are another table
    assert ConstantEMap(1) != SequenceGcdEMap((1, 1)) and ConstantEMap(2) != 2
    assert ExplicitEMap({1: (1,)}) == ExplicitEMap([(1, (1,))]) != TrivialEMap()
    with pytest.raises(TypeError, match=r"^TrivialEMap\(\) takes 0 arguments, got 1$"):
        TrivialEMap(2)
    assert len({TrivialEMap(), TrivialEMap(), ConstantEMap(3), parse_emap("const:3")}) == 2


def test_pairing_matrix_values():
    pm = pairing_matrix(2, 3)
    fields = (pm.level, pm.alphabet_size, pm.row_labels, pm.column_labels, pm.entries)
    assert fields[:2] == (3, 2) and len(pm.row_labels) == len(pm.entries) == 2
    same = PairingMatrix(level=3, alphabet_size=2, row_labels=pm.row_labels,
                         column_labels=pm.column_labels, entries=pm.entries)
    assert PairingMatrix(*fields) == same == pm and hash(same) == hash(pm)
    other = PairingMatrix(*fields[:4], pm.entries[::-1])
    assert other != pm
    assert repr(pm) == (f"PairingMatrix(level=3, alphabet_size=2, row_labels={pm.row_labels!r}, "
                        f"column_labels={pm.column_labels!r}, entries={pm.entries!r})")
    for name in ("level", "alphabet_size", "row_labels", "column_labels", "entries"):
        assert_immutable(pm, name)
    # the row labels are words, which copy and pickle as values too
    for twin in copies(pm):
        assert twin == pm and twin.row_labels == pm.row_labels and hash(twin) == hash(pm)


def test_basic_commutator_values():
    leaf = BasicCommutator(gen=1)
    assert leaf == BasicCommutator(1) == BasicCommutator(1, None, None)
    assert (leaf.gen, leaf.left, leaf.right, leaf.is_leaf, leaf.weight) == (1, None, None, True, 1)
    node = BasicCommutator(left=leaf, right=BasicCommutator(gen=2))
    assert node == basic_commutator((1, 2)) and hash(node) == hash(basic_commutator((1, 2)))
    assert node != basic_commutator((1, 3)) and node != BasicCommutator(left=node.right, right=leaf)
    assert len({leaf, BasicCommutator(gen=1), node, basic_commutator((1, 2))}) == 2
    assert repr(leaf) == "BasicCommutator(gen=1, left=None, right=None)"
    assert repr(node) == (
        "BasicCommutator(gen=None, left=BasicCommutator(gen=1, left=None, right=None), "
        "right=BasicCommutator(gen=2, left=None, right=None))"
    )
    assert str(basic_commutator((1, 1, 2))) == "[x1,[x1,x2]]"
    for name in ("gen", "left", "right"):
        assert_immutable(node, name)
    message = r"^need exactly one of: generator, \(left, right\)$"
    for kwargs in ({}, {"gen": 1, "left": leaf, "right": leaf}, {"left": leaf},
                   {"gen": 1, "left": leaf}, {"gen": 1, "right": leaf}):
        with pytest.raises(ValueError, match=message):
            BasicCommutator(**kwargs)
    tree = basic_commutator((1, 1, 2, 1, 2))
    assert copy.copy(tree) == copy.deepcopy(tree) == pickle.loads(pickle.dumps(tree)) == tree


def test_group_word_values():
    g = parse_word("(x1*x2^-1)^1000", 2)
    flat = GroupWord(2, g.letters)
    # the power is kept as a program, which equality and hashing do not read
    assert g._program is not None and flat._program is None
    assert g == flat and flat == g and hash(g) == hash(flat) == hash((2, g.runs))
    assert g != GroupWord(3, g.letters) and g != g.inverse() and g != flat * flat
    assert g != g.runs and g != g.letters and GroupWord(1) != () and GroupWord(1) != 0
    assert len({g, flat, GroupWord(3, g.letters), GroupWord(2)}) == 3
    assert repr(parse_word("x1^2*x2^-1", 2)) == "<GroupWord x1^2*x2^-1 over x1..x2>"
    assert repr(GroupWord(1)) == "<GroupWord e over x1..x1>"
    for name in ("alphabet_size", "runs", "_program"):
        assert_immutable(g, name)
    assert isinstance(g, Record)
    for twin in copies(g):
        assert twin == g and hash(twin) == hash(g) and twin._program == g._program
        assert twin.program_at(3) == g.program != g.runs
        assert magnus(twin, ZZ, 3) == magnus(g, ZZ, 3)
    for twin in copies(flat):
        assert twin == flat and twin._program is None and twin.program_at(3) == flat.runs


def test_trunc_series_values():
    s = magnus(parse_word("x1*x2^-1", 2), ZZ, 3)
    same = TruncSeries(ZZ, 2, 3, s.coeffs)
    assert s == same and same == s and s.parts == same.parts
    assert s != TruncSeries(RingSpec(7), 2, 3, s.coeffs) and s != TruncSeries(ZZ, 3, 3, s.coeffs)
    assert s != TruncSeries(ZZ, 2, 4, s.coeffs) and s != TruncSeries.one(ZZ, 2, 3)
    assert s != s.coeffs and s != s.parts and TruncSeries(ZZ, 1, 1) != 0
    with pytest.raises(TypeError, match=r"^unhashable type: 'TruncSeries'$"):
        hash(s)
    assert repr(TruncSeries(ZZ, 1, 2, {(): 1, (1,): -1})) == "<TruncSeries 1*e + -1*x1 over Z, cap 2>"
    for name in ("ring", "alphabet_size", "cap", "parts"):
        assert_immutable(s, name)
    assert isinstance(s, Record)
    for twin in copies(s):
        assert twin == s and twin.sorted_terms() == s.sorted_terms()
        assert twin * s == s * s


def test_check_result_values():
    bad = check_descending(ExplicitEMap({1: (1,), 2: (3, 2)}), 2)
    assert bad == CheckResult(False, (2, 1)) == CheckResult(ok=False, violation=(2, 1))
    assert (bad.ok, bad.violation) == (False, (2, 1))
    # a pair: it unpacks, indexes and compares as the tuple (ok, violation)
    ok, violation = bad
    assert (ok, violation) == bad == (False, (2, 1)) and bad[1] == (2, 1) and len(bad) == 2
    assert hash(bad) == hash((False, (2, 1))) and CheckResult(True, None) == (True, None)
    assert check_descending(TrivialEMap(), 4) == CheckResult(True, None)
    assert bad != CheckResult(False, (2, 2)) and bad != CheckResult(True, None)
    assert hash(bad) == hash(CheckResult(False, (2, 1)))
    assert repr(bad) == "CheckResult(ok=False, violation=(2, 1))"
    assert repr(CheckResult(True, None)) == "CheckResult(ok=True, violation=None)"
    for name in ("ok", "violation"):
        assert_immutable(bad, name)
    assert copy.copy(bad) == copy.deepcopy(bad) == pickle.loads(pickle.dumps(bad)) == bad


# one value of each record class, as the tests above build them
SAMPLES = {
    RingSpec: lambda: RingSpec(12),
    EMap: EMap,
    TrivialEMap: TrivialEMap,
    ConstantEMap: lambda: ConstantEMap(3),
    SequenceGcdEMap: lambda: SequenceGcdEMap([2, 4, 8]),
    ZassenhausEMap: lambda: ZassenhausEMap(2, 1),
    ExplicitEMap: lambda: ExplicitEMap({2: (2, 1), 1: (1,)}),
    FiltrationSpec: lambda: FiltrationSpec(ExplicitEMap({1: (1,), 2: (2, 1), 3: (4, 2, 1)}), 3),
    PairingMatrix: lambda: pairing_matrix(2, 3),
    BasicCommutator: lambda: basic_commutator((1, 1, 2, 1, 2)),
    GroupWord: lambda: parse_word("(x1*x2^-1)^1000", 2),
    TruncSeries: lambda: magnus(parse_word("x1*x2^-1", 2), ZZ, 3),
}


def record_classes(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from record_classes(sub)


def test_every_record_class_has_a_sample():
    # importing filtrate.coeff above ran the package's __init__, which
    # imports every module that defines a record class
    assert set(record_classes()) == set(SAMPLES)


@pytest.mark.parametrize("cls", sorted(record_classes(), key=lambda cls: cls.__name__),
                         ids=lambda cls: cls.__name__)
def test_make_rebuilds_every_slot(cls):
    assert "__slots__" in cls.__dict__
    assert cls.__slots__[:len(cls._fields)] == cls._fields
    value = SAMPLES[cls]()
    slots = tuple(getattr(value, name) for name in cls.__slots__)
    made = cls._make(*slots)
    assert type(made) is cls and made == value
    assert all(getattr(made, name) is slot for name, slot in zip(cls.__slots__, slots))
    if cls is GroupWord:
        assert made._program is not None and made.program_at(3) == value.program
    for twin in copies(made):
        assert type(twin) is cls and twin == value
        assert tuple(getattr(twin, name) for name in cls.__slots__) == slots
    # one value per slot, no fewer and no more
    for wrong in (slots[:-1], slots + (None,)):
        if len(wrong) != len(slots):
            with pytest.raises(TypeError, match=rf"^{cls.__name__}\(\) takes {len(slots)} arguments, got {len(wrong)}$"):
                cls._make(*wrong)


def test_a_record_class_declares_its_own_slots():
    # inherited slots would leave the subclass's own values nowhere to go
    with pytest.raises(TypeError, match=r"^Loose must declare its own __slots__$"):
        class Loose(RingSpec):
            pass
