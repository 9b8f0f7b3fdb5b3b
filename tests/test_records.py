"""Value semantics of the record classes: RingSpec, FiltrationSpec,
PairingMatrix, BasicCommutator and CheckResult.

Each is immutable, compares equal to a record of its own class with equal
fields (CheckResult, a pair, also to the plain tuple), hashes and prints by
those fields, and checks its fields on construction.
"""

import copy
import json
import pickle

import pytest

from filtrate.coeff import RingSpec, ZZ
from filtrate.emap import CheckResult, ExplicitEMap, TrivialEMap, check_descending, parse_emap
from filtrate.filt import FiltrationSpec
from filtrate.massey import PairingMatrix, pairing_matrix
from filtrate.words import BasicCommutator, basic_commutator


def assert_immutable(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, 1)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.undeclared = 1


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
    # the table is compared as an object, and row takes no part
    assert spec != FiltrationSpec(ExplicitEMap(table.table), 3)
    table.table[3] = (2, 2, 1)
    changed = FiltrationSpec(table, 3)
    assert changed.row == (2, 2, 1) and changed == spec and hash(changed) == hash(spec)
    assert repr(FiltrationSpec(TrivialEMap(), 2)) == "FiltrationSpec(emap=TrivialEMap(), level=2)"
    for name in ("emap", "level", "row"):
        assert_immutable(spec, name)
    assert copy.copy(spec) == spec and copy.copy(spec).row == spec.row
    with pytest.raises(ValueError, match=r"^level must be >= 1, got 0$"):
        FiltrationSpec(TrivialEMap(), 0)
    path = tmp_path / "table.json"
    path.write_text(json.dumps([{"n": 1, "values": [1]}, {"n": 2, "values": [3, 2]}]))
    with pytest.raises(ValueError, match=r"^exponent table is not descending up to level 2: "
                                         r"first violation at \(2, 1\)$"):
        FiltrationSpec(parse_emap(f"file:{path}"), 2)
    assert FiltrationSpec(parse_emap(f"file:{path}"), 1).row == (1,)


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
    assert copy.copy(pm) == pm


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
    for kwargs in ({}, {"gen": 1, "left": leaf, "right": leaf}, {"left": leaf}):
        with pytest.raises(ValueError, match=message):
            BasicCommutator(**kwargs)
    tree = basic_commutator((1, 1, 2, 1, 2))
    assert copy.copy(tree) == copy.deepcopy(tree) == pickle.loads(pickle.dumps(tree)) == tree


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
