"""The record types: immutable, compared and hashed by their fields, and
picklable, as part of their API."""

import pickle

import pytest

from hookpart.explorer import CellRef, Matching
from hookpart.qseries import Discrepancy, VerifyReport
from hookpart.statistics import PairMultiset

PAIR = (CellRef(0, 1, 1), CellRef(0, 1, 1))


# two equal, separately built instances of each record type
RECORDS = [
    (Discrepancy(where=3, expected=1, actual=2), Discrepancy(3, 1, 2)),
    (VerifyReport.success("x"), VerifyReport("x", True)),
    (
        VerifyReport.failure("y", where=("sources", CellRef(0, 1, 2)), expected=(1, 2), actual=(3, 4)),
        VerifyReport("y", False, Discrepancy(("sources", CellRef(0, 1, 2)), (1, 2), (3, 4))),
    ),
    (Matching(n=1, pairs=(PAIR,)), Matching(1, (PAIR,))),
    (PairMultiset(counts={(0, 0): 1}), PairMultiset({(0, 0): 1})),
]
IDS = ["discrepancy", "passing-report", "failing-report", "matching", "pair-multiset"]


@pytest.mark.parametrize("record", [pair[0] for pair in RECORDS], ids=IDS)
def test_pickle_round_trip(record):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(record, protocol))
        assert copy == record and type(copy) is type(record)
        assert repr(copy) == repr(record)


@pytest.mark.parametrize("record", [pair[0] for pair in RECORDS], ids=IDS)
def test_fields_cannot_be_assigned(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = None  # no instance dict either


@pytest.mark.parametrize("a, b", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records(a, b):
    assert a == b and a is not b
    if isinstance(a, PairMultiset):
        with pytest.raises(TypeError):
            hash(a)  # its counts are a dict
    else:
        assert hash(a) == hash(b)


def test_unequal_fields_give_unequal_records():
    assert VerifyReport.success("x") != VerifyReport.success("y")
    assert Discrepancy(3, 1, 2) != Discrepancy(3, 1, 5)
    assert Matching(1, (PAIR,)) != Matching(1, ())
    assert PairMultiset({(0, 0): 1}) != PairMultiset({(0, 0): 2})


def test_field_order_defaults_and_repr():
    assert Discrepancy._fields == ("where", "expected", "actual")
    assert VerifyReport._fields == ("context", "passed", "first_discrepancy")
    assert Matching._fields == ("n", "pairs")
    assert PairMultiset._fields == ("counts",)
    assert VerifyReport("x", True).first_discrepancy is None
    assert repr(VerifyReport.failure("y", where=(0, 1), expected=4, actual=5)) == (
        "VerifyReport(context='y', passed=False, "
        "first_discrepancy=Discrepancy(where=(0, 1), expected=4, actual=5))"
    )
    assert repr(PairMultiset({(0, 0): 1})) == "PairMultiset(counts={(0, 0): 1})"
    assert repr(Matching(1, ())) == "Matching(n=1, pairs=())"


def test_report_invariant_holds_for_every_constructor():
    with pytest.raises(ValueError):
        VerifyReport("x", True, Discrepancy(0, 1, 2))
    with pytest.raises(ValueError):
        VerifyReport("x", False)
    with pytest.raises(ValueError):
        VerifyReport.success("x")._replace(passed=False)
    assert VerifyReport.success("x")._replace(context="y") == VerifyReport.success("y")


def test_pair_multiset_total_and_count():
    pm = PairMultiset({(0, 0): 2, (1, 3): 5})
    assert pm.total == 7 and pm.count(1, 3) == 5 and pm.count(9, 9) == 0
    with pytest.raises(TypeError):
        PairMultiset(counts={}, total=0)
