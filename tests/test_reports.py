"""The report module: where the report types live, the pickles that name
their old home, and the lazy first-failure scan every verifier returns
through."""

import pickle

import pytest

import hookpart
from hookpart import anatomy, qseries, reports
from hookpart.qseries import make_monomial
from hookpart.reports import Discrepancy, VerifyReport, first_failure


@pytest.mark.parametrize("name", ["Discrepancy", "VerifyReport", "compare_counts"])
def test_one_object_under_every_name(name):
    assert getattr(qseries, name) is getattr(reports, name)
    if name != "compare_counts":
        assert getattr(hookpart, name) is getattr(reports, name)


# protocol-0 pickles made while the report types lived in hookpart.qseries
OLD_PICKLES = [
    (
        b"ccopy_reg\n_reconstructor\np0\n(chookpart.qseries\nVerifyReport\np1\nc__builtin__\n"
        b"tuple\np2\n(Vdemo(n=3)\np3\nI00\ng0\n(chookpart.qseries\nDiscrepancy\np4\ng2\n((I0\n"
        b"I1\ntp5\nI4\nI5\ntp6\ntp7\nRp8\ntp9\ntp10\nRp11\n.",
        VerifyReport.failure("demo(n=3)", where=(0, 1), expected=4, actual=5),
    ),
    (
        b"ccopy_reg\n_reconstructor\np0\n(chookpart.qseries\nVerifyReport\np1\nc__builtin__\n"
        b"tuple\np2\n(Vx\np3\nI01\nNtp4\ntp5\nRp6\n.",
        VerifyReport.success("x"),
    ),
    (
        b"ccopy_reg\n_reconstructor\np0\n(chookpart.qseries\nDiscrepancy\np1\nc__builtin__\n"
        b"tuple\np2\n(I3\nI1\nI2\ntp3\ntp4\nRp5\n.",
        Discrepancy(3, 1, 2),
    ),
]


@pytest.mark.parametrize("payload, record", OLD_PICKLES, ids=["failure", "success", "discrepancy"])
def test_pickles_naming_qseries_still_load(payload, record):
    copy = pickle.loads(payload)
    assert copy == record and type(copy) is type(record)
    assert repr(copy) == repr(record)


def _scan(outcomes, built):
    """A lazily built report per outcome, each noted in ``built`` when made."""
    for k, passed in enumerate(outcomes):
        built.append(k)
        yield VerifyReport.success(f"c{k}") if passed else VerifyReport.failure(f"c{k}", k, 0, 1)


@pytest.mark.parametrize(
    "outcomes, first, count",
    [
        ((), None, 0),
        ((True, True), None, 2),
        ((False, True), 0, 1),
        ((True, False, False, True), 1, 2),
    ],
)
def test_first_failure_reads_no_report_after_it(outcomes, first, count):
    built = []
    report = first_failure("whole", _scan(outcomes, built))
    if first is None:
        assert report == VerifyReport.success("whole")
    else:
        assert report == VerifyReport.failure(f"c{first}", first, 0, 1)
    assert built == list(range(count))


def _never(*args):
    pytest.fail(f"built after the first failure, with {args}")


def test_anatomy_builds_no_series_after_a_stray_corner(monkeypatch):
    original = anatomy.corner_placements
    monkeypatch.setattr(anatomy, "corner_placements", lambda c, d, n: list(original(c, d, n))[:-1])
    monkeypatch.setattr(anatomy, "anatomy_gf", _never)
    report = anatomy.verify_anatomy(0, 1, 10, 10)
    assert report.first_discrepancy.where == ("corner-beyond-min-degree", 8, 0)


def test_chain_builds_no_stage_after_a_failing_pair(monkeypatch):
    stages = list(anatomy._CHAIN_STAGES)
    stages[1] = lambda c, d, order: stages[0](c, d, order) + make_monomial(7, order)
    stages[3] = _never
    monkeypatch.setattr(anatomy, "_CHAIN_STAGES", tuple(stages))
    report = anatomy.proof_chain(2, 1, 20)
    assert report.first_discrepancy.where == ("stage0=stage1", 7)
