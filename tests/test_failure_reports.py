"""Pin the failure reports of every verifier.

Each test injects one fault and asserts the exact context, ``where``,
``expected`` and ``actual`` of the report, so that a refactoring of the
comparison code cannot silently change what a failure says.
"""

import pytest

from hookpart import anatomy, qseries, statistics
from hookpart.explorer import CellRef, Matching, canonical_matching, verify_matching
from hookpart.qseries import Discrepancy, make_monomial
from hookpart.statistics import PairMultiset

ARM_LEG, ARM_LEFT, HOOK, PART = range(4)


def shifted(target, key, delta):
    """A copy of a pair multiset or polynomial, the count at ``key`` shifted."""
    counts = dict(target.counts if isinstance(target, PairMultiset) else target)
    counts[key] = counts.get(key, 0) + delta
    return PairMultiset(counts=counts) if isinstance(target, PairMultiset) else counts


def perturb_sweep(monkeypatch, n, index, key, delta):
    """Make ``statistics._sweep(n)`` return result ``index`` with the count
    at ``key`` shifted by ``delta``; every other n and result is untouched."""
    original = statistics._sweep

    def perturbed(m):
        result = list(original(m))
        if m == n:
            result[index] = shifted(result[index], key, delta)
        return tuple(result)

    monkeypatch.setattr(statistics, "_sweep", perturbed)


def assert_failure(report, context, where, expected, actual):
    assert not report.passed
    assert report.context == context
    assert report.first_discrepancy == Discrepancy(where=where, expected=expected, actual=actual)


@pytest.mark.parametrize(
    "index,key,delta,expected,actual",
    [
        (ARM_LEFT, (2, 1), 1, 2, 3),  # a key both multisets hold
        (ARM_LEG, (0, 9), 1, 1, 0),  # a key neither holds
    ],
)
def test_theorem1_report(monkeypatch, index, key, delta, expected, actual):
    perturb_sweep(monkeypatch, 6, index, key, delta)
    report = statistics.verify_theorem1(6)
    assert_failure(report, "theorem1(n=6)", key, expected, actual)


def test_identity1_hook_vs_part_report(monkeypatch):
    perturb_sweep(monkeypatch, 7, PART, 3, -2)
    report = statistics.verify_identity1(7)
    assert_failure(report, "identity1(n=7)", 3, 18, 16)


def test_identity1_hook_from_arm_leg_report(monkeypatch):
    perturb_sweep(monkeypatch, 7, ARM_LEG, (1, 2), 1)
    report = statistics.verify_identity1(7)
    assert_failure(report, "identity1(n=7)", ("hook-from-arm-leg", 4), 12, 13)


def test_identity1_part_from_arm_left_report(monkeypatch):
    perturb_sweep(monkeypatch, 7, ARM_LEFT, (0, 0), -1)
    report = statistics.verify_identity1(7)
    assert_failure(report, "identity1(n=7)", ("part-from-arm-left", 1), 30, 29)


def test_lemma_report(monkeypatch):
    perturb_sweep(monkeypatch, 5, ARM_LEFT, (1, 0), 3)
    report = statistics.verify_lemma(1, 0, "arm-left", 8, 10)
    assert_failure(report, "lemma(c=1, d=0, stat=arm-left, n_max=8)", 5, 4, 7)


def test_fact1_report(monkeypatch):
    original = qseries.gauss_sum
    monkeypatch.setattr(
        qseries,
        "gauss_sum",
        lambda shift, a, terms, order: original(shift, a, terms, order) + make_monomial(5, order),
    )
    report = qseries.verify_fact1(2, 1, 10)
    # 5 partitions of 5 into parts <= 3
    assert_failure(report, "fact1(a=2, k=1, order=10)", 5, 5, 6)


@pytest.mark.parametrize(
    "dropped,where,expected,actual",
    [
        (([1], [4]), ("parts<=m", 4), 3, 2),  # (1, 1, 1, 1): parts <= 2, but more than 2 of them
        (([4], [1]), ("conjugate", 4), 3, 2),  # (4,): at most 2 parts, but a part above 2
    ],
)
def test_fact4_report(monkeypatch, dropped, where, expected, actual):
    original = statistics.runs_of
    monkeypatch.setattr(
        statistics, "runs_of", lambda n: (step for step in original(n) if step != dropped)
    )
    report = statistics.verify_fact4(2, 6)
    assert_failure(report, "fact4(m=2, order=6)", where, expected, actual)


def test_anatomy_corner_sum_report(monkeypatch):
    perturb_sweep(monkeypatch, 6, ARM_LEG, (0, 1), 1)
    report = anatomy.verify_anatomy(0, 1, 10, 10)
    assert_failure(report, "anatomy(c=0, d=1, n_max=10)", ("corner-sum", 6), 9, 8)


def test_anatomy_per_corner_report(monkeypatch):
    original = anatomy.anatomy_gf

    def perturbed(c, d, i, j, order):
        series = original(c, d, i, j, order)
        return series + make_monomial(8, order) if (i, j) == (1, 1) else series

    monkeypatch.setattr(anatomy, "anatomy_gf", perturbed)
    report = anatomy.verify_anatomy(0, 1, 10, 10)
    assert_failure(report, "anatomy(c=0, d=1, n_max=10)", ("corner", 1, 1, 8), 3, 4)


def test_anatomy_stray_corner_report(monkeypatch):
    original = anatomy.corner_placements
    monkeypatch.setattr(anatomy, "corner_placements", lambda c, d, n: list(original(c, d, n))[:-1])
    report = anatomy.verify_anatomy(0, 1, 10, 10)
    assert_failure(report, "anatomy(c=0, d=1, n_max=10)", ("corner-beyond-min-degree", 8, 0), 0, 1)


def _shifted(stage):
    return lambda c, d, order: stage(c, d, order) + make_monomial(7, order)


def test_chain_stage_pair_report(monkeypatch):
    stages = list(anatomy._CHAIN_STAGES)
    stages[2] = _shifted(stages[2])
    monkeypatch.setattr(anatomy, "_CHAIN_STAGES", tuple(stages))
    report = anatomy.proof_chain(2, 1, 20)
    assert_failure(report, "proof_chain(c=2, d=1, order=20)", ("stage1=stage2", 7), 3, 4)


def test_chain_closed_form_report(monkeypatch):
    # every derived stage shifted alike: their checks pass, the one against
    # the closed form fails, with the shifted stage 3 as the expected side
    derived, closed = anatomy._CHAIN_STAGES[:-1], anatomy._CHAIN_STAGES[-1]
    monkeypatch.setattr(anatomy, "_CHAIN_STAGES", (*map(_shifted, derived), closed))
    report = anatomy.proof_chain(2, 1, 20)
    assert_failure(report, "proof_chain(c=2, d=1, order=20)", ("stage3=stage4", 7), 4, 3)


@pytest.mark.parametrize(
    "fault,where,expected,actual",
    [
        (lambda p: [(p[0][0], p[1][1])] + p[1:], ("targets", CellRef(1, 1, 1)), 1, 2),
        (lambda p: [(CellRef(5, 1, 1), p[0][1])] + p[1:], ("sources", CellRef(5, 1, 1)), 0, 1),
        (lambda p: p[:-1], ("sources", CellRef(1, 2, 1)), 1, 0),
        (
            lambda p: [(p[0][0], p[1][1]), (p[1][0], p[0][1])] + p[2:],
            (CellRef(0, 1, 1), CellRef(1, 1, 1)),
            (1, 0),
            (0, 1),
        ),
    ],
    ids=["duplicated-target", "absent-source", "missing-source", "swapped-targets"],
)
def test_matching_report(fault, where, expected, actual):
    pairs = fault(list(canonical_matching(2).pairs))
    report = verify_matching(Matching(n=2, pairs=tuple(pairs)))
    assert_failure(report, f"matching(n=2, pairs={len(pairs)})", where, expected, actual)
