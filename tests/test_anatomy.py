import itertools
from functools import lru_cache

import pytest

from hookpart import anatomy, qseries, statistics
from hookpart.anatomy import (
    _chain_stage0,
    _chain_stage1,
    _chain_stage2,
    _corner_counts,
    anatomy_factors,
    anatomy_gf,
    corner_count_brute,
    corner_placements,
    min_degree,
    proof_chain,
    verify_anatomy,
)
from hookpart.partitions import cell_stats, conjugate, partitions_of
from hookpart.qseries import gauss_binomial, lemma_rhs, make_monomial, q_pochhammer, zero


def test_gf_goldens():
    assert anatomy_gf(0, 0, 0, 0, 3).coeffs == (0, 1, 0, 0)
    assert anatomy_gf(0, 0, 0, 1, 3).coeffs == (0, 0, 1, 1)
    assert anatomy_gf(1, 1, 0, 0, 4).coeffs == (0, 0, 0, 1, 1)


def test_factors_are_the_named_pieces():
    factors = anatomy_factors(2, 3, 1, 4, 30)
    assert factors.corner_box == make_monomial(1 * 4, 30)
    assert factors.above_arm == make_monomial(3 * 1, 30)
    assert factors.left_of_leg == make_monomial(4 * 4, 30)
    assert factors.hook_cells == make_monomial(6, 30)
    assert factors.inside_hook == gauss_binomial(2, 3, 30)
    # the two free regions are bounded-rows enumerators
    assert factors.upper_right.coeffs[:3] == (1, 1, 1)  # at most 1 row
    assert factors.lower_left.coefficient(0) == 1


def test_rejects_negative_parameters():
    with pytest.raises(ValueError):
        anatomy_gf(-1, 0, 0, 0, 5)
    with pytest.raises(ValueError):
        corner_count_brute(0, 0, 0, -2, 5)


def test_brute_goldens():
    assert corner_count_brute(0, 0, 0, 0, 1) == 1  # only (1)
    assert corner_count_brute(0, 0, 0, 1, 3) == 1  # only (2,1)
    assert corner_count_brute(1, 1, 0, 0, 4) == 1  # only (2,2)
    assert corner_count_brute(0, 0, 0, 0, 0) == 0  # no cells at all


def slow_corner_count(c, d, i, j, n):
    """Second oracle: scan whole-diagram statistics instead of one cell."""
    row, col = i + 1, j + 1
    hits = 0
    for parts in partitions_of(n):
        if len(parts) < row or parts[row - 1] < col:
            continue
        conj = conjugate(parts)
        if parts[row - 1] - col == c and conj[col - 1] - row == d:
            hits += 1
    return hits


def cell_stats_corner_counts(c, d, n):
    """Third oracle: every cell's statistics by the literal definition."""
    counts = {}
    for parts in partitions_of(n):
        for row, length in enumerate(parts, 1):
            for col in range(1, length + 1):
                stats = cell_stats(parts, (row, col))
                if (stats.arm, stats.leg) == (c, d):
                    key = (row - 1, col - 1)
                    counts[key] = counts.get(key, 0) + 1
    return counts


@pytest.mark.parametrize("c,d", list(itertools.product(range(5), repeat=2)))
def test_corner_counts_match_cell_stats(c, d):
    for n in range(19):
        assert _corner_counts(c, d, n) == cell_stats_corner_counts(c, d, n), n


@pytest.mark.parametrize("c,d", list(itertools.product(range(3), repeat=2)))
def test_gf_matches_brute(c, d):
    for i, j in itertools.product(range(3), repeat=2):
        series = anatomy_gf(c, d, i, j, 14)
        for n in range(15):
            expected = corner_count_brute(c, d, i, j, n)
            assert expected == slow_corner_count(c, d, i, j, n)
            assert series.coefficient(n) == expected, (c, d, i, j, n)


def test_gf_symmetric_under_transposition():
    for c, d, i, j in itertools.product(range(3), repeat=4):
        assert anatomy_gf(c, d, i, j, 12) == anatomy_gf(d, c, j, i, 12)
        for n in range(10):
            assert corner_count_brute(c, d, i, j, n) == corner_count_brute(d, c, j, i, n)


def test_min_degree_and_placements():
    assert min_degree(0, 0, 0, 0) == 1
    assert min_degree(1, 2, 3, 4) == 4 + 12 + 3 * 2 + 4 * 3
    placements = list(corner_placements(0, 0, 3))
    assert (0, 0) in placements and (0, 2) in placements
    assert all(min_degree(0, 0, i, j) <= 3 for i, j in placements)
    # first weight where each placement can appear is its min degree
    for i, j in placements:
        series = anatomy_gf(0, 0, i, j, 10)
        first = next(e for e, coeff in enumerate(series.coeffs) if coeff)
        assert first == min_degree(0, 0, i, j)


@pytest.mark.parametrize("c,d", [(0, 0), (1, 0), (0, 2), (2, 2)])
def test_verify_anatomy_passes(c, d):
    report = verify_anatomy(c, d, 12, 15)
    assert report.passed, report


def test_verify_anatomy_trivial_and_errors():
    assert verify_anatomy(0, 0, 0, 10).passed
    with pytest.raises(ValueError):
        verify_anatomy(0, 0, 20, 10)


@pytest.mark.parametrize("c,d", [(0, 0), (1, 0), (0, 1), (3, 2), (2, 3)])
def test_proof_chain_passes(c, d):
    report = proof_chain(c, d, 35)
    assert report.passed, report


def test_proof_chain_zero_order():
    # every stage truncates to the zero series when c+d+1 > order
    assert proof_chain(0, 0, 0).passed
    assert lemma_rhs(0, 0, 0).is_zero()


def test_chain_ends_at_lemma_rhs():
    # the closed form is the chain's last stage, not a copy of it
    assert anatomy._CHAIN_STAGES[-1] is qseries.lemma_rhs


@pytest.mark.parametrize("c,d", [(0, 0), (1, 2), (3, 1)])
def test_faulty_box_quotient_fails_chain_and_fact3(monkeypatch, c, d):
    """Stages 0 and 1 share their head ``box_quotient`` with fact 3: a
    fault in it passes stage0=stage1, fails the chain at stage1=stage2,
    and fails fact 3 at its quotient check."""
    real = qseries.box_quotient

    def shifted(m, n, order):
        return make_monomial(1, order) * real(m, n, order)

    monkeypatch.setattr(anatomy, "box_quotient", shifted)
    report = proof_chain(c, d, 30)
    assert not report.passed
    assert report.first_discrepancy.where[0] == "stage1=stage2"
    monkeypatch.setattr(statistics, "box_quotient", shifted)
    report = statistics.verify_fact3(c + 1, d + 1)
    assert not report.passed
    assert report.context == f"fact3(m={c + 1}, n={d + 1}) [quotient]"


def test_proof_chain_order_100():
    # the chain at the benchmark's order: every stage is a product of
    # two-term factors, so this stays well under a second
    report = proof_chain(0, 0, 100)
    assert report.passed, report


def double_sum_stage0(c, d, order):
    """The original stage 0, kept as an oracle: one dense summand per
    corner (i, j), each loop bounded by its own minimal degree."""
    inv = lru_cache(maxsize=None)(lambda m: q_pochhammer(1, m, order).invert())
    base = c + d + 1
    total = zero(order)
    i = 0
    while base + i * (c + 1) <= order:
        j = 0
        while base + i * j + i * (c + 1) + j * (d + 1) <= order:
            total = total + (
                make_monomial(i * j + i * (c + 1) + j * (d + 1), order) * inv(i) * inv(j)
            )
            j += 1
        i += 1
    return q_pochhammer(1, c + d, order) * inv(c) * inv(d) * make_monomial(base, order) * total


def literal_stage1(c, d, order):
    """The original stage 1, kept as an oracle: each row's tail
    1/(q^(d+i+1))_inf built and inverted afresh."""
    inv = lru_cache(maxsize=None)(lambda m: q_pochhammer(1, m, order).invert())
    base = c + d + 1
    total = zero(order)
    i = 0
    while base + i * (c + 1) <= order:
        total = total + (
            make_monomial(i * (c + 1), order)
            * inv(i)
            * q_pochhammer(d + i + 1, None, order).invert()
        )
        i += 1
    return q_pochhammer(1, c + d, order) * inv(c) * inv(d) * make_monomial(base, order) * total


@pytest.mark.parametrize("order", [0, 1, 5, 30, 60, 100])
@pytest.mark.parametrize("c,d", list(itertools.product(range(4), repeat=2)))
def test_stage1_matches_literal_oracle(c, d, order):
    assert _chain_stage1(c, d, order).coeffs == literal_stage1(c, d, order).coeffs


def literal_stage2(c, d, order):
    """The original stage 2, kept as an oracle: each row's summand
    (q)_{i+d} * 1/(q)_d * 1/(q)_i multiplied out as dense series."""
    inv = lru_cache(maxsize=None)(lambda m: q_pochhammer(1, m, order).invert())
    base = c + d + 1
    total = zero(order)
    i = 0
    while base + i * (c + 1) <= order:
        total = total + (
            make_monomial(i * (c + 1), order) * q_pochhammer(1, i + d, order) * inv(d) * inv(i)
        )
        i += 1
    euler = q_pochhammer(1, None, order).invert()
    return make_monomial(base, order) * euler * q_pochhammer(1, c + d, order) * inv(c) * total


@pytest.mark.parametrize("order", [0, 1, 5, 30, 60, 100])
@pytest.mark.parametrize("c,d", list(itertools.product(range(4), repeat=2)))
def test_stage2_matches_literal_oracle(c, d, order):
    assert _chain_stage2(c, d, order).coeffs == literal_stage2(c, d, order).coeffs


@pytest.mark.parametrize(
    "c,d,order",
    [(0, 0, 60), (2, 1, 40), (4, 4, 50), (1, 3, 100), (3, 0, 7),
     (0, 0, 0), (0, 0, 1), (5, 0, 3), (0, 5, 9), (0, 0, 200)],
)
def test_stage0_matches_double_sum_oracle(c, d, order):
    assert _chain_stage0(c, d, order).coeffs == double_sum_stage0(c, d, order).coeffs
