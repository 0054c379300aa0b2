import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hookpart.partitions import (
    CellStats,
    box_gf_brute,
    box_partitions,
    cell_stats,
    cells,
    conjugate,
    count_partitions,
    partitions_of,
    runs_of,
)
from hookpart.qseries import gauss_binomial

# --- independent oracle: naive recursive enumeration ---------------------


def recursive_partitions(n, cap=None):
    if cap is None:
        cap = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in recursive_partitions(n - first, first):
            yield (first,) + rest


def test_small_goldens():
    assert list(partitions_of(0)) == [()]
    assert list(partitions_of(1)) == [(1,)]
    assert list(partitions_of(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


@pytest.mark.parametrize("n", range(21))
def test_matches_recursive_oracle(n):
    assert list(partitions_of(n)) == list(recursive_partitions(n))


@pytest.mark.parametrize("n", range(26))
def test_enumeration_shape(n):
    seen = list(partitions_of(n))
    assert len(seen) == len(set(seen)) == count_partitions(n)
    for parts in seen:
        assert sum(parts) == n
        assert all(p >= 1 for p in parts)
        assert all(a >= b for a, b in zip(parts, parts[1:]))
    # strictly decreasing lexicographic order
    assert all(a > b for a, b in zip(seen, seen[1:]))


# --- the run-length walker ------------------------------------------------


def expand_runs(vals, mults):
    return tuple(part for part, mult in zip(vals, mults) for _ in range(mult))


def test_runs_goldens():
    assert [(list(v), list(m)) for v, m in runs_of(0)] == [([], [])]
    assert [expand_runs(*step) for step in runs_of(4)] == list(partitions_of(4))
    assert [(list(v), list(m)) for v, m in runs_of(4)] == [
        ([4], [1]), ([3, 1], [1, 1]), ([2], [2]), ([2, 1], [1, 2]), ([1], [4])
    ]


@pytest.mark.parametrize("n", range(26))
def test_runs_expand_to_partitions_of(n):
    # partitions_of is the tuple view of runs_of, so the order is checked
    # against the independent oracle
    expanded = []
    for vals, mults in runs_of(n):
        assert len(vals) == len(mults)
        assert all(a > b for a, b in zip(vals, vals[1:]))  # distinct parts, largest first
        assert all(part >= 1 for part in vals) and all(mult >= 1 for mult in mults)
        assert sum(part * mult for part, mult in zip(vals, mults)) == n
        expanded.append(expand_runs(vals, mults))
    assert expanded == list(recursive_partitions(n))


@pytest.mark.parametrize("n", range(61))
def test_runs_count_partitions(n):
    assert sum(1 for _ in runs_of(n)) == count_partitions(n)


def test_runs_negative_rejected():
    with pytest.raises(ValueError):
        list(runs_of(-1))


def test_count_partitions_goldens():
    assert count_partitions(0) == 1
    assert count_partitions(5) == len(list(partitions_of(5))) == 7
    assert count_partitions(10) == len(list(partitions_of(10))) == 42


def test_negative_rejected():
    with pytest.raises(ValueError):
        list(partitions_of(-1))
    with pytest.raises(ValueError):
        count_partitions(-2)


# --- conjugation ----------------------------------------------------------


def naive_conjugate(parts):
    """Column counts of the drawn diagram."""
    if not parts:
        return ()
    return tuple(
        sum(1 for length in parts if length > col) for col in range(parts[0])
    )


def test_conjugate_goldens():
    assert conjugate((1, 1, 1)) == (3,)
    assert conjugate(()) == ()
    assert conjugate((3, 1)) == naive_conjugate((3, 1)) == (2, 1, 1)


@pytest.mark.parametrize("n", range(15))
def test_conjugate_is_involution(n):
    for parts in partitions_of(n):
        conj = conjugate(parts)
        assert conj == naive_conjugate(parts)
        assert conjugate(conj) == parts


# --- cell statistics ------------------------------------------------------


def test_cell_stats_goldens():
    assert cell_stats((1,), (1, 1)) == CellStats(arm=0, leg=0, left=0, hook=1, part=1)
    assert cell_stats((4, 3, 1), (1, 2)) == CellStats(arm=2, leg=1, left=1, hook=4, part=4)


def test_cell_stats_out_of_bounds():
    for bad in [(3, 1), (1, 3), (0, 1), (1, 0), (-1, 1)]:
        with pytest.raises(IndexError):
            cell_stats((2, 2), bad)


def test_cells_golden_row():
    assert list(cells((2,))) == [
        ((1, 1), CellStats(1, 0, 0, 2, 2)),
        ((1, 2), CellStats(0, 0, 1, 1, 2)),
    ]
    assert list(cells(())) == []


@pytest.mark.parametrize("n", range(26))
def test_definitional_invariants(n):
    for parts in partitions_of(n):
        listed = list(cells(parts))
        assert len(listed) == n
        for (row, col), stats in listed:
            assert type(stats) is CellStats  # built positionally, still the named type
            assert stats._asdict() == cell_stats(parts, (row, col))._asdict()
            assert stats.hook == stats.arm + stats.leg + 1
            assert stats.part == stats.arm + stats.left + 1
            assert stats.part == parts[row - 1]


@pytest.mark.parametrize("n", range(21))
def test_conjugation_swaps_arm_and_leg(n):
    for parts in partitions_of(n):
        conj = conjugate(parts)
        for (row, col), stats in cells(parts):
            mirror = cell_stats(conj, (col, row))
            assert (stats.arm, stats.leg) == (mirror.leg, mirror.arm)


def test_cells_row_major_order():
    order = [cell for cell, _ in cells((3, 2))]
    assert order == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]


# --- box enumeration ------------------------------------------------------


def test_box_partitions_complete():
    found = sorted(box_partitions(2, 2))
    assert found == sorted([(), (1,), (2,), (1, 1), (2, 1), (2, 2)])


def recursive_box_partitions(rows, cap):
    yield ()
    if rows == 0 or cap == 0:
        return
    for first in range(cap, 0, -1):
        for rest in recursive_box_partitions(rows - 1, first):
            yield (first,) + rest


@pytest.mark.parametrize("rows,width", list(itertools.product(range(8), repeat=2)))
def test_box_partitions_matches_recursive_oracle(rows, width):
    assert list(box_partitions(rows, width)) == list(recursive_box_partitions(rows, width))


def test_box_gf_brute_goldens():
    assert box_gf_brute(0, 5).coeffs == (1,)
    assert box_gf_brute(1, 1).coeffs == (1, 1)
    assert box_gf_brute(2, 2).coeffs == (1, 1, 2, 1, 1)


@pytest.mark.parametrize("m,n", list(itertools.product(range(7), repeat=2)))
def test_box_gf_matches_gauss_binomial(m, n):
    assert box_gf_brute(m, n) == gauss_binomial(m, n, m * n)


@pytest.mark.parametrize("m,n", [(0, 9), (1, 12), (2, 40), (3, 25), (4, 11)])
def test_box_gf_brute_is_symmetric_for_thin_boxes(m, n):
    tall = [0] * (m * n + 1)
    for parts in box_partitions(n, m):  # the longer side as rows
        tall[sum(parts)] += 1
    assert box_gf_brute(m, n).coeffs == box_gf_brute(n, m).coeffs == tuple(tall)


@given(st.integers(0, 4), st.integers(0, 4))
def test_box_gf_total_is_binomial(m, n):
    import math

    total = sum(box_gf_brute(m, n).coeffs)
    assert total == math.comb(m + n, m)
