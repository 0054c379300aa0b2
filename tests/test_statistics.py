import functools
from types import MappingProxyType

import pytest

from hookpart import anatomy, qseries, statistics
from hookpart.partitions import (
    cell_stats,
    cells,
    count_partitions,
    partitions_of,
    runs_of,
)
from hookpart.qseries import lemma_rhs
from hookpart.statistics import (
    PairMultiset,
    build_pair_multiset,
    count_pair,
    stat_polynomial,
    verify_fact3,
    verify_fact4,
    verify_identity1,
    verify_lemma,
    verify_theorem1,
)

# --- independent oracle: per-cell tallies via the slow cell iterator ------


def slow_pair_counts(n, which):
    counts = {}
    for parts in partitions_of(n):
        for _, stats in cells(parts):
            key = (stats.arm, stats.leg) if which == "arm-leg" else (stats.arm, stats.left)
            counts[key] = counts.get(key, 0) + 1
    return counts


def slow_stat_poly(n, which):
    poly = {}
    for parts in partitions_of(n):
        for _, stats in cells(parts):
            e = stats.hook if which == "hook" else stats.part
            poly[e] = poly.get(e, 0) + 1
    return poly


# --- pair multisets --------------------------------------------------------


def test_multiset_goldens_n2():
    expected = {(0, 0): 2, (0, 1): 1, (1, 0): 1}
    assert dict(build_pair_multiset(2, "arm-leg").counts) == expected
    assert dict(build_pair_multiset(2, "arm-left").counts) == expected


def test_multiset_empty_at_zero():
    for stat in ("arm-leg", "arm-left"):
        pm = build_pair_multiset(0, stat)
        assert dict(pm.counts) == {} and pm.total == 0


# n <= 24 holds many conjugate twins whose first part equals their length,
# e.g. (3,3,1) and (3,2,2), and self-conjugate partitions: the cases the
# sweep's pairing treats apart
@pytest.mark.parametrize("n", range(25))
@pytest.mark.parametrize("stat", ["arm-leg", "arm-left"])
def test_multiset_matches_slow_oracle(n, stat):
    assert dict(build_pair_multiset(n, stat).counts) == slow_pair_counts(n, stat)


@pytest.mark.parametrize("n", range(16))
def test_multiset_total_and_no_zero_entries(n):
    for stat in ("arm-leg", "arm-left"):
        pm = build_pair_multiset(n, stat)
        assert pm.total == n * count_partitions(n)
        assert all(count > 0 for count in pm.counts.values())


def test_multiset_totals_full_scale():
    # both fillings distribute n * p(n) cells, all the way to n = 40
    for n in range(41):
        expected = n * count_partitions(n)
        assert build_pair_multiset(n, "arm-leg").total == expected
        assert build_pair_multiset(n, "arm-left").total == expected


@pytest.mark.parametrize("verify", [verify_theorem1, verify_identity1])
def test_identities_pass_full_scale(verify):
    # reads the sweeps cached by the totals test above, n = 0 .. 40
    for n in range(41):
        report = verify(n)
        assert report.passed, report


def test_multiset_rejects_bad_stat():
    with pytest.raises(ValueError):
        build_pair_multiset(3, "hook")


def test_pair_multiset_equality_semantics():
    a = PairMultiset(counts={(0, 0): 1})
    b = PairMultiset(counts={(0, 0): 1})
    c = PairMultiset(counts={(0, 0): 2})
    assert a == b and a != c
    assert a == PairMultiset(counts=MappingProxyType({(0, 0): 1})) and a.total == 1
    with pytest.raises(TypeError):
        PairMultiset(counts={(0, 0): 1}, total=7)  # the total is derived, never given


def test_cached_multiset_is_read_only():
    pm = build_pair_multiset(5, "arm-leg")
    with pytest.raises(TypeError):
        pm.counts[(0, 0)] += 1
    with pytest.raises(TypeError):
        del pm.counts[(0, 0)]
    assert verify_theorem1(5).passed


# --- the multiset identity --------------------------------------------------


@pytest.mark.parametrize("n", range(21))
def test_theorem1_passes(n):
    report = verify_theorem1(n)
    assert report.passed, report


@pytest.mark.parametrize("n", range(13))
def test_arm_leg_multiset_symmetric(n):
    # conjugation swaps arm and leg, so (c,d) and (d,c) counts agree; the
    # sweep is symmetric by construction, so check the per-cell oracle
    counts = slow_pair_counts(n, "arm-leg")
    for (c, d), count in counts.items():
        assert counts.get((d, c)) == count


# --- stat polynomials --------------------------------------------------------


def test_stat_polynomial_goldens():
    assert stat_polynomial(1, "hook") == {1: 1}
    # hooks: (3) -> {3,2,1}, (2,1) -> {3,1,1}, (1,1,1) -> {3,2,1}
    assert stat_polynomial(3, "hook") == {1: 4, 2: 2, 3: 3}
    assert stat_polynomial(3, "part") == {1: 4, 2: 2, 3: 3}
    assert stat_polynomial(0, "hook") == {}


@pytest.mark.parametrize("n", range(25))
def test_stat_polynomial_matches_slow_oracle(n):
    assert stat_polynomial(n, "hook") == slow_stat_poly(n, "hook")
    assert stat_polynomial(n, "part") == slow_stat_poly(n, "part")


@pytest.mark.parametrize("n", range(21))
def test_identity1_passes(n):
    report = verify_identity1(n)
    assert report.passed, report


def test_stat_polynomial_rejects_bad_stat():
    with pytest.raises(ValueError):
        stat_polynomial(3, "arm-leg")


@pytest.mark.parametrize(
    "call",
    [
        verify_theorem1,
        verify_identity1,
        functools.partial(build_pair_multiset, stat="arm-leg"),
        functools.partial(build_pair_multiset, stat="arm-left"),
        functools.partial(stat_polynomial, stat="hook"),
        functools.partial(count_pair, c=0, d=0, stat="arm-left"),
    ],
    ids=["theorem1", "identity1", "arm-leg", "arm-left", "stat_polynomial", "count_pair"],
)
@pytest.mark.parametrize("n", [-1, -2])
def test_negative_n_rejected_by_name(call, n):
    with pytest.raises(ValueError, match=f"^n must be nonnegative, got {n}$"):
        call(n)


@pytest.fixture
def enumerations(monkeypatch):
    """Record each n that ``statistics`` enumerates, from cold caches."""
    calls = []

    def counting(n):
        calls.append(n)
        return runs_of(n)

    monkeypatch.setattr(statistics, "runs_of", counting)
    caches = (statistics._sweep, statistics._floors)
    for cached in caches:
        cached.cache_clear()
    yield calls
    for cached in caches:
        cached.cache_clear()


def test_sweep_walks_no_partition(enumerations):
    assert verify_theorem1(12).passed
    assert verify_identity1(12).passed
    assert stat_polynomial(12, "hook") == slow_stat_poly(12, "hook")
    assert stat_polynomial(12, "part") == slow_stat_poly(12, "part")
    assert build_pair_multiset(12, "arm-leg").total == 12 * count_partitions(12)
    assert swept(12) == cells_tally(12)
    # every cell comes from the floor recursion
    assert enumerations == []


def test_arm_left_reads_rows_only(enumerations):
    assert build_pair_multiset(12, "arm-left").total == 12 * count_partitions(12)
    assert count_pair(12, 3, 2, "arm-left") == slow_pair_counts(12, "arm-left")[(3, 2)]
    # every row comes from the floor recursion
    assert enumerations == []


def cell_stats_arm_left(n):
    """Arm-left counts by the literal per-cell definition."""
    counts = {}
    for parts in partitions_of(n):
        for row, length in enumerate(parts, 1):
            for col in range(1, length + 1):
                stats = cell_stats(parts, (row, col))
                key = (stats.arm, stats.left)
                counts[key] = counts.get(key, 0) + 1
    return counts


def cell_stats_arm_leg_hooks(n):
    """Arm-leg counts and hook polynomial by the literal per-cell definition,
    legs counted by scanning the rows below, never read off a conjugate."""
    counts, hooks = {}, {}
    for parts in partitions_of(n):
        for row, length in enumerate(parts, 1):
            for col in range(1, length + 1):
                stats = cell_stats(parts, (row, col))
                key = (stats.arm, stats.leg)
                counts[key] = counts.get(key, 0) + 1
                hooks[stats.hook] = hooks.get(stats.hook, 0) + 1
    return counts, hooks


@pytest.mark.parametrize("n", range(19))
def test_sweep_arm_leg_and_hooks_match_cell_stats(n):
    arm_leg, _, hook_poly, _ = statistics._sweep(n)
    assert (dict(arm_leg.counts), dict(hook_poly)) == cell_stats_arm_leg_hooks(n)


def cells_tally(n):
    """All four sweep results, as plain dicts, by one pass over ``cells``."""
    arm_leg, arm_left, hooks, part_poly = {}, {}, {}, {}
    for parts in partitions_of(n):
        for _, stats in cells(parts):
            for table, key in (
                (arm_leg, (stats.arm, stats.leg)),
                (arm_left, (stats.arm, stats.left)),
                (hooks, stats.hook),
                (part_poly, stats.part),
            ):
                table[key] = table.get(key, 0) + 1
    return arm_leg, arm_left, hooks, part_poly


def swept(n):
    """``_sweep(n)``'s four results as plain dicts, like ``cells_tally``'s."""
    arm_leg, arm_left, hook_poly, part_poly = statistics._sweep(n)
    return dict(arm_leg.counts), dict(arm_left.counts), dict(hook_poly), dict(part_poly)


@pytest.mark.parametrize("n", [24, 30])
def test_sweep_matches_cells_tally(n):
    assert swept(n) == cells_tally(n)


def test_sweep_out_of_order_matches_cells_tally(enumerations):
    # only the latest n is kept: a call below it starts again from 0, and
    # one above it steps on from it; none walks a partition
    for n in (24, 9, 30, 24):
        statistics._sweep.cache_clear()
        assert swept(n) == cells_tally(n), n
    assert enumerations == []


@functools.cache
def cell_stats_floor(m, k):
    """The partitions of m with every part >= k, tallied by the literal
    per-cell definition as ``statistics._floors`` lays them out: the
    first column's arm-leg and hooks, the same from column k on (columns
    counted from 0), the row lengths and the count.  Also checks that
    each column j = 1 .. k-1 is the first one, j arms and j hooks lower."""
    first, rest, first_hooks, rest_hooks, rows, count = {}, {}, {}, {}, {}, 0
    between = {j: ({}, {}) for j in range(1, k)}
    for parts in partitions_of(m):
        if parts and parts[-1] < k:
            continue
        count += 1
        for row, length in enumerate(parts, 1):
            rows[length] = rows.get(length, 0) + 1
            for col in range(1, length + 1):
                stats = cell_stats(parts, (row, col))
                column = col - 1
                arm_legs, hooks = (
                    (first, first_hooks) if column == 0
                    else (rest, rest_hooks) if column >= k
                    else between[column]
                )
                key = (stats.arm, stats.leg)
                arm_legs[key] = arm_legs.get(key, 0) + 1
                hooks[stats.hook] = hooks.get(stats.hook, 0) + 1
    for j, (arm_legs, hooks) in between.items():
        assert arm_legs == {(arm - j, leg): cnt for (arm, leg), cnt in first.items()}
        assert hooks == {hook - j: cnt for hook, cnt in first_hooks.items()}
    return first, rest, first_hooks, rest_hooks, rows, count


def nonzero(counts, width=None):
    """A count list as a dict of its nonzero entries, an arm-leg list's
    leg-major flattened index decoded as (arm, leg)."""
    return {
        (divmod(idx, width)[::-1] if width else idx): cnt for idx, cnt in enumerate(counts) if cnt
    }


@pytest.mark.parametrize("m", range(19))
def test_floors_match_cell_stats(m):
    floors = statistics._floors(m)
    assert len(floors) == m + 1
    for k, states in enumerate(floors, 1):
        # floor k holds weights m - k + 1 .. m
        assert len(states) == k
        for weight, state in zip(range(m - k + 1, m + 1), states):
            if state is None:
                assert 0 < weight < k and cell_stats_floor(weight, k)[-1] == 0
                continue
            first, rest, first_hooks, rest_hooks, rows, count = state
            assert len(first) == len(rest) == (weight // k) * weight
            assert len(first_hooks) == len(rest_hooks) == len(rows) == weight + 1
            assert (
                nonzero(first, weight), nonzero(rest, weight), nonzero(first_hooks),
                nonzero(rest_hooks), nonzero(rows), count,
            ) == cell_stats_floor(weight, k), (weight, k)


@pytest.mark.parametrize("n", range(26))
def test_row_tally_matches_sweep_and_cell_stats(n):
    compared_by_theorem1 = statistics._sweep(n)[1]
    assert compared_by_theorem1 == build_pair_multiset(n, "arm-left")
    assert dict(compared_by_theorem1.counts) == cell_stats_arm_left(n)


# --- pair counts vs closed form ----------------------------------------------


def test_count_pair_goldens():
    assert count_pair(3, 0, 0, "arm-leg") == 4
    assert count_pair(3, 1, 0, "arm-left") == 1
    assert count_pair(3, 5, 5, "arm-leg") == 0
    assert count_pair(3, 5, 5, "arm-left") == 0


def test_verify_lemma_goldens():
    report = verify_lemma(0, 0, "arm-left", 3, 10)
    assert report.passed
    assert [count_pair(n, 0, 0, "arm-left") for n in range(4)] == [0, 1, 2, 4]
    assert verify_lemma(1, 0, "arm-leg", 3, 10).passed
    assert verify_lemma(0, 1, "arm-leg", 3, 10).passed
    # the closed form depends only on c+d
    assert [count_pair(n, 0, 1, "arm-leg") for n in range(4)] == [
        lemma_rhs(1, 0, 10).coefficient(n) for n in range(4)
    ]


def test_verify_lemma_rejects_bad_range():
    with pytest.raises(ValueError):
        verify_lemma(2, 2, "arm-leg", 50, 40)


def test_verify_lemma_checks_the_counts_passed_in():
    counts = [count_pair(n, 1, 0, "arm-left") for n in range(9)]
    assert verify_lemma(1, 0, "arm-left", 8, 10, counts) == verify_lemma(1, 0, "arm-left", 8, 10)
    counts[5] += 3
    report = verify_lemma(1, 0, "arm-left", 8, 10, counts)
    assert (report.passed, report.first_discrepancy) == (False, (5, 4, 7))
    with pytest.raises(ValueError, match="^counts must hold n_max \\+ 1 = 9 counts, got 8$"):
        verify_lemma(1, 0, "arm-left", 8, 10, counts[:-1])


@pytest.mark.parametrize(
    "verify",
    [
        functools.partial(verify_lemma, 0, 0, "arm-left", order=5),
        functools.partial(anatomy.verify_anatomy, 0, 0, order=5),
    ],
    ids=["lemma", "anatomy"],
)
def test_negative_n_max_rejected_by_name(verify):
    with pytest.raises(ValueError, match="^n_max must be nonnegative, got -1$"):
        verify(-1)


@pytest.mark.parametrize("stat", ["arm-leg", "arm-left"])
@pytest.mark.parametrize("c,d", [(0, 0), (1, 0), (0, 2), (2, 1), (3, 3)])
def test_verify_lemma_midscale(c, d, stat):
    assert verify_lemma(c, d, stat, 20, 20).passed


# --- box and bounded-part facts ------------------------------------------------


@pytest.mark.parametrize("m,n", [(0, 7), (2, 2), (4, 3), (1, 6), (5, 5)])
def test_fact3_passes(m, n):
    report = verify_fact3(m, n)
    assert report.passed, report


# bound before any test patches them, so that a fault can call the real kernel
_Q_POCHHAMMER, _PARTIAL_EULER_INV = qseries.q_pochhammer, qseries.partial_euler_inv


@pytest.mark.parametrize(
    "kernel,faulty",
    [
        ("q_pochhammer", lambda k, count, order: _Q_POCHHAMMER(k, count - 1, order)),
        ("partial_euler_inv", lambda m, order: _PARTIAL_EULER_INV(m + 1, order)),
    ],
)
@pytest.mark.parametrize("m,n", [(2, 3), (3, 2), (3, 3)])
def test_fact3_quotient_catches_a_faulty_kernel(monkeypatch, kernel, faulty, m, n):
    """The quotient half is checked against gauss_binomial on its own: a
    fault in a kernel ``box_quotient`` is built from fails fact 3 there,
    after the brute and recurrence halves, which do not read that kernel,
    have passed."""
    monkeypatch.setattr(qseries, kernel, faulty)
    report = verify_fact3(m, n)
    assert not report.passed
    assert report.context == f"fact3(m={m}, n={n}) [quotient]"


@pytest.mark.parametrize("m,order", [(0, 5), (2, 4), (3, 15), (6, 20)])
def test_fact4_passes(m, order):
    report = verify_fact4(m, order)
    assert report.passed, report


def test_fact4_bounded_golden():
    # parts <= 2: 1/((1-q)(1-q^2)) starts 1,1,2,2,3
    from hookpart.qseries import q_pochhammer

    series = q_pochhammer(1, 2, 4).invert()
    assert series.coeffs == (1, 1, 2, 2, 3)
    assert verify_fact4(2, 4).passed
