"""Hook-marked Ferrers diagrams: the seven-factor decomposition.

Fix a target arm length c and leg length d, and mark one hook with those
lengths whose corner sits at cell (i+1, j+1).  Every diagram carrying
such a mark splits into seven independent regions, and the weight
enumerator of the whole family is the product of seven series, one per
region.  Summing the product over all corner placements (i, j) recovers
the generating function for the (c, d) count in the arm-leg filling,
whose closed form is q^(c+d+1) / ((1 - q^(c+d+1)) (q)_inf).

``proof_chain`` re-derives that closed form numerically: the double sum
over corners is collapsed step by step (inner sum first, then the outer
one), each stage evaluated by its own code path and compared with the
next; the last, stage 4, is the closed form ``qseries.lemma_rhs`` itself.
Stages 0 and 1 each build their own row summands and evaluate the outer
sum over the rows by ``qseries.euler_sum``, which stage 0 also uses for
its inner sums, times the head q^(c+d+1) ``qseries.box_quotient(c, d)``,
which fact 3 checks; stage 2's sum over the rows is ``qseries.gauss_sum``'s.
Stage 1's tails, stage 3 and ``lemma_rhs`` call neither, so a fault in
either kernel shows as a stage mismatch: stage1=stage2 sets ``euler_sum``
against ``gauss_sum``, and stage2=stage3 is fact 1 at (a, k) = (d, c+1).
"""

from __future__ import annotations

from collections import Counter
from itertools import pairwise
from typing import Iterator, NamedTuple

from hookpart import statistics
from hookpart.partitions import runs_of
from hookpart.qseries import (
    QSeries,
    box_quotient,
    compare_series,
    euler_inv,
    euler_sum,
    gauss_binomial,
    gauss_sum,
    lemma_rhs,
    make_monomial,
    one,
    partial_euler_inv,
    q_pochhammer,
)
from hookpart.reports import VerifyReport, compare_counts, first_failure


class AnatomyFactors(NamedTuple):
    """The seven regions of a diagram with a marked (c, d)-hook at (i+1, j+1).

    corner_box   -- the fully occupied i-by-j rectangle left of and above
                    the corner: q^(i*j)
    above_arm    -- the full i-by-(c+1) rectangle above the arm: q^((c+1)*i)
    left_of_leg  -- the full (d+1)-by-j rectangle left of the leg: q^((d+1)*j)
    upper_right  -- free diagram with at most i rows beyond the arm: 1/(q)_i
    lower_left   -- free diagram with at most j columns below the leg: 1/(q)_j
    hook_cells   -- the marked hook itself: q^(c+d+1)
    inside_hook  -- free diagram boxed inside the hook: the c-by-d Gaussian
                    binomial
    """

    corner_box: QSeries
    above_arm: QSeries
    left_of_leg: QSeries
    upper_right: QSeries
    lower_left: QSeries
    hook_cells: QSeries
    inside_hook: QSeries


def _check_corner_args(c: int, d: int, i: int, j: int) -> None:
    if min(c, d, i, j) < 0:
        raise ValueError(f"anatomy parameters must be nonnegative, got {(c, d, i, j)}")


def anatomy_factors(c: int, d: int, i: int, j: int, order: int) -> AnatomyFactors:
    _check_corner_args(c, d, i, j)
    return AnatomyFactors(
        corner_box=make_monomial(i * j, order),
        above_arm=make_monomial((c + 1) * i, order),
        left_of_leg=make_monomial((d + 1) * j, order),
        upper_right=partial_euler_inv(i, order),
        lower_left=partial_euler_inv(j, order),
        hook_cells=make_monomial(c + d + 1, order),
        inside_hook=gauss_binomial(c, d, order),
    )


def anatomy_gf(c: int, d: int, i: int, j: int, order: int) -> QSeries:
    """Weight enumerator of diagrams with a marked (c, d)-hook cornered at
    (i+1, j+1): the product of the seven region series."""
    factors = anatomy_factors(c, d, i, j, order)
    result = factors.corner_box
    for factor in factors[1:]:
        result = result * factor
    return result


def min_degree(c: int, d: int, i: int, j: int) -> int:
    """Smallest weight of any diagram with that marked hook: the mandatory
    rectangles plus the hook itself."""
    return c + d + 1 + i * j + i * (c + 1) + j * (d + 1)


def _corner_counts(c: int, d: int, n: int) -> dict[tuple[int, int], int]:
    """Brute counts for every corner at once: how many partitions of n have
    a cell with arm c and leg d at (i+1, j+1), keyed by (i, j).

    One pass over ``partitions.runs_of``'s runs, no tuple built.  A run of
    m rows of length L from row ``top`` (0-based) has its arm-c cells in
    column col = L - c; with ``height`` rows reaching col, row i's leg
    there is height - 1 - i, so row height - 1 - d counts if in the run.
    Rows only shrink, so col falls run by run, a forward-only pointer
    over the runs finds ``height``, and the scan stops at the first run
    too short to hold an arm of c.
    """
    counts: dict[tuple[int, int], int] = {}
    for vals, mults in runs_of(n):
        top = height = reach = 0
        for length, mult in zip(vals, mults):
            col = length - c
            if col < 1:
                break
            while reach < len(vals) and vals[reach] >= col:
                height += mults[reach]
                reach += 1
            i = height - 1 - d
            if top <= i < top + mult:
                key = (i, col - 1)
                counts[key] = counts.get(key, 0) + 1
            top += mult
    return counts


def corner_count_brute(c: int, d: int, i: int, j: int, n: int) -> int:
    """Number of partitions of n whose cell (i+1, j+1) exists and carries
    arm exactly c and leg exactly d, by exhaustive enumeration."""
    _check_corner_args(c, d, i, j)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return _corner_counts(c, d, n).get((i, j), 0)


def corner_placements(c: int, d: int, n_max: int) -> Iterator[tuple[int, int]]:
    """All (i, j) whose marked-hook family can contribute weight <= n_max,
    i ascending, then j.  The only corner range: ``verify_anatomy`` sums
    over these placements, and so do chain stages 0-2 with n_max the
    series order."""
    i = 0
    while min_degree(c, d, i, 0) <= n_max:
        j = 0
        while min_degree(c, d, i, j) <= n_max:
            yield i, j
            j += 1
        i += 1


def verify_anatomy(c: int, d: int, n_max: int, order: int) -> VerifyReport:
    """Check the decomposition against exhaustive enumeration.

    (a) For every corner (i, j) reachable within weight n_max, the series
        coefficients of ``anatomy_gf`` must equal the brute counts for all
        n <= n_max.
    (b) Summed over all corners, the coefficients must reproduce the
        (c, d) count of the arm-leg filling for all n <= n_max.
    Each series is built to order n_max only, whatever ``order`` is.
    """
    _check_corner_args(c, d, 0, 0)
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    if n_max > order:
        raise ValueError(f"n_max ({n_max}) must not exceed the series order ({order})")
    context = f"anatomy(c={c}, d={d}, n_max={n_max})"
    brute = [_corner_counts(c, d, n) for n in range(n_max + 1)]
    placements = list(corner_placements(c, d, n_max))

    def checks() -> Iterator[VerifyReport]:
        stray = sorted(set().union(*brute) - set(placements))
        if stray:
            i, j = stray[0]
            actual = sum(counts.get((i, j), 0) for counts in brute)
            yield VerifyReport.failure(context, ("corner-beyond-min-degree", i, j), 0, actual)
        # built only once no stray corner is found
        series = {(i, j): anatomy_gf(c, d, i, j, n_max).coeffs for i, j in placements}
        # sorted, the keys follow the placements; zero counts are left out (a
        # missing key counts as 0), which keeps both maps small
        yield compare_counts(
            context,
            {("corner", *ij, n): cnt for n, counts in enumerate(brute) for ij, cnt in counts.items()},
            {("corner", *ij, n): cnt for ij, row in series.items() for n, cnt in enumerate(row) if cnt},
        )
        yield compare_counts(
            context,
            {n: statistics.count_pair(n, c, d, "arm-leg") for n in range(n_max + 1)},
            {n: sum(coeffs[n] for coeffs in series.values()) for n in range(n_max + 1)},
            "corner-sum",
        )

    return first_failure(context, checks())


# ---------------------------------------------------------------------------
# The derivation chain: five evaluations, compared in turn.
# ---------------------------------------------------------------------------


def _euler_box_head(c: int, d: int, order: int) -> QSeries:
    """q^(c+d+1)/(q)_inf * (q^(c+1))_d, the head of stages 2 and 3."""
    return make_monomial(c + d + 1, order) * euler_inv(order) * q_pochhammer(c + 1, d, order)


def _corner_rows(c: int, d: int, order: int) -> list[int]:
    """``corner_placements`` up to the series order, as the width of each
    row i = 0, 1, ..., I: row i holds the corners (i, 0), ..., (i, width - 1)."""
    return list(Counter(i for i, _ in corner_placements(c, d, order)).values())


def _chain_stage0(c: int, d: int, order: int) -> QSeries:
    """The raw double sum over the corner placements (i, j):

    (q)_{c+d} / ((q)_c (q)_d) * q^(c+d+1)
        * sum_i q^(i(c+1)) / (q)_i * sum_j q^(j(i+d+1)) / (q)_j
    with both sums by ``euler_sum``: the inner sum over the j's of row i,
    one series per row, then the outer sum over i.
    """
    unit = one(order)
    rows = [
        euler_sum(i + d + 1, [unit] * width, order)
        for i, width in enumerate(_corner_rows(c, d, order))
    ]
    return make_monomial(c + d + 1, order) * box_quotient(c, d, order) * euler_sum(c + 1, rows, order)


def _chain_stage1(c: int, d: int, order: int) -> QSeries:
    """After collapsing the inner sum over j, over the rows i the corner
    placements reach:

    same prefactor * sum_i q^(i(c+1)) / ((q)_i (q^(d+i+1))_inf).

    The tail 1/(q^(d+i+1))_inf is inverted once, for row 0; each later
    row multiplies the previous row's tail by the two-term factor
    (1 - q^(d+i)), in O(order), since (q^(d+i))_inf = (1 - q^(d+i)) (q^(d+i+1))_inf.
    The outer sum over i is ``euler_sum``'s.
    """
    tails = []
    tail = q_pochhammer(d + 1, None, order).invert()
    for i in range(len(_corner_rows(c, d, order))):
        if i:
            tail = (one(order) - make_monomial(d + i, order)) * tail
        tails.append(tail)
    return make_monomial(c + d + 1, order) * box_quotient(c, d, order) * euler_sum(c + 1, tails, order)


def _chain_stage2(c: int, d: int, order: int) -> QSeries:
    """Rearranged single sum with the Euler factor pulled out, over the
    rows i the corner placements reach:

    q^(c+d+1)/(q)_inf * (q)_{c+d}/(q)_c
        * sum_i q^(i(c+1)) (q)_{i+d} / ((q)_d (q)_i)
    with (q)_{c+d}/(q)_c = (q^(c+1))_d and each summand the Gaussian
    binomial q^(i(c+1)) [i+d, d]_q; the sum is ``qseries.gauss_sum``'s.
    """
    rows = len(_corner_rows(c, d, order))
    return _euler_box_head(c, d, order) * gauss_sum(c + 1, d, rows, order)


def _chain_stage3(c: int, d: int, order: int) -> QSeries:
    """After collapsing the outer sum, with (q)_{c+d}/(q)_c = (q^(c+1))_d:

    q^(c+d+1)/(q)_inf * (q)_{c+d} / ((q)_c (q^(c+1))_{d+1}).
    """
    return _euler_box_head(c, d, order) * q_pochhammer(c + 1, d + 1, order).invert()


_CHAIN_STAGES = (_chain_stage0, _chain_stage1, _chain_stage2, _chain_stage3, lemma_rhs)


def proof_chain(c: int, d: int, order: int) -> VerifyReport:
    """Evaluate the five stages of the derivation independently and compare.

    Reports the first failing adjacent equality (stage k vs stage k+1) at
    the smallest failing exponent, and builds no stage after it.  The last
    stage is the closed form ``qseries.lemma_rhs``, so stage3=stage4 also
    catches a fault in the closed form, or one shared by every derived stage.
    """
    _check_corner_args(c, d, 0, 0)
    context = f"proof_chain(c={c}, d={d}, order={order})"
    stages = enumerate(pairwise(stage(c, d, order) for stage in _CHAIN_STAGES))
    checks = (compare_series(context, *pair, f"stage{k}=stage{k + 1}") for k, pair in stages)
    return first_failure(context, checks)
