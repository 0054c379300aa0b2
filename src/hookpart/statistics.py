"""Cell-statistic multisets over all partitions of n, and their verifiers.

Filling every cell of every partition of n with its (arm, leg) pair gives
one multiset of pairs; filling with (arm, left) gives another.  These two
multisets coincide for every n -- that is the identity this package
checks, refines, and realizes by explicit matchings.  Collapsing the
pairs through c+d+1 recovers the coarser statement that hook lengths and
part lengths are equidistributed over the cells.

Both multisets and the hook and part polynomials of n come from one
cached sweep over the partitions of n, walked as runs of equal parts by
``partitions.runs_of``; no partition tuple and no conjugate is built.
Arm-left and part are expanded from row-length multiplicities, read from
every run of every partition; the same row tally, run alone with no
per-cell work, gives the arm-left multiset to ``build_pair_multiset`` and
the lemma check.  Arm-leg and hook are tallied for one partition of each
conjugate pair whose first part differs from its length, and for every
partition whose first part equals it: transposing a diagram swaps every
cell's arm and leg and keeps its hook, so a skipped partition's tally is
the transpose of its conjugate's.  Pair multisets are sparse count maps,
never flattened lists.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import accumulate
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

from hookpart.partitions import box_gf_brute, runs_of
from hookpart.qseries import (
    VerifyReport,
    box_quotient,
    compare_counts,
    compare_series,
    gauss_binomial,
    lemma_rhs,
    make_monomial,
    one,
    partial_euler_inv,
)

PAIR_STATS = ("arm-leg", "arm-left")
CELL_STATS = ("hook", "part")


class PairMultiset(NamedTuple):
    """Sparse multiset of (c, d) statistic pairs."""

    counts: Mapping[tuple[int, int], int]

    @property
    def total(self) -> int:
        """The number of pairs, counted with multiplicity."""
        return sum(self.counts.values())

    def count(self, c: int, d: int) -> int:
        return self.counts.get((c, d), 0)


def _check_pair_stat(stat: str) -> None:
    if stat not in PAIR_STATS:
        raise ValueError(f"stat must be one of {PAIR_STATS}, got {stat!r}")


def _rows_tallied(n: int, rows: list[int]) -> Iterator[tuple[list[int], list[int]]]:
    """Yield every partition of n as runs, after adding its rows to ``rows``.

    The only row-length loop: ``_sweep`` iterates it and ``_row_sweep``
    drains it, so arm-left and part are enumerated in one place.  Each
    step is ``partitions.runs_of``'s ``(vals, mults)`` pair, read-only and
    valid until the next step; a run of m rows of length v adds m to
    ``rows[v]`` at once.
    """
    for step in runs_of(n):
        for length, mult in zip(*step):
            rows[length] += mult
        yield step


def _expand_rows(rows: list[int]) -> tuple[PairMultiset, Mapping[int, int]]:
    """Arm-left multiset and part polynomial from row-length counts.

    A row of length L holds exactly the cells (arm, left) = (L-1-j, j),
    j < L, each of part L, so both follow from the counts in O(n^2).
    """
    left_pairs = {(L - 1 - j, j): cnt for L, cnt in enumerate(rows) if cnt for j in range(L)}
    return (
        PairMultiset(counts=MappingProxyType(left_pairs)),
        MappingProxyType({L: L * cnt for L, cnt in enumerate(rows) if cnt}),
    )


@lru_cache(maxsize=None)
def _row_sweep(n: int) -> PairMultiset:
    """The arm-left multiset of n from row lengths alone.

    Drains ``_rows_tallied``: a row tally per run, no partition tuple
    built and no cell visited.
    Read-only and shared, like ``_sweep``'s results.
    """
    rows = [0] * (n + 1)
    deque(_rows_tallied(n, rows), maxlen=0)
    return _expand_rows(rows)[0]


def _add_runs(counts: list[int], runs: list[int]) -> None:
    """Add the running sums of a difference array to cell counts, in place.

    In place, so the sweep's peak holds no third table per statistic.
    """
    for idx, run in zip(range(len(counts)), accumulate(runs)):
        counts[idx] += run


@lru_cache(maxsize=None)
def _sweep(n: int) -> tuple[PairMultiset, PairMultiset, Mapping[int, int], Mapping[int, int]]:
    """Arm-leg and arm-left multisets, hook and part polynomials of n.

    One pass over the partitions of n, through ``_rows_tallied``: it
    counts the row lengths of every partition as it yields its runs
    (``vals[t]`` repeated ``mults[t]`` times), and arm-left and part are
    expanded from those counts by ``_expand_rows``.  No partition tuple
    and no conjugate is built.

    Conjugation maps cell (i, j) of lambda to cell (j, i) of lambda',
    arm and leg swapped, hook kept, so a conjugate pair {lambda,
    lambda'} contributes T + T^t to arm-leg and twice its hooks, where T
    and the hooks are lambda's alone.  A partition whose first part
    exceeds its length, the sum of its multiplicities, is skipped: the
    conjugate's first part is smaller than its length, and it is tallied
    instead, with weight two.  A partition whose first part equals its
    length (a tie) has a conjugate that is a tie too, so every tie is
    tallied, with weight one: both members of a pair of distinct
    conjugate ties, and a self-conjugate partition once.

    The tallied partition is read as its runs, each a block of equal
    rows, from the bottom up.  With ends[t] = mults[0] + ... + mults[t],
    run t is rows ends[t-1] .. ends[t]-1 (0-based, ends[-1] = 0) of
    length vals[t], and it adds columns vals[t+1] .. vals[t]-1, each
    holding ends[t] cells, to the columns the runs below it reach; a
    per-n table holds each column's share of the cell indices, shared by
    every partition.  In a block of m >= 2 rows of length L, column j
    holds one arm, L-1-j, and m consecutive legs, so also m consecutive
    hooks; each column adds the weight at the run's start and takes it
    off past its end in an arm-leg and a hook difference array.  A block of one row adds its cells to the count tables
    directly.  Once per n, the running sums of the difference arrays are
    added into the count tables, and arm-leg folded with its transpose,
    in O(n^2).  All four results are read-only: callers share these
    cached objects.
    """
    width = n
    # Cell counts and difference arrays; arm-leg is flattened, index
    # arm * width + leg.  An arm-leg run's end mark may spill into the
    # next arm row's first entry, never past the last row: a block of two
    # or more rows of length L has L <= width / 2, so its marks stay below
    # L * width.  A hook run's end mark may fall one past hook ``width``
    # (the column of (1, ..., 1)), so that array is one entry longer than
    # the hook counts.
    arm_leg, hooks = [0] * (width * width), [0] * (width + 1)
    arm_leg_runs, hook_runs = [0] * (width * width), [0] * (width + 2)
    # table[e][j]: column j's share of a cell's arm-leg index and of its
    # hook when the column holds e cells (conj[j] = e).  Rows 0 .. e-1
    # then all reach column j, so the partition has at least e * (j + 1)
    # cells and j < n // e; table[0] is never read.
    table = [[]] + [[(e - j * width, e - j) for j in range(n // e)] for e in range(1, n + 1)]
    rows = [0] * (n + 1)
    for vals, mults in _rows_tallied(n, rows):
        height = sum(mults)
        if not vals or vals[0] > height:
            continue
        weight = 1 if vals[0] == height else 2
        # blocks bottom up: rows first .. last-1 all have length
        # `length`; the columns below .. length-1 first appear here, and
        # each holds `last` cells
        cols = []
        below, last = 0, height
        for length, mult in zip(reversed(vals), reversed(mults)):
            cols += table[last][below:length]
            below, first = length, last - mult
            base = (length - 1) * width
            if mult == 1:
                # cell j: arm = length-1-j, leg = conj[j]-last
                base -= last
                hook_base = length - last
                for arm_leg_col, hook_col in cols:
                    arm_leg[base + arm_leg_col] += weight
                    hooks[hook_base + hook_col] += weight
            else:
                # column j: arm = length-1-j, legs conj[j]-last .. conj[j]-first-1
                start, stop = base - last, base - first
                hook_start, hook_stop = length - last, length - first
                for arm_leg_col, hook_col in cols:
                    arm_leg_runs[start + arm_leg_col] += weight
                    arm_leg_runs[stop + arm_leg_col] -= weight
                    hook_runs[hook_start + hook_col] += weight
                    hook_runs[hook_stop + hook_col] -= weight
            last = first
    _add_runs(arm_leg, arm_leg_runs)
    _add_runs(hooks, hook_runs)
    # arm_leg is P = 2T + S, T over the partitions tallied with weight
    # two and S over the ties; the ties are closed under conjugation, so S
    # is symmetric, P + P^t is even and half of it is T + T^t + S exactly
    leg_pairs = {}
    for c in range(width):
        for d in range(width):
            cnt = (arm_leg[c * width + d] + arm_leg[d * width + c]) // 2
            if cnt:
                leg_pairs[(c, d)] = cnt
    arm_left, part_poly = _expand_rows(rows)
    return (
        PairMultiset(counts=MappingProxyType(leg_pairs)),
        arm_left,
        MappingProxyType({e: cnt for e, cnt in enumerate(hooks) if cnt}),
        part_poly,
    )


def build_pair_multiset(n: int, stat: str) -> PairMultiset:
    """The multiset of (arm, leg) or (arm, left) pairs over all cells of
    all partitions of n.

    ``stat`` selects the filling: "arm-leg" or "arm-left".  Arm-left
    reads the row-only tally; arm-leg, the full sweep.
    """
    _check_pair_stat(stat)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return _sweep(n)[0] if stat == "arm-leg" else _row_sweep(n)


def verify_theorem1(n: int) -> VerifyReport:
    """Check that the arm-leg and arm-left pair multisets of n coincide.

    On failure, reports the lexicographically smallest differing (c, d).
    """
    context = f"theorem1(n={n})"
    arm_leg, arm_left, _, _ = _sweep(n)
    return compare_counts(context, arm_leg.counts, arm_left.counts)


def stat_polynomial(n: int, stat: str) -> dict[int, int]:
    """Sum of x^(statistic) over every cell of every partition of n.

    ``stat`` is "hook" or "part"; the result maps each statistic value to
    its number of occurrences (a polynomial in a marker variable x).
    """
    if stat not in CELL_STATS:
        raise ValueError(f"stat must be one of {CELL_STATS}, got {stat!r}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return dict(_sweep(n)[2 if stat == "hook" else 3])


def _poly_from_pairs(multiset: PairMultiset) -> dict[int, int]:
    """Collapse a pair multiset through (c, d) -> c + d + 1."""
    poly: dict[int, int] = {}
    for (c, d), cnt in multiset.counts.items():
        e = c + d + 1
        poly[e] = poly.get(e, 0) + cnt
    return poly


def verify_identity1(n: int) -> VerifyReport:
    """Check that hook and part exponent tallies agree for weight n.

    Also checks that each polynomial is the c+d+1 collapse of its pair
    multiset (hook from arm-leg, part from arm-left), which is what makes
    the pair-multiset identity a refinement of this one.  (The hook check
    compares two per-cell tallies; the part check, the row expansions.)
    """
    context = f"identity1(n={n})"
    arm_leg, arm_left, hook_poly, part_poly = _sweep(n)
    for label, lhs, rhs in (
        (None, hook_poly, part_poly),
        ("hook-from-arm-leg", hook_poly, _poly_from_pairs(arm_leg)),
        ("part-from-arm-left", part_poly, _poly_from_pairs(arm_left)),
    ):
        report = compare_counts(context, lhs, rhs, label)
        if not report.passed:
            return report
    return VerifyReport.success(context)


def count_pair(n: int, c: int, d: int, stat: str) -> int:
    """How many times the pair (c, d) occurs in the chosen filling of n."""
    return build_pair_multiset(n, stat).count(c, d)


def verify_lemma(c: int, d: int, stat: str, n_max: int, order: int) -> VerifyReport:
    """Check brute pair counts against the closed-form series.

    For every 0 <= n <= n_max, the count of (c, d) in the chosen filling
    must equal the coefficient of q^n in q^(c+d+1) / ((1 - q^(c+d+1)) (q)_inf),
    which is built to order n_max only, whatever ``order`` is.
    """
    _check_pair_stat(stat)
    if n_max > order:
        raise ValueError(f"n_max ({n_max}) must not exceed the series order ({order})")
    context = f"lemma(c={c}, d={d}, stat={stat}, n_max={n_max})"
    rhs = lemma_rhs(c, d, n_max)
    return compare_counts(
        context,
        {n: rhs.coefficient(n) for n in range(n_max + 1)},
        {n: count_pair(n, c, d, stat) for n in range(n_max + 1)},
    )


def verify_fact3(m: int, n: int) -> VerifyReport:
    """Check the m-by-n box enumerator three ways.

    Brute enumeration of box-bounded partitions must match the Gaussian
    binomial; so must, coefficient-wise at order m*n, the corner recurrence
    F(m,n) = q^n F(m-1,n) + F(m,n-1)  (F with a zero side is 1)
    and the literal quotient (q)_{m+n} / ((q)_m (q)_n) by ``box_quotient``.
    This fact is the check of ``box_quotient``, the head of chain stages 0-1.
    """
    context = f"fact3(m={m}, n={n})"
    order = m * n
    closed = gauss_binomial(m, n, order)
    report = compare_series(context + " [brute vs closed]", box_gf_brute(m, n), closed)
    if not report.passed:
        return report
    if m == 0 or n == 0:
        recurrence = one(order)
    else:
        recurrence = make_monomial(n, order) * gauss_binomial(m - 1, n, order) + gauss_binomial(
            m, n - 1, order
        )
    report = compare_series(context + " [recurrence]", recurrence, closed)
    if not report.passed:
        return report
    report = compare_series(context + " [quotient]", box_quotient(m, n, order), closed)
    if not report.passed:
        return report
    return VerifyReport.success(context)


def verify_fact4(m: int, order: int) -> VerifyReport:
    """Check the parts-bounded-by-m enumerator against 1/(q)_m, as built
    by ``qseries.partial_euler_inv``.

    For each n <= order, the number of partitions of n with every part
    <= m (found by enumeration) must match the series coefficient
    (reported as ``parts<=m``), and by transposition the same number must
    count partitions with at most m parts (``conjugate``).  The first
    check runs over every n before the second.  The enumeration reads
    ``partitions.runs_of``'s runs, with no tuple built: the largest part
    is ``vals[0]`` and the number of parts ``sum(mults)``.
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    context = f"fact4(m={m}, order={order})"
    series = partial_euler_inv(m, order)
    bounded_part = {}
    bounded_len = {}
    for n in range(order + 1):
        bounded_part[n] = bounded_len[n] = 0
        for vals, mults in runs_of(n):
            bounded_part[n] += not vals or vals[0] <= m
            bounded_len[n] += sum(mults) <= m
    report = compare_counts(context, dict(enumerate(series.coeffs)), bounded_part, "parts<=m")
    if not report.passed:
        return report
    return compare_counts(context, bounded_part, bounded_len, "conjugate")
