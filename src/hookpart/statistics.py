"""Cell-statistic multisets over all partitions of n, and their verifiers.

Filling every cell of every partition of n with its (arm, leg) pair gives
one multiset of pairs; filling with (arm, left) gives another.  These two
multisets coincide for every n -- that is the identity this package
checks, refines, and realizes by explicit matchings.  Collapsing the
pairs through c+d+1 recovers the coarser statement that hook lengths and
part lengths are equidistributed over the cells.

Both multisets and the hook and part polynomials of every n come from
one pass carried from n - 1 to n: the partitions of n are those of n - 1
with a bottom row of length 1 added, which moves only the first column's
legs and hooks, plus the cores of n, the partitions with no part 1.  The
cores are carried one level deeper, from n - 2: those ending in 2 are the
cores of n - 2 with a bottom row of length 2 added, which moves only the
first two columns, the second being the first one arm shorter.  So the
walk, ``partitions.runs_of(n, 2)`` as runs of equal parts, steps only
through the cores, and only the partitions with every part >= 3 are
tallied cell by cell: the cells of every n <= N cost one walk over p(N)
partitions, no partition tuple and no conjugate built.  Arm-left and
part are expanded from row-length counts.  A second row tally, run alone
over every partition of n with no per-cell work, gives the arm-left
multiset to ``build_pair_multiset`` and the lemma check.  Pair
multisets are sparse count maps, never flattened lists.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import add
from types import MappingProxyType
from typing import Mapping, NamedTuple

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

# first-column arm-leg, other arm-leg, first-column hooks, other hooks,
# row lengths, count: the layout ``_carry`` documents
_Tallies = tuple[list[int], list[int], list[int], list[int], list[int], int]


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

    A row tally over every partition of n, a run of m rows of length v
    adding m to ``rows[v]`` at once: no partition tuple built, no cell
    visited, and nothing shared with ``_carry``'s row counts, so the two
    tallies check each other.  Read-only and shared, like ``_sweep``'s
    results.
    """
    rows = [0] * (n + 1)
    for vals, mults in runs_of(n):
        for length, mult in zip(vals, mults):
            rows[length] += mult
    return _expand_rows(rows)[0]


def _add_runs(counts: list[int], runs: list[int]) -> None:
    """Add the running sums of a difference array to cell counts, in place.

    In place, so a step's peak holds no third table per statistic; the
    difference array may run past the end of the counts.
    """
    counts[:] = map(add, counts, accumulate(runs))


def _add_bottom_row(tallies: _Tallies | None, length: int, width: int) -> _Tallies:
    """Tallies laid out like ``_carry``'s, of some partitions of
    width - length, with a bottom row of ``length`` added to each and
    laid out at ``width``; no partitions when ``tallies`` is None.

    The new row raises by one the leg and the hook of every cell in the
    columns it spans and changes no other cell.  Of those columns only
    the first is tallied here: its arm-leg and hook counts are shifted by
    one leg, and its new cell (arm length - 1, leg 0, hook length) and
    the new row are counted once per partition.  A row of 2's second
    column is left to ``_carry``, which reads it off the first.
    """
    first, rest = [0] * (width * width), [0] * (width * width)
    first_hooks, rest_hooks, rows = [0] * (width + 1), [0] * (width + 1), [0] * (width + 1)
    if tallies is None:
        return first, rest, first_hooks, rest_hooks, rows, 0
    prev_first, prev_rest, prev_first_hooks, prev_rest_hooks, prev_rows, count = tallies
    old = width - length
    for arm in range(old):
        first[arm * width + 1 : arm * width + old + 1] = prev_first[arm * old : arm * old + old]
        rest[arm * width : arm * width + old] = prev_rest[arm * old : arm * old + old]
    first[(length - 1) * width] += count
    first_hooks[1 : old + 2] = prev_first_hooks
    first_hooks[length] += count
    rest_hooks[: old + 1] = prev_rest_hooks
    rows[: old + 1] = prev_rows
    rows[length] += count
    return first, rest, first_hooks, rest_hooks, rows, count


@lru_cache(maxsize=3)
def _cores(n: int) -> _Tallies:
    """Every cell of every core of n, tallied, a core being a partition
    with no part 1: the first column's arm-leg (flattened, index
    arm * n + leg) and the arm-leg of the columns from the third on, the
    hook counts of the same two, the row-length counts, and the number
    of cores.  Carried from the cores of n - 2.

    Every row of a core reaches the second column, so the second column
    holds the first one's cells one arm shorter, with the same legs and
    hooks one lower; it is left to the caller, which reads it off the
    first column.

    The cores of n whose last part is 2 are those of n - 2 with a bottom
    row of length 2 added.  That row adds two cells, (arm 1, leg 0) in
    the first column and (arm 0, leg 0) in the second, and raises by one
    the leg and the hook of every other cell in those two columns; no
    other cell changes.  So, by ``_add_bottom_row``, the first column's
    arm-leg and hook counts are shifted by one leg, the number of cores
    of n - 2 is added to (1, 0), to hook 2 and to rows of length 2, and
    the rest is kept.  Then the partitions of n with every part >= 3 are
    tallied cell by cell, each once, from the walk
    ``partitions.runs_of(n, 2)``, which steps through the cores of n
    alone; those that end in 2 are skipped.

    A partition is read as its runs, each a block of equal rows, from
    the bottom up.  With ends[t] = mults[0] + ... + mults[t], run t is
    rows ends[t-1] .. ends[t]-1 (0-based, ends[-1] = 0) of length
    vals[t], and it adds columns vals[t+1] .. vals[t]-1, each holding
    ends[t] cells, to the columns the runs below it reach; a per-n table
    holds each column's share of the cell indices, shared by every
    partition, and is read from the third column on.  In a block of m
    rows of length L, column j holds one arm, L-1-j, and m consecutive
    legs, so also m consecutive hooks.  The first column, and off it
    every block of m >= 2 rows, adds 1 at the run's start and takes it
    off past its end in an arm-leg and a hook difference array; off the
    first column a block of one row adds its cells to the count tables
    directly.  Once per n, the running sums of the difference arrays are
    added into the count tables.

    The latest three n are cached, so calls in ascending n, as
    ``_carry`` makes them, cost one step each; a call below them starts
    again from 0 or 1 (the recursion is n / 2 deep).  The result is never
    mutated; each step copies.
    """
    width = n
    first, rest, first_hooks, rest_hooks, rows, count = _add_bottom_row(
        _cores(n - 2) if n > 1 else None, 2, width
    )
    # Difference arrays.  An off-first-column run's end mark may spill into
    # the next arm row's first entry, never past the last row: a block of
    # two or more rows of length L has L <= width / 2, so its marks stay
    # below L * width.  A first-column run's end mark, (L-1) * width +
    # height, stays below width * width, for a partition with every part
    # >= 3 has height at most width / 3.  A hook run's end mark may fall
    # one past hook ``width`` (the column of a single row), so those
    # arrays are one entry longer than the hook counts.
    first_runs, rest_runs = [0] * (width * width), [0] * (width * width)
    first_hook_runs, rest_hook_runs = [0] * (width + 2), [0] * (width + 2)
    # table[e][j]: column j's share of a cell's arm-leg index and of its
    # hook when the column holds e cells (conj[j] = e).  Rows 0 .. e-1
    # then all reach column j, so the partition has at least e * (j + 1)
    # cells and j < n // e; table[0] is never read.
    table = [[]] + [[(e - j * width, e - j) for j in range(n // e)] for e in range(1, n + 1)]
    for vals, mults in runs_of(n, 2):
        if vals and vals[-1] == 2:
            continue
        count += 1
        height = sum(mults)
        # blocks bottom up: rows first .. last-1 all have length
        # `length`; the columns below .. length-1 (from column 2) first
        # appear here, and each holds `last` cells
        cols = []
        below, last = 2, height
        for length, mult in zip(reversed(vals), reversed(mults)):
            rows[length] += mult
            cols += table[last][below:length]
            below, first_row = length, last - mult
            base = (length - 1) * width
            # first column: arm = length-1, legs height-last .. height-first_row-1
            first_runs[base + height - last] += 1
            first_runs[base + height - first_row] -= 1
            first_hook_runs[length + height - last] += 1
            first_hook_runs[length + height - first_row] -= 1
            if mult == 1:
                # cell j: arm = length-1-j, leg = conj[j]-last
                base -= last
                hook_base = length - last
                for arm_leg_col, hook_col in cols:
                    rest[base + arm_leg_col] += 1
                    rest_hooks[hook_base + hook_col] += 1
            else:
                # column j: arm = length-1-j, legs conj[j]-last .. conj[j]-first_row-1
                start, stop = base - last, base - first_row
                hook_start, hook_stop = length - last, length - first_row
                for arm_leg_col, hook_col in cols:
                    rest_runs[start + arm_leg_col] += 1
                    rest_runs[stop + arm_leg_col] -= 1
                    rest_hook_runs[hook_start + hook_col] += 1
                    rest_hook_runs[hook_stop + hook_col] -= 1
            last = first_row
    for counts, runs in (
        (first, first_runs),
        (rest, rest_runs),
        (first_hooks, first_hook_runs),
        (rest_hooks, rest_hook_runs),
    ):
        _add_runs(counts, runs)
    return first, rest, first_hooks, rest_hooks, rows, count


@lru_cache(maxsize=1)
def _carry(n: int) -> _Tallies:
    """Every cell of every partition of n, tallied: the first column's
    arm-leg and the other cells' (flattened, index arm * n + leg), the
    first column's hook counts and the other cells', the row-length
    counts, and p(n).  Carried from the tallies of n - 1, with the cores
    of n added.

    The partitions of n whose last part is 1 are those of n - 1 with a
    bottom row of length 1 added.  That row adds one cell, arm 0, leg 0
    and hook 1, and raises by one the leg and the hook of every other
    cell in the first column; no other cell changes.  So, by
    ``_add_bottom_row``, the first column's arm-leg and hook counts are
    shifted by one leg, p(n - 1) is added to (0, 0), to hook 1 and to
    rows of length 1, and the rest is kept.  The others are the cores of
    n, the partitions with no part 1, tallied by ``_cores``: their first
    column, their columns from the third on, and their second column,
    which is the first one shifted down one arm and one hook, are added
    in.  No partition is walked here.

    Only the latest n is cached: calls in ascending n cost one step each,
    and a call below it starts again from 0, one step per n (the
    recursion is n deep).  The result is never mutated; each step copies.
    """
    width = n
    first, rest, first_hooks, rest_hooks, rows, count = _add_bottom_row(
        _carry(n - 1) if n else None, 1, width
    )
    core_first, core_rest, core_first_hooks, core_rest_hooks, core_rows, core_count = _cores(n)
    # a core's second column: its first one, one arm and one hook lower
    for counts, more in (
        (first, core_first),
        (rest, core_rest),
        (rest, core_first[width:]),
        (first_hooks, core_first_hooks),
        (rest_hooks, core_rest_hooks),
        (rest_hooks, core_first_hooks[1:]),
        (rows, core_rows),
    ):
        counts[: len(more)] = map(add, counts, more)
    return first, rest, first_hooks, rest_hooks, rows, count + core_count


@lru_cache(maxsize=None)
def _sweep(n: int) -> tuple[PairMultiset, PairMultiset, Mapping[int, int], Mapping[int, int]]:
    """Arm-leg and arm-left multisets, hook and part polynomials of n.

    Read off ``_carry(n)``: arm-leg and hook add the first column's
    counts to the other cells', and arm-left and part are expanded from
    the row-length counts by ``_expand_rows``.  No partition tuple and no
    conjugate is built.  All four results are read-only: callers share
    these cached objects.
    """
    first, rest, first_hooks, rest_hooks, rows, _ = _carry(n)
    arm_leg = {divmod(idx, n): cnt for idx, cnt in enumerate(map(add, first, rest)) if cnt}
    hooks = {e: cnt for e, cnt in enumerate(map(add, first_hooks, rest_hooks)) if cnt}
    arm_left, part_poly = _expand_rows(rows)
    return (
        PairMultiset(counts=MappingProxyType(arm_leg)),
        arm_left,
        MappingProxyType(hooks),
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

    Brute enumeration of box-bounded partitions must match the product
    ``gauss_binomial`` builds; so must, coefficient-wise at order m*n, the
    corner recurrence over its smaller boxes, F(m,n) = q^n F(m-1,n) +
    F(m,n-1) (F with a zero side is 1), and the literal quotient
    (q)_{m+n} / ((q)_m (q)_n) by ``box_quotient``.
    This fact is the check of ``box_quotient``, the head of chain stages 0-1.
    """
    context = f"fact3(m={m}, n={n})"
    order = m * n
    closed = gauss_binomial(m, n, order)
    if m == 0 or n == 0:
        recurrence = one(order)
    else:
        recurrence = make_monomial(n, order) * gauss_binomial(m - 1, n, order) + gauss_binomial(
            m, n - 1, order
        )
    brute, quotient = box_gf_brute(m, n), box_quotient(m, n, order)
    for label, side in (("brute vs closed", brute), ("recurrence", recurrence), ("quotient", quotient)):
        report = compare_series(f"{context} [{label}]", side, closed)
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
