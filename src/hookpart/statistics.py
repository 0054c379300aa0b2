"""Cell-statistic multisets over all partitions of n, and their verifiers.

Filling every cell of every partition of n with its (arm, leg) pair gives
one multiset of pairs; filling with (arm, left) gives another.  These two
multisets coincide for every n -- that is the identity this package
checks, refines, and realizes by explicit matchings.  Collapsing the
pairs through c+d+1 recovers the coarser statement that hook lengths and
part lengths are equidistributed over the cells.

Both multisets and the hook and part polynomials of every n come from
one recursion over part floors, with no partition walked.  Let T_k(n) be
the cells of the partitions of n with every part >= k, tallied.  Those
whose smallest part is k are the partitions of n - k with every part
>= k, each with a bottom row of length k added, which moves only the
first k columns; the others have every part >= k + 1.  So T_k(n) is
T_k(n - k) with a row added plus T_{k+1}(n), and T_1(n) holds every cell
of every partition of n, no partition tuple and no conjugate built.
Arm-left and part are expanded from row-length counts: every multiset,
polynomial, count and lemma check here reads this one recursion.  Pair
multisets are sparse count maps, never flattened lists.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from hookpart.partitions import box_gf_brute, runs_of
from hookpart.qseries import (
    box_quotient,
    compare_series,
    gauss_binomial,
    lemma_rhs,
    make_monomial,
    one,
    partial_euler_inv,
)
from hookpart.reports import VerifyReport, compare_counts, first_failure

PAIR_STATS = ("arm-leg", "arm-left")
CELL_STATS = ("hook", "part")

# first-column arm-leg, arm-leg from column k on, first-column hooks,
# hooks from column k on, row lengths, count: the layout ``_floors``
# documents for floor k
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


def _add_bottom_row(tallies: _Tallies | None, length: int, n: int) -> _Tallies:
    """T_k(n - k) with a bottom row of k = ``length`` added to each of its
    partitions, laid out at weight n; no partitions when ``tallies`` is None.

    The new row spans columns 0 .. k-1 and raises by one the leg and the
    hook of every cell in them; no other cell changes.  Of those columns
    only the first is tallied: its arm-leg counts move one leg row down
    and its hook counts one hook up, and its new cell (arm k - 1, leg 0,
    hook k) and the new row are counted once per partition.
    """
    legs = n // length
    first, rest = [0] * (legs * n), [0] * (legs * n)
    first_hooks, rest_hooks, rows = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    if tallies is None:
        return first, rest, first_hooks, rest_hooks, rows, 0
    prev_first, prev_rest, prev_first_hooks, prev_rest_hooks, prev_rows, count = tallies
    old = n - length
    for leg in range(legs - 1):
        first[(leg + 1) * n : (leg + 1) * n + old] = prev_first[leg * old : (leg + 1) * old]
        rest[leg * n : leg * n + old] = prev_rest[leg * old : (leg + 1) * old]
    first[length - 1] += count
    first_hooks[1 : old + 2] = prev_first_hooks
    first_hooks[length] += count
    rest_hooks[: old + 1] = prev_rest_hooks
    rows[: old + 1] = prev_rows
    rows[length] += count
    return first, rest, first_hooks, rest_hooks, rows, count


@lru_cache(maxsize=1)
def _floors(n: int) -> tuple[tuple[_Tallies | None, ...], ...]:
    """For each floor k = 1 .. n + 1, the last k states T_k(n - k + 1),
    ..., T_k(n): the cells of the partitions of each weight with every
    part >= k, tallied, or None where there is no such partition.

    Columns are counted from 0.  A state of weight m at floor k holds the
    first column's arm-leg counts and those of the columns from k on,
    both flattened leg-major (index leg * m + arm) over the m // k leg
    rows a partition with every part >= k can reach; the hook counts of
    the same two; the row-length counts; and the number of partitions.
    Every row reaches column k - 1, so each column j = 1 .. k-1 is the
    first column j arms and j hooks lower, and is not held.

    T_k(n) is T_k(n - k) with a bottom row of k added, by
    ``_add_bottom_row``, plus T_{k+1}(n), whose column k moves into the
    counts from column k on as its first column k arms and k hooks
    lower.  The floors are stepped from n - 1, top floor down, each
    dropping its oldest state, T_k(n - k), once it is read, under a new
    top floor n + 1.

    Only the latest n is cached: calls in ascending n cost one step
    each, and a call below it starts again from 0 (the recursion is n
    deep).  The states are never mutated; each step copies.
    """
    below = _floors(n - 1) if n else ()
    # floor n + 1: T_{n+1}(0), the partition of 0 with no cell, then none
    floors = [(([], [], [0], [0], [0], 1),) + (None,) * n]
    upper = None
    for k in range(n, 0, -1):
        states = below[k - 1]
        first, rest, first_hooks, rest_hooks, rows, count = _add_bottom_row(states[0], k, n)
        if upper is not None:
            up_first, up_rest, up_first_hooks, up_rest_hooks, up_rows, up_count = upper
            for counts, more in (
                (first, up_first),
                (rest, up_rest),
                (rest, up_first[k:]),
                (first_hooks, up_first_hooks),
                (rest_hooks, up_rest_hooks),
                (rest_hooks, up_first_hooks[k:]),
                (rows, up_rows),
            ):
                counts[: len(more)] = map(add, counts, more)
            count += up_count
        upper = first, rest, first_hooks, rest_hooks, rows, count
        floors.append(states[1:] + (upper,))
    return tuple(reversed(floors))


@lru_cache(maxsize=1)
def _sweep(n: int) -> tuple[PairMultiset, PairMultiset, Mapping[int, int], Mapping[int, int]]:
    """Arm-leg and arm-left multisets, hook and part polynomials of n.

    Read off T_1(n), the last state of ``_floors(n)``'s first floor:
    arm-leg and hook add the first column's counts to the other cells'.
    A row of length L holds exactly the cells (arm, left) = (L-1-j, j),
    j < L, each of part L, so arm-left and part are expanded from the
    row-length counts in O(n^2).  No partition tuple and no conjugate is
    built.  Only the latest n is cached.  All four results are
    read-only: callers share these cached objects.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    first, rest, first_hooks, rest_hooks, rows, _ = _floors(n)[0][-1]
    cells = list(map(add, first, rest))
    arm_leg = {(arm, leg): cnt for arm in range(n) for leg, cnt in enumerate(cells[arm::n]) if cnt}
    hooks = {e: cnt for e, cnt in enumerate(map(add, first_hooks, rest_hooks)) if cnt}
    arm_left = {(L - 1 - j, j): cnt for L, cnt in enumerate(rows) if cnt for j in range(L)}
    return (
        PairMultiset(counts=MappingProxyType(arm_leg)),
        PairMultiset(counts=MappingProxyType(arm_left)),
        MappingProxyType(hooks),
        MappingProxyType({L: L * cnt for L, cnt in enumerate(rows) if cnt}),
    )


def build_pair_multiset(n: int, stat: str) -> PairMultiset:
    """The multiset of (arm, leg) or (arm, left) pairs over all cells of
    all partitions of n.

    ``stat`` selects the filling: "arm-leg" or "arm-left".  Both are
    read off ``_sweep``, one part-floor recursion for every n.
    """
    _check_pair_stat(stat)
    return _sweep(n)[0 if stat == "arm-leg" else 1]


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
    checks = (
        (hook_poly, part_poly, None),
        (hook_poly, _poly_from_pairs(arm_leg), "hook-from-arm-leg"),
        (part_poly, _poly_from_pairs(arm_left), "part-from-arm-left"),
    )
    return first_failure(context, (compare_counts(context, *check) for check in checks))


def count_pair(n: int, c: int, d: int, stat: str) -> int:
    """How many times the pair (c, d) occurs in the chosen filling of n."""
    return build_pair_multiset(n, stat).count(c, d)


def verify_lemma(
    c: int, d: int, stat: str, n_max: int, order: int, counts: Sequence[int] | None = None
) -> VerifyReport:
    """Check brute pair counts against the closed-form series.

    For every 0 <= n <= n_max, the count of (c, d) in the chosen filling
    must equal the coefficient of q^n in q^(c+d+1) / ((1 - q^(c+d+1)) (q)_inf),
    which is built to order n_max only, whatever ``order`` is.  The counts
    are ``count_pair``'s for n = 0 .. n_max, or ``counts`` when a caller
    has read them already: the recursion behind them caches only its
    latest n, so reading them twice would run it twice from n = 0.
    """
    _check_pair_stat(stat)
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    if n_max > order:
        raise ValueError(f"n_max ({n_max}) must not exceed the series order ({order})")
    if counts is None:
        counts = [count_pair(n, c, d, stat) for n in range(n_max + 1)]
    elif len(counts) != n_max + 1:
        raise ValueError(f"counts must hold n_max + 1 = {n_max + 1} counts, got {len(counts)}")
    context = f"lemma(c={c}, d={d}, stat={stat}, n_max={n_max})"
    rhs = lemma_rhs(c, d, n_max)
    return compare_counts(
        context,
        {n: rhs.coefficient(n) for n in range(n_max + 1)},
        dict(enumerate(counts)),
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
    sides = (("brute vs closed", brute), ("recurrence", recurrence), ("quotient", quotient))
    checks = (compare_series(f"{context} [{label}]", side, closed) for label, side in sides)
    return first_failure(context, checks)


def verify_fact4(m: int, order: int) -> VerifyReport:
    """Check the parts-bounded-by-m enumerator against 1/(q)_m, as built
    by ``qseries.partial_euler_inv``.

    For each n <= order, the number of partitions of n with every part
    <= m (found by enumeration) must match the series coefficient
    (reported as ``parts<=m``), and by transposition the same number must
    count partitions with at most m parts (``conjugate``).  The first
    check runs over every n before the second.  The enumeration reads
    the partition walker's runs, with no tuple built: the largest part
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
    expected = dict(enumerate(series.coeffs))
    checks = ((expected, bounded_part, "parts<=m"), (bounded_part, bounded_len, "conjugate"))
    return first_failure(context, (compare_counts(context, *check) for check in checks))
