"""Explicit cell matchings realizing the pair-multiset identity.

For each n there must exist a bijection on the cells of all partitions
of n carrying each cell's (arm, left) pair onto its image's (arm, leg)
pair.  No uniform closed-form rule for such a map is known; this module
constructs one concrete, deterministic matching per n so the output can
be inspected for patterns, and validates arbitrary candidate matchings.
"""

from __future__ import annotations

import bisect
import functools
import gc
from array import array
from collections import Counter, defaultdict
from itertools import accumulate
from operator import add
from typing import Any, NamedTuple

from hookpart.partitions import cells, partitions_of, runs_of
from hookpart.reports import VerifyReport, compare_counts


class CellRef(NamedTuple):
    """A cell addressed globally: which partition of n (by its index in
    the canonical largest-first enumeration), then row and column."""

    partition_index: int
    row: int
    col: int


class IdentityViolation(RuntimeError):
    """The pair multiset identity failed for some n, so no matching exists."""


class Matching(NamedTuple):
    """A pairing of every cell (as source) with every cell (as target)
    such that each source's (arm, left) equals its target's (arm, leg)."""

    n: int
    pairs: tuple[tuple[CellRef, CellRef], ...]


class MatchingTable(NamedTuple):
    """The canonical matching of weight n as two flat columns.

    Cells are numbered by their position in enumeration order, which is
    sorted ``CellRef`` order.  Every partition of n has n cells, so cell k
    lies in partition ``k // n``, and ``cell[k]`` codes its place in that
    partition's diagram as ``(row - 1) * n + col - 1``: cell k is
    ``CellRef(k // n, cell[k] // n + 1, cell[k] % n + 1)``.  Source k is
    paired with target ``target[k]``.  Both columns are ``array('i')``s:
    two ints per cell and no per-cell object.
    """

    n: int
    cell: array
    target: array


def _column_heights(vals: list[int], mults: list[int]) -> list[int]:
    """The column heights of the partition with runs ``(vals, mults)``,
    left to right: column j (0-based) holds one cell of every row longer
    than j.  Read bottom up: every row reaches the shortest run's columns,
    and the columns each run above adds hold that run and the rows above."""
    heights: list[int] = []
    rows = sum(mults)
    for length, mult in zip(reversed(vals), reversed(mults)):
        heights += [rows] * (length - len(heights))
        rows -= mult
    return heights


def matching_table(n: int) -> MatchingTable:
    """Build the reference matching for weight n as a ``MatchingTable``.

    Sources are keyed by (arm, left) and targets by (arm, leg); inside
    each key the k-th source, in enumeration order, is paired with the
    k-th target in that order.  One pass over ``partitions.runs_of``
    fills the cell column and groups the targets by key, already sorted,
    so the pairing needs no sort: O(cells) after enumeration.  Any order
    inside a group would be valid; fixing this one makes runs diffable.

    A run of m rows of length L, from row ``top`` (0-based), is one block.
    Cell (r, j) of it has arm L-1-j, left j and leg heights[j]-1-r, with
    the partition's column heights from ``_column_heights``.  So its code
    depends only on (L, r, j), and its target key is an (L, r, j) term
    plus its column's height.  Tables indexed by L, kept to the n // L
    rows a row of length L can start at, hold those terms, and each run
    takes its cells' codes and key terms as one slice of each table: no
    per-cell tuple or record is built, and the only per-cell step is
    filing the cell's position under its target key.

    The sources need no per-cell step at all.  Column j of a row of
    length L is the one cell of that row with source key (L-1-j, j), so
    the first pass counts only the rows of each length, and each source
    key's count is its length's row count.  Laid out row by row, the
    rows of length L are one flat ``array('i')`` in which column j is
    every L-th slot from j, and that slice takes the key's target group
    whole: the i-th row of length L, in enumeration order, is paired
    with the i-th target of each of its keys.  A second walk over the
    runs then appends one slice of its length's layout per run.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    # arm, left and leg are all below n, so the key (a, b) is coded as the
    # int a * stride + b: ints sort like the tuples and cost no allocation
    stride = n + 1
    codes, arm_parts = [array("i")], [array("i")]
    for length in range(1, n + 1):
        rows, cols = range(n // length), range(length)
        codes.append(array("i", [r * n + j for r in rows for j in cols]))
        arm_parts.append(array("i", [(length - 1 - j) * stride - 1 - r for r in rows for j in cols]))
    cell = array("i")
    row_counts = [0] * (n + 1)
    targets: defaultdict[int, array] = defaultdict(functools.partial(array, "i"))
    for vals, mults in runs_of(n):
        heights = _column_heights(vals, mults)
        top = 0
        for length, mult in zip(vals, mults):
            lo, hi = top * length, (top + mult) * length
            # the cell's position is the count of cells before it
            at = len(cell)
            cell.extend(codes[length][lo:hi])
            row_counts[length] += mult
            for key in map(add, arm_parts[length][lo:hi], heights[:length] * mult):
                targets[key].append(at)
                at += 1
            top += mult
    source_counts = {
        (length - 1 - j) * stride + j: rows
        for length, rows in enumerate(row_counts)
        if rows
        for j in range(length)
    }
    target_counts = {key: len(group) for key, group in targets.items()}
    sizes = compare_counts(f"matching(n={n})", source_counts, target_counts)
    if not sizes.passed:
        disc = sizes.first_discrepancy
        raise IdentityViolation(
            f"pair multiset identity violated at n={n}, key={divmod(disc.where, stride)}: "
            f"{disc.expected} arm-left cells vs {disc.actual} arm-leg cells"
        )
    layouts = []
    for length, rows in enumerate(row_counts):
        flat = array("i", [0]) * (rows * length)
        if rows:
            for j in range(length):
                flat[j::length] = targets[(length - 1 - j) * stride + j]
        layouts.append(flat)
    target = array("i")
    rows_taken = [0] * (n + 1)
    for vals, mults in runs_of(n):
        for length, mult in zip(vals, mults):
            lo = rows_taken[length]
            target.extend(layouts[length][lo * length : (lo + mult) * length])
            rows_taken[length] = lo + mult
    return MatchingTable(n, cell, target)


def canonical_matching(n: int) -> Matching:
    """The reference matching for weight n, as ``CellRef`` pairs sorted by
    source: ``matching_table(n)`` with each position made a ``CellRef``.

    The whole build runs with the cyclic garbage collector paused, and on
    exit the collector is left as it was found, so a caller that had it
    off keeps it off.  The result holds about n * p(n) ``CellRef`` pairs;
    without the pause the collector would run over them 480 times while
    they are built at n = 30 (CPython 3.11; 438, 39 and 3 by generation,
    all but one after the table is built), and reclaim nothing.  The
    build allocates only ``CellRef``s, tuples, lists, arrays and dicts of
    ints, and nothing refers back, so no cycle can form and reference
    counting frees everything as before.  The collector's next run, after
    the return, traverses the survivors once.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        table = matching_table(n)
        # CellRef's own __new__ is a Python-level wrapper around this call
        refs = [
            tuple.__new__(CellRef, (k // n, at // n + 1, at % n + 1))
            for k, at in enumerate(table.cell)
        ]
        return Matching(n=n, pairs=tuple(zip(refs, map(refs.__getitem__, table.target))))
    finally:
        if enabled:
            gc.enable()


def _cell_columns(n: int) -> tuple[array, array, array, list[tuple[int, ...]]]:
    """The arm, leg and left of every cell of n, as three columns in
    enumeration order, and for each partition the positions at which its
    rows start, then the position after its last cell, from one walk over
    the partitions of n.  Every partition of n has n cells, so partition
    i starts at i * n."""
    arm, leg, left = array("i"), array("i"), array("i")
    row_starts = []
    for parts in partitions_of(n):
        row_starts.append(tuple(accumulate(parts, initial=len(arm))))
        for _, stats in cells(parts):
            arm.append(stats.arm)
            leg.append(stats.leg)
            left.append(stats.left)
    return arm, leg, left, row_starts


def _position(row_starts: list[tuple[int, ...]], ref: Any) -> int:
    """The position of ref in enumeration order, or -1 if it is no cell:
    its partition's first-cell offset, plus the lengths of the rows above,
    plus col - 1."""
    index, row, col = ref
    if 0 <= index < len(row_starts):
        starts = row_starts[index]
        if 0 < row < len(starts) and 0 < col <= starts[row] - starts[row - 1]:
            return starts[row - 1] + col - 1
    return -1


def verify_matching(matching: Matching) -> VerifyReport:
    """Check both matching invariants.

    Bijectivity: the sources enumerate every cell of every partition of n
    exactly once, and so do the targets.  A failure names, as ``(side, ref)``
    with its expected and actual use counts, the smallest used ref that is
    no cell of n or is used more than once; only if there is none, the
    smallest unused cell.  Transport: for every pair, the source's
    (arm, left) equals the target's (arm, leg).
    Both checks run on cell positions in enumeration order: each ref is
    placed by arithmetic (``_position``), and the statistics are columns.
    """
    n = matching.n
    context = f"matching(n={n}, pairs={len(matching.pairs)})"
    arm, leg, left, row_starts = _cell_columns(n)
    position = functools.partial(_position, row_starts)

    places = []
    for column, side in enumerate(("sources", "targets")):
        refs = [pair[column] for pair in matching.pairs]
        place = list(map(position, refs))
        placed = sorted(place)
        if placed != list(range(len(arm))):
            uses = Counter(refs)
            valid = {ref: int(position(ref) >= 0) for ref in uses}
            report = compare_counts(context, valid, uses, side)
            if report.passed:
                # every ref is a distinct cell of n, so the first gap in
                # the sorted positions is the smallest unused cell
                unused = next((k for k, at in enumerate(placed) if at != k), len(placed))
                index = unused // n
                row = bisect.bisect(row_starts[index], unused)
                ref = CellRef(index, row, unused - row_starts[index][row - 1] + 1)
                report = VerifyReport.failure(context, where=(side, ref), expected=1, actual=0)
            return report
        places.append(place)

    for (src, dst), s, t in zip(matching.pairs, *places):
        if (arm[s], left[s]) != (arm[t], leg[t]):
            return VerifyReport.failure(
                context,
                where=(src, dst),
                expected=(arm[s], left[s]),
                actual=(arm[t], leg[t]),
            )
    return VerifyReport.success(context)
