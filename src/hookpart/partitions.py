"""Integer partitions and their per-cell statistics.

A partition is represented as a plain tuple of weakly decreasing positive
ints; the empty tuple is the unique partition of 0.  Cells are addressed
as 1-based ``(row, col)`` pairs, matching the usual matrix-style drawing
of a Ferrers diagram (row 1 on top, left-justified).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

from hookpart.qseries import QSeries


class CellStats(NamedTuple):
    """The five statistics of one cell in a Ferrers diagram.

    arm   -- cells strictly to the right in the same row
    leg   -- cells strictly below in the same column
    left  -- cells strictly to the left in the same row
    hook  -- arm + leg + 1
    part  -- arm + left + 1, which equals the length of the cell's row
    """

    arm: int
    leg: int
    left: int
    hook: int
    part: int


def partitions_of(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every partition of ``n`` exactly once, largest-first, as tuples.

    The tuple view of ``runs_of``, in its order: descending lexicographic
    on the parts sequence, e.g. for n=4: (4,), (3,1), (2,2), (2,1,1),
    (1,1,1,1).  This fixed order is what gives partition indices their
    meaning elsewhere in the package.
    """
    for vals, mults in runs_of(n):
        parts: tuple[int, ...] = ()
        for part, mult in zip(vals, mults):
            parts += (part,) * mult
        yield parts


def runs_of(n: int) -> Iterator[tuple[list[int], list[int]]]:
    """Yield every partition of ``n`` exactly once, largest-first, as runs.

    The package's only partition walk: its order, descending lexicographic
    on the parts sequence, is the order ``partitions_of`` yields and every
    partition index refers to.  Each step is one ``(vals, mults)`` pair:
    the distinct parts, largest first, and how many times each occurs, so
    the partition is ``vals[t]`` repeated ``mults[t]`` times for each t.
    Both lists, and the pair itself, are the same objects at every step,
    updated in place: they are read-only to the caller and valid only
    until the next step.

    A step is O(1), with no tuple built and no run of 1s scanned: drop
    the run of 1s, take one part v off the last run, and push the freed
    weight back as (v-1) repeated q times and one remainder part r
    (Zoghbi and Stojmenovic's ZS1, in multiplicity form).
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    vals, mults = ([n], [1]) if n else ([], [])
    step = (vals, mults)
    while True:
        yield step
        freed = 0
        if vals and vals[-1] == 1:
            vals.pop()
            freed = mults.pop()
        if not vals:
            return
        v = vals[-1]
        if mults[-1] == 1:
            vals.pop()
            mults.pop()
        else:
            mults[-1] -= 1
        q, r = divmod(freed + v, v - 1)
        vals.append(v - 1)
        mults.append(q)
        if r:
            vals.append(r)
            mults.append(1)


@lru_cache(maxsize=None)
def count_partitions(n: int) -> int:
    """Number of partitions of ``n``.

    Computed by the bounded-largest-part recurrence (a coin-change style
    table), deliberately independent of both ``runs_of`` and the series
    engine so the three can cross-check each other.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Transpose the Ferrers diagram: column lengths become the parts."""
    if not parts:
        return ()
    counts = [0] * (parts[0] + 1)
    for length in parts:
        counts[length] += 1
    out = []
    run = 0
    for threshold in range(parts[0], 0, -1):
        run += counts[threshold]
        out.append(run)
    # out is (#parts >= parts[0], ..., #parts >= 1); the conjugate lists
    # column lengths largest-first, i.e. the same values reversed.
    out.reverse()
    return tuple(out)


def cell_stats(parts: tuple[int, ...], cell: tuple[int, int]) -> CellStats:
    """Statistics of the cell ``(row, col)`` of the partition ``parts``.

    With 1-based indices and row length L = parts[row-1]:

        arm  = L - col           (cells to the right)
        leg  = #{rows r > row with parts[r-1] >= col}
        left = col - 1           (cells to the left)

    This is the reference implementation: it counts the leg by scanning
    the rows below, literally as defined, where ``cells`` and the
    statistics sweep read it off the conjugate; the tests compare
    ``cells`` against it.
    Raises IndexError if the cell lies outside the diagram.
    """
    row, col = cell
    if row < 1 or row > len(parts):
        raise IndexError(f"row {row} out of range for partition {parts}")
    length = parts[row - 1]
    if col < 1 or col > length:
        raise IndexError(f"cell {cell} outside partition {parts}")
    arm = length - col
    leg = sum(1 for r in range(row, len(parts)) if parts[r] >= col)
    left = col - 1
    return CellStats(arm=arm, leg=leg, left=left, hook=arm + leg + 1, part=length)


def cells(parts: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], CellStats]]:
    """All cells of ``parts`` in row-major order, with their statistics.

    Each record is built positionally, ``tuple.__new__(CellStats, ...)``,
    in field order (arm, leg, left, hook, part): the same ``CellStats``
    at about half the cost of the keyword constructor.
    """
    if not parts:
        return
    conj = conjugate(parts)
    for i, length in enumerate(parts):
        row = i + 1
        for col in range(1, length + 1):
            arm = length - col
            leg = conj[col - 1] - row
            yield (row, col), tuple.__new__(CellStats, (arm, leg, col - 1, arm + leg + 1, length))


def box_partitions(rows: int, width: int) -> Iterator[tuple[int, ...]]:
    """Yield every partition with at most ``rows`` parts, each <= ``width``.

    A pre-order walk with an explicit stack, so a tall box (``rows`` in
    the thousands) needs no recursion: each prefix is yielded, then its
    extensions by a next part ``first <= cap``, largest ``first`` first.
    """
    stack = [((), rows, width)]
    while stack:
        prefix, rows_left, cap = stack.pop()
        yield prefix
        if rows_left > 0:
            stack.extend((prefix + (first,), rows_left - 1, first) for first in range(1, cap + 1))


def box_gf_brute(m: int, n: int) -> QSeries:
    """Weight enumerator of partitions fitting in an m-row by n-column box.

    Counts by direct enumeration; the result is a QSeries of order m*n
    whose coefficient at q^e is the number of such partitions of weight e.
    This is the brute-force twin of ``qseries.gauss_binomial``.  Conjugation
    maps the m-by-n box onto the n-by-m one and keeps the weight, so the
    walk takes the shorter side as rows: every prefix it builds and sums
    has at most min(m, n) parts.
    """
    if m < 0 or n < 0:
        raise ValueError("box dimensions must be nonnegative")
    coeffs = [0] * (m * n + 1)
    for parts in box_partitions(min(m, n), max(m, n)):
        coeffs[sum(parts)] += 1
    return QSeries(coeffs)
