"""Explicit cell matchings realizing the pair-multiset identity.

For each n there must exist a bijection on the cells of all partitions
of n carrying each cell's (arm, left) pair onto its image's (arm, leg)
pair.  No uniform closed-form rule for such a map is known; this module
constructs one concrete, deterministic matching per n so the output can
be inspected for patterns, and validates arbitrary candidate matchings.
"""

from __future__ import annotations

import functools
import gc
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, NamedTuple, ParamSpec, TypeVar

from hookpart.partitions import cells, partitions_of
from hookpart.qseries import VerifyReport, compare_counts


class CellRef(NamedTuple):
    """A cell addressed globally: which partition of n (by its index in
    the canonical largest-first enumeration), then row and column."""

    partition_index: int
    row: int
    col: int


class IdentityViolation(RuntimeError):
    """The pair multiset identity failed for some n, so no matching exists."""


@dataclass(frozen=True)
class Matching:
    """A pairing of every cell (as source) with every cell (as target)
    such that each source's (arm, left) equals its target's (arm, leg)."""

    n: int
    pairs: tuple[tuple[CellRef, CellRef], ...]


_P = ParamSpec("_P")
_R = TypeVar("_R")


def _without_cyclic_gc(fn: Callable[_P, _R]) -> Callable[_P, _R]:
    """Run fn with the cyclic garbage collector paused (Mercurial's
    ``util.nogc`` pattern), restoring on exit the state it found, so a
    caller that had it off keeps it off.

    This is safe for the builds below: they allocate only ``CellRef``s,
    tuples, lists and dicts of ints, and nothing refers back, so no cycle
    can form and reference counting frees everything exactly as before.
    In place of the hundreds of collections that would run during a build
    and reclaim nothing, the collector's next run, after fn returns,
    traverses the survivors once.

    ``cli._cmd_match`` is wrapped too, so that one pause spans build,
    render and emit, and that next run comes after the matching is
    freed, not in rendering.  Rendering is safe inside the pause: it makes
    only strs, which the collector does not track, and temporaries that
    reference counting frees.  Nested pauses are safe, since each restores
    the state it found.
    """

    @functools.wraps(fn)
    def paused(*args: _P.args, **kwargs: _P.kwargs) -> _R:
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


@_without_cyclic_gc
def canonical_matching(n: int) -> Matching:
    """Build the reference matching for weight n.

    Sources are keyed by (arm, left) and targets by (arm, leg); inside
    each key the k-th source, in (partition_index, row, col) order, is
    paired with the k-th target in that order.  Cells are enumerated in
    exactly that order, so one pass collects the sources already sorted
    and the targets already grouped, and the pairs come out sorted by
    source with no sort: O(cells) after enumeration.  Any order inside a
    group would be valid; fixing this one makes runs diffable.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    # arm, left and leg are all below n, so the key (a, b) is coded as the
    # int a * stride + b: ints sort like the tuples and cost no allocation
    stride = n + 1
    sources: list[CellRef] = []
    source_keys: list[int] = []
    targets: defaultdict[int, list[CellRef]] = defaultdict(list)
    for index, parts in enumerate(partitions_of(n)):
        for (row, col), stats in cells(parts):
            # CellRef's own __new__ is a Python-level wrapper around this call
            ref = tuple.__new__(CellRef, (index, row, col))
            sources.append(ref)
            source_keys.append(stats.arm * stride + stats.left)
            targets[stats.arm * stride + stats.leg].append(ref)
    target_counts = {key: len(group) for key, group in targets.items()}
    sizes = compare_counts(f"matching(n={n})", Counter(source_keys), target_counts)
    if not sizes.passed:
        disc = sizes.first_discrepancy
        raise IdentityViolation(
            f"pair multiset identity violated at n={n}, key={divmod(disc.where, stride)}: "
            f"{disc.expected} arm-left cells vs {disc.actual} arm-leg cells"
        )
    next_target = {key: iter(group).__next__ for key, group in targets.items()}
    return Matching(n=n, pairs=tuple(zip(sources, [next_target[key]() for key in source_keys])))


@_without_cyclic_gc
def verify_matching(matching: Matching) -> VerifyReport:
    """Check both matching invariants.

    Bijectivity: the sources enumerate every cell of every partition of n
    exactly once, and so do the targets.  A failure names the smallest
    cell, as ``(side, ref)``, that is no cell of n, is used more than once
    or is never used, with its expected and actual use counts.  Transport:
    for every pair, the source's (arm, left) equals the target's (arm, leg).
    """
    n = matching.n
    context = f"matching(n={n}, pairs={len(matching.pairs)})"
    stats_by_ref: dict[CellRef, tuple[int, int, int]] = {}
    for index, parts in enumerate(partitions_of(n)):
        for (row, col), stats in cells(parts):
            ref = tuple.__new__(CellRef, (index, row, col))
            stats_by_ref[ref] = (stats.arm, stats.leg, stats.left)

    universe = list(stats_by_ref)  # enumeration order is sorted CellRef order
    for column, side in enumerate(("sources", "targets")):
        refs = sorted(pair[column] for pair in matching.pairs)
        if refs != universe:
            uses = Counter(refs)
            valid = {ref: int(ref in stats_by_ref) for ref in uses}
            report = compare_counts(context, valid, uses, side)
            if report.passed:
                report = compare_counts(context, dict.fromkeys(universe, 1), uses, side)
            return report

    for src, dst in matching.pairs:
        arm_s, _, left_s = stats_by_ref[src]
        arm_t, leg_t, _ = stats_by_ref[dst]
        if (arm_s, left_s) != (arm_t, leg_t):
            return VerifyReport.failure(
                context,
                where=(src, dst),
                expected=(arm_s, left_s),
                actual=(arm_t, leg_t),
            )
    return VerifyReport.success(context)
