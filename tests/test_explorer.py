import gc
import sys

import pytest

from hookpart import explorer, partitions
from hookpart.explorer import (
    CellRef,
    IdentityViolation,
    Matching,
    _column_heights,
    canonical_matching,
    verify_matching,
)
from hookpart.partitions import cells, count_partitions, partitions_of
from hookpart.statistics import build_pair_multiset


def test_empty_and_singleton():
    assert canonical_matching(0).pairs == ()
    matching = canonical_matching(1)
    assert matching.pairs == ((CellRef(0, 1, 1), CellRef(0, 1, 1)),)


def test_n2_golden():
    # partitions of 2 in canonical order: (2,) then (1,1)
    matching = canonical_matching(2)
    assert matching.pairs == (
        (CellRef(0, 1, 1), CellRef(0, 1, 1)),
        (CellRef(0, 1, 2), CellRef(1, 1, 1)),
        (CellRef(1, 1, 1), CellRef(0, 1, 2)),
        (CellRef(1, 2, 1), CellRef(1, 2, 1)),
    )


@pytest.mark.parametrize("n", range(13))
def test_canonical_matching_verifies(n):
    report = verify_matching(canonical_matching(n))
    assert report.passed, report


def grouped_sorted_matching(n):
    """The original construction, kept as an oracle: group both sides by
    key, zip each group in enumeration order, then sort by source."""
    sources, targets = {}, {}
    for index, parts in enumerate(partitions_of(n)):
        for (row, col), stats in cells(parts):
            ref = CellRef(index, row, col)
            sources.setdefault((stats.arm, stats.left), []).append(ref)
            targets.setdefault((stats.arm, stats.leg), []).append(ref)
    pairs = []
    for key in sorted(set(sources) | set(targets)):
        assert len(sources.get(key, [])) == len(targets.get(key, []))
        pairs.extend(zip(sources.get(key, []), targets.get(key, [])))
    pairs.sort(key=lambda pair: pair[0])
    return Matching(n=n, pairs=tuple(pairs))


@pytest.mark.parametrize("n", range(21))
def test_matches_grouped_sorted_oracle(n):
    assert canonical_matching(n) == grouped_sorted_matching(n)


def _violating_heights(vals, mults):
    # column 1 of (3,) reads one cell taller, so cell (1, 1) gains a leg:
    # one arm-leg cell moves from key (2, 0) to (2, 1)
    heights = _column_heights(vals, mults)
    if (vals, mults) == ([3], [1]):
        heights[0] += 1
    return heights


def test_identity_violation_names_smallest_key(monkeypatch):
    monkeypatch.setattr(explorer, "_column_heights", _violating_heights)
    with pytest.raises(IdentityViolation) as excinfo:
        canonical_matching(3)
    assert str(excinfo.value) == (
        "pair multiset identity violated at n=3, key=(2, 0): "
        "1 arm-left cells vs 0 arm-leg cells"
    )


@pytest.mark.parametrize("n", range(21))
def test_table_positions_round_trip(n):
    """Position k of the table is the k-th cell of the enumeration, the
    position arithmetic takes that cell back to k, and the targets are a
    permutation of the positions."""
    table = explorer.matching_table(n)
    refs = [
        CellRef(index, row, col)
        for index, parts in enumerate(partitions_of(n))
        for (row, col), _ in cells(parts)
    ]
    decoded = [(k // n, at // n + 1, at % n + 1) for k, at in enumerate(table.cell)]
    assert decoded == refs
    arm, leg, left, starts = explorer._cell_columns(n)
    assert list(zip(arm, leg, left)) == [
        (stats.arm, stats.leg, stats.left) for parts in partitions_of(n) for _, stats in cells(parts)
    ]
    assert [explorer._position(starts, ref) for ref in refs] == list(range(len(refs)))
    assert sorted(table.target) == list(range(len(refs)))
    outside = [(-1, 1, 1), (len(starts), 1, 1)]
    for index, parts in enumerate(partitions_of(n)):
        outside += [(index, 0, 1), (index, len(parts) + 1, 1)]
        outside += [(index, row, col) for row, length in enumerate(parts, 1) for col in (0, length + 1)]
    assert [explorer._position(starts, ref) for ref in outside] == [-1] * len(outside)


def per_cell_table(n):
    """The table's two columns built cell by cell from ``partitions_of``
    and ``cells``, kept as the reference for the run-block build: each
    cell's code, and the k-th position filed under each target key paired
    with the k-th source of that key."""
    stride = n + 1
    codes, source_keys, targets = [], [], {}
    for parts in partitions_of(n):
        for (row, col), stats in cells(parts):
            targets.setdefault(stats.arm * stride + stats.leg, []).append(len(codes))
            codes.append((row - 1) * n + col - 1)
            source_keys.append(stats.arm * stride + stats.left)
    iters = {key: iter(group) for key, group in targets.items()}
    return codes, [next(iters[key]) for key in source_keys]


@pytest.mark.parametrize("n", range(26))
def test_table_matches_per_cell_build(n):
    table = explorer.matching_table(n)
    assert table.n == n
    assert (list(table.cell), list(table.target)) == per_cell_table(n)


def test_table_reads_runs_only(monkeypatch):
    def forbidden(*args):
        raise AssertionError("matching_table took the tuple view")

    for module in (explorer, partitions):
        monkeypatch.setattr(module, "partitions_of", forbidden)
        monkeypatch.setattr(module, "cells", forbidden)
    table = explorer.matching_table(12)
    assert len(table.cell) == len(table.target) == 12 * count_partitions(12)


@pytest.mark.parametrize("n", range(11))
def test_deterministic(n):
    assert canonical_matching(n) == canonical_matching(n)


@pytest.mark.parametrize("n", range(11))
def test_every_cell_used_once_per_side(n):
    matching = canonical_matching(n)
    universe = sorted(
        CellRef(index, row, col)
        for index, parts in enumerate(partitions_of(n))
        for (row, col), _ in cells(parts)
    )
    assert all(type(src) is CellRef and type(dst) is CellRef for src, dst in matching.pairs)
    assert sorted(src for src, _ in matching.pairs) == universe
    assert sorted(dst for _, dst in matching.pairs) == universe
    assert len(matching.pairs) == len(universe)


@pytest.mark.parametrize("n", range(11))
def test_key_multisets_match_the_fillings(n):
    matching = canonical_matching(n)
    stats = {}
    for index, parts in enumerate(partitions_of(n)):
        for (row, col), cs in cells(parts):
            stats[CellRef(index, row, col)] = cs
    src_keys = {}
    dst_keys = {}
    for src, dst in matching.pairs:
        s = stats[src]
        t = stats[dst]
        src_keys[(s.arm, s.left)] = src_keys.get((s.arm, s.left), 0) + 1
        dst_keys[(t.arm, t.leg)] = dst_keys.get((t.arm, t.leg), 0) + 1
    assert src_keys == dict(build_pair_multiset(n, "arm-left").counts)
    assert dst_keys == dict(build_pair_multiset(n, "arm-leg").counts)


def test_key_preserving_swap_still_valid():
    # swapping two targets that share a key keeps the matching valid:
    # targets (0,1,2) and (1,2,1) both carry the (arm, leg) key (0, 0)
    base = canonical_matching(2)
    pairs = list(base.pairs)
    swapped = pairs[:]
    swapped[2] = (pairs[2][0], pairs[3][1])
    swapped[3] = (pairs[3][0], pairs[2][1])
    report = verify_matching(Matching(n=2, pairs=tuple(swapped)))
    assert report.passed, report


def test_cross_key_pairing_fails():
    # pairing a (0,1)-source with a (1,0)-target breaks transport
    base = canonical_matching(2)
    pairs = list(base.pairs)
    # pairs[0] source (0,1,1) has key (1,0); pairs[1] source (0,1,2) has key (0,1)
    broken = pairs[:]
    broken[0] = (pairs[0][0], pairs[1][1])
    broken[1] = (pairs[1][0], pairs[0][1])
    report = verify_matching(Matching(n=2, pairs=tuple(broken)))
    assert not report.passed
    assert report.first_discrepancy is not None


def test_duplicate_target_detected():
    base = canonical_matching(2)
    pairs = list(base.pairs)
    pairs[0] = (pairs[0][0], pairs[1][1])  # reuse a target, drop another
    report = verify_matching(Matching(n=2, pairs=tuple(pairs)))
    assert not report.passed


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        canonical_matching(-1)


# --- cyclic GC paused while the canonical matching is built -----------------


@pytest.fixture
def collections_inside():
    """One entry per collection that started while canonical_matching was
    running.  Judged by the stack, so the one collection that may follow
    its return does not count."""
    inside = []

    def record(phase, info):
        frame = sys._getframe().f_back
        while phase == "start" and frame is not None:
            if frame.f_code is canonical_matching.__code__:
                inside.append(frame.f_code.co_name)
                break
            frame = frame.f_back

    gc.callbacks.append(record)
    yield inside
    gc.callbacks.remove(record)


@pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
def gc_state(request):
    """Start the test with the collector on or off; restore it after."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


def test_build_and_verify_run_no_collection(collections_inside):
    assert gc.isenabled()  # else the test shows nothing
    assert len(canonical_matching(30).pairs) == 30 * count_partitions(30)
    assert collections_inside == []


def test_gc_state_restored(gc_state):
    canonical_matching(6)
    assert gc.isenabled() is gc_state


@pytest.mark.parametrize("fault", [_violating_heights], ids=["canonical_matching"])
def test_gc_state_restored_when_raising(gc_state, monkeypatch, fault):
    monkeypatch.setattr(explorer, "_column_heights", fault)
    with pytest.raises(IdentityViolation):
        canonical_matching(3)
    assert gc.isenabled() is gc_state
