"""Layer probes: time calls of hookpart's public functions, one probe per interpreter.

Usage: python3 perfbench/probe.py NAME PARAMS_JSON   (with ``src`` on PYTHONPATH)

Prints one JSON line ``{"spans": [...], "values": {...}}``.  A probe also
checks the program's results against values the benchmark derives
itself, and exits non-zero with the reason on stderr when one is wrong.
Each probe starts in a fresh interpreter, so every cache in the program
starts cold and the benchmark never has to name or clear one.
"""

from __future__ import annotations

import gc
import json
import random
import sys
import time

from spans import Tracer

REPEATS = 9  # calls per timed kernel whose single call is only milliseconds


class ProbeFailure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise ProbeFailure(message)


def partition_counts(n: int) -> list[int]:
    """p(0..n) by the largest-part recurrence."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways


def corner_count(c: int, d: int, n_max: int) -> int:
    """Corners (i, j) of a marked (c, d)-hook whose smallest diagram weighs <= n_max."""
    base = c + d + 1
    return sum(
        1
        for i in range(n_max + 1)
        for j in range(n_max + 1)
        if base + i * j + i * (c + 1) + j * (d + 1) <= n_max
    )


def pentagonal(order: int) -> list[int]:
    """Coefficients of (q)_inf from Euler's pentagonal number theorem."""
    coeffs = [0] * (order + 1)
    k = 0
    while k * (3 * k - 1) // 2 <= order:
        for e in {k * (3 * k - 1) // 2, k * (3 * k + 1) // 2}:
            if e <= order:
                coeffs[e] = -1 if k % 2 else 1
        k += 1
    return coeffs


def probe_import(t: Tracer, p: dict) -> dict:
    with t.span("cli.import"):
        import hookpart.cli  # noqa: F401
    return {}


def probe_partitions(t: Tracer, p: dict) -> dict:
    from hookpart import partitions

    count = 0
    with t.span("partitions.partitions_of"):
        for n in range(p["n_max"] + 1):
            count += sum(1 for _ in partitions.partitions_of(n))
    expect(count == sum(partition_counts(p["n_max"])), f"enumerated {count} partitions")
    all_parts = list(partitions.partitions_of(p["cells_n"]))
    cells = 0
    with t.span("partitions.cells"):
        for parts in all_parts:
            cells += sum(1 for _ in partitions.cells(parts))
    want = p["cells_n"] * partition_counts(p["cells_n"])[-1]
    expect(cells == want, f"cells gave {cells} cells, want {want}")
    return {}


def probe_pair_multiset(t: Tracer, p: dict) -> dict:
    from hookpart import statistics

    with t.span("statistics.build_pair_multiset"):
        totals = [statistics.build_pair_multiset(n, "arm-leg").total for n in range(p["n_max"] + 1)]
    counts = partition_counts(p["n_max"])
    expect(totals == [n * counts[n] for n in range(p["n_max"] + 1)], "pair multiset totals")
    return {}


def probe_stat_polynomial(t: Tracer, p: dict) -> dict:
    from hookpart import statistics

    with t.span("statistics.stat_polynomial"):
        polys = [statistics.stat_polynomial(n, "hook") for n in range(p["n_max"] + 1)]
    counts = partition_counts(p["n_max"])
    totals = [sum(poly.values()) for poly in polys]
    expect(totals == [n * counts[n] for n in range(p["n_max"] + 1)], "hook polynomial totals")
    return {}


def probe_theorem1(t: Tracer, p: dict) -> dict:
    from hookpart import statistics

    with t.span("statistics.verify_theorem1"):
        reports = [statistics.verify_theorem1(n) for n in range(p["n_max"] + 1)]
    expect(all(r.passed for r in reports), "theorem1 reported FAIL")
    return {}


def probe_identity1(t: Tracer, p: dict) -> dict:
    from hookpart import statistics

    with t.span("statistics.verify_identity1"):
        reports = [statistics.verify_identity1(n) for n in range(p["n_max"] + 1)]
    expect(all(r.passed for r in reports), "identity1 reported FAIL")
    return {}


def probe_lemma(t: Tracer, p: dict) -> dict:
    from hookpart import statistics

    with t.span("statistics.verify_lemma"):
        report = statistics.verify_lemma(p["c"], p["d"], "arm-left", p["n_max"], p["order"])
    expect(report.passed, "lemma reported FAIL")
    return {}


def probe_qseries_ops(t: Tracer, p: dict) -> dict:
    from hookpart import qseries

    order = p["order"]
    rng = random.Random(p["seed"])
    a = qseries.QSeries([1] + [rng.randint(1, 9) for _ in range(order)])
    b = qseries.QSeries([1] + [rng.randint(1, 9) for _ in range(order)])
    for _ in range(REPEATS):
        with t.span("qseries.mul"):
            product = a * b
    for _ in range(REPEATS):
        with t.span("qseries.invert"):
            inverse = b.invert()
    with t.span("qseries.q_pochhammer"):
        euler = qseries.q_pochhammer(1, None, order)
    expect(product * inverse == a, "a * b / b != a")
    expect(list(euler.coeffs) == pentagonal(order), "(q)_inf differs from the pentagonal series")
    return {}


def probe_euler_inv(t: Tracer, p: dict) -> dict:
    from hookpart import qseries

    with t.span("qseries.euler_inv"):
        series = qseries.euler_inv(p["order"])
    expect(list(series.coeffs) == partition_counts(p["order"]), "euler_inv differs from p(n)")
    return {}


def probe_lemma_rhs(t: Tracer, p: dict) -> dict:
    from hookpart import qseries

    order, step = p["order"], p["c"] + p["d"] + 1
    with t.span("qseries.lemma_rhs"):
        series = qseries.lemma_rhs(p["c"], p["d"], order)
    counts = partition_counts(order)
    want = [sum(counts[n - k] for k in range(step, n + 1, step)) for n in range(order + 1)]
    expect(list(series.coeffs) == want, "lemma_rhs differs from sum_k p(n - k(c+d+1))")
    return {}


def probe_fact2(t: Tracer, p: dict) -> dict:
    from hookpart import qseries

    with t.span("qseries.verify_fact2"):
        report = qseries.verify_fact2(p["k"], p["order"])
    expect(report.passed, "fact2 reported FAIL")
    return {}


def probe_proof_chain(t: Tracer, p: dict) -> dict:
    from hookpart import anatomy

    with t.span("anatomy.proof_chain"):
        report = anatomy.proof_chain(p["c"], p["d"], p["order"])
    expect(report.passed, "proof_chain reported FAIL")
    return {}


def probe_verify_anatomy(t: Tracer, p: dict) -> dict:
    from hookpart import anatomy

    t.wrap(anatomy, "anatomy_gf")
    with t.span("anatomy.verify_anatomy"):
        report = anatomy.verify_anatomy(p["c"], p["d"], p["n_max"], p["n_max"])
    expect(report.passed, "verify_anatomy reported FAIL")
    placed = sum(1 for s in t.spans if s["name"] == "anatomy.anatomy_gf")
    want = corner_count(p["c"], p["d"], p["n_max"])
    expect(placed == want, f"anatomy_gf ran for {placed} corners, want {want}")
    return {}


def probe_explorer(t: Tracer, p: dict) -> dict:
    from hookpart import explorer

    pauses = []
    began = [0.0]

    def on_gc(phase: str, info: dict) -> None:
        if phase == "start":
            began[0] = time.perf_counter()
        else:
            pauses.append(time.perf_counter() - began[0])

    gc.callbacks.append(on_gc)
    try:
        with t.span("explorer.canonical_matching"):
            matching = explorer.canonical_matching(p["n"])
    finally:
        gc.callbacks.remove(on_gc)
    want = p["n"] * partition_counts(p["n"])[-1]
    expect(len(matching.pairs) == want, f"{len(matching.pairs)} pairs, want {want}")
    return {"gc_s": sum(pauses)}


def probe_cli(t: Tracer, p: dict) -> dict:
    """``cli.run`` on one argument list; its output goes to the --out file in it."""
    import importlib

    from hookpart import cli

    for module, name in p.get("wrap", []):
        t.wrap(importlib.import_module(f"hookpart.{module}"), name)
    with t.span("cli.run"):
        code = cli.run(p["argv"])
    expect(code == 0, f"cli.run returned {code}")
    return {}


PROBES = {name[len("probe_"):]: fn for name, fn in globals().items() if name.startswith("probe_")}


def main() -> int:
    name, params = sys.argv[1], json.loads(sys.argv[2])
    tracer = Tracer()
    try:
        values = PROBES[name](tracer, params)
    except ProbeFailure as exc:
        print(f"probe {name}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"spans": tracer.spans, "values": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
