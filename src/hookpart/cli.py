"""Command-line surface: every verifier and generator, machine-readable.

Exit codes: 0 all checks passed (or output produced), 1 a verification
failed (the discrepancy is printed), 2 usage error (every argument is
checked before any work starts, including that --out names a file in an
existing, writable directory), 3 internal error (an exception inside a
verifier; one line on stderr, no traceback), 141 stdout closed by its
reader before the output was all written (128 + SIGPIPE, as a shell
reports a writer that SIGPIPE ends; nothing more is printed).
Results go to stdout (or --out PATH); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import sys
from itertools import chain, repeat
from operator import floordiv, itemgetter
from typing import Any, Iterable, Iterator, Optional, Sequence

from hookpart import anatomy, explorer, qseries, statistics
from hookpart.reports import VerifyReport

INTERNAL_ERROR = 3

# the flags each `verify fact --id` needs, in the order its verifier takes them
FACT_ARGS = {1: ("a", "k", "trunc"), 2: ("k", "trunc"), 3: ("m", "n"), 4: ("m", "trunc")}

# fact 4 enumerates every partition of every n <= --trunc, about 2.4x the
# cost per +5: order 60 (m = 5) takes 4.1-8.1 s, median 5.8 s over eleven
# runs, on one 2-core host, order 100 hours
FACT4_MAX_ORDER = 60

# fact 3 enumerates all C(m+n, m) partitions in the m-by-n box and builds
# Gaussian binomials and, in about (m+n)*m*n steps, the quotient (q)_{m+n} /
# ((q)_m (q)_n) at order m*n; at the limits the boxes 11x11, 3x179, 179x3,
# 2x1000, 1000x2, 2000x1 and 1x2000 take 0.3-0.7 s in fresh processes on one
# 2-core host (the brute walk takes the shorter side as rows), while in
# process 12x12 took 1.5 s and 20000x1 32 s.  A side is bounded too, as an
# input check, though an empty box costs O(1)
FACT3_MAX_BOX_PARTITIONS = 10**6
FACT3_MAX_AREA = 2000

# `series gauss` builds its Gaussian binomial at order m*n by default, about
# 2 * min(m, n) * m*n steps: at the limit, in fresh processes on one 2-core
# host, 100x100 takes 0.19-0.23 s, and 1x10000, 10000x1 and 2x5000 each
# 0.07-0.12 s.  Each side is bounded too, as for fact 3, as an input check.
# --trunc is bounded by the same limit, the highest order the default m*n
# reaches: past m*n every coefficient is 0
GAUSS_MAX_AREA = 10**4

# the chain's stages 0 and 1 hold most of its cost; in a sweep of c, d over
# 0-600 at order 1000, and of the splits next to c = d = 0 at the limit,
# c = 0 with d <= 1 are the slowest: 7.4-8.9 s at the limit on one 2-core
# host, 9.0-10.1 s at 2400
CHAIN_MAX_ORDER = 2200

# `series euler-inv`, `series lemma-rhs` and `verify fact --id 2` cost about
# the square of --trunc; at the limit, on one 2-core host, they take 2.4 s,
# 5.4 s (c = d = 0, the densest split) and 5.8 s (k = 1, the most terms).
# `verify fact --id 1` costs about trunc^2 / k whatever --a is (factors
# (1 - q^e) with e > trunc are 1): at k = 1 the slowest --a, 130-180, where
# (q)_{a+1} is dense up to the order, take 4.0-5.0 s (fact 2: 3.4-3.6 s in
# the same runs)
SERIES_MAX_ORDER = 6000

# theorem1, identity1, lemma and multiset tally the cells of every
# n <= --n-max (or --n) by a recursion that walks no partition; anatomy
# enumerates every partition of every n <= --n-max, about 6x the cost per
# +10.  At the limit, in fresh processes on one 2-core host, four runs
# each, about 0.07-0.1 s of it interpreter start: the slowest, `verify
# anatomy --c 0 --d 0`, takes 1.2 s, `lemma` 0.09-0.11 s (either stat),
# theorem1 and identity1 0.09-0.10 s in every format, and `multiset`
# 0.08-0.09 s (either stat)
ENUM_MAX_N = 45

# `match` holds two ints for each of the n * p(n) cells of --n and writes
# a row for each: at the limit, in fresh processes on one 2-core host,
# four runs each, csv, json and text each take 0.85-0.94 s with a peak
# RSS of 38.0-38.3 MB (0.14-0.18 s and 17.5-17.7 MB at n = 30)
MATCH_MAX_N = 40

# (command, flag) -> the flag's largest value, for every bound on one flag;
# `_check_args` checks them after the compound bounds, which it reports first
_BOUNDS = {
    ("euler-inv", "trunc"): SERIES_MAX_ORDER,
    ("gauss", "trunc"): GAUSS_MAX_AREA,
    ("lemma-rhs", "trunc"): SERIES_MAX_ORDER,
    ("multiset", "n"): ENUM_MAX_N,
    ("match", "n"): MATCH_MAX_N,
    ("fact 1", "trunc"): SERIES_MAX_ORDER,
    ("fact 2", "trunc"): SERIES_MAX_ORDER,
    ("fact 4", "trunc"): FACT4_MAX_ORDER,
    ("chain", "trunc"): CHAIN_MAX_ORDER,
    # every --n-max is an enumeration range
    **{(check, "n-max"): ENUM_MAX_N for check in ("theorem1", "identity1", "lemma", "anatomy")},
}


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format (default: text)",
    )
    common.add_argument("--out", metavar="PATH", help="write results to PATH instead of stdout")
    common.add_argument(
        "--jobs",
        type=_positive,
        default=1,
        help="no longer changes anything: every command runs in one process (must be >= 1)",
    )

    parser = argparse.ArgumentParser(
        prog="hookpart",
        description="Verify cell-statistic identities on integer partitions "
        "and emit the underlying series, multisets, and matchings.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    verify = top.add_parser("verify", help="run an identity check")
    checks = verify.add_subparsers(dest="check", required=True)

    p = checks.add_parser("theorem1", parents=[common], help="arm-leg vs arm-left multisets")
    p.add_argument("--n-max", type=_nonneg, required=True)

    p = checks.add_parser("identity1", parents=[common], help="hook vs part polynomials")
    p.add_argument("--n-max", type=_nonneg, required=True)

    p = checks.add_parser("lemma", parents=[common], help="pair counts vs closed-form series")
    p.add_argument("--stat", choices=statistics.PAIR_STATS, required=True)
    p.add_argument("--c", type=_nonneg, required=True)
    p.add_argument("--d", type=_nonneg, required=True)
    p.add_argument("--n-max", type=_nonneg, required=True)
    p.add_argument(
        "--trunc",
        type=_nonneg,
        required=True,
        help="series order; must be at least --n-max (series are built to --n-max)",
    )

    p = checks.add_parser("fact", parents=[common], help="one of the classical series facts")
    p.add_argument("--id", dest="fact_id", type=int, choices=(1, 2, 3, 4), required=True)
    p.add_argument("--a", type=_nonneg)
    p.add_argument("--k", type=_positive)
    p.add_argument("--m", type=_nonneg)
    p.add_argument("--n", type=_nonneg)
    p.add_argument("--trunc", type=_nonneg)

    p = checks.add_parser("anatomy", parents=[common], help="marked-hook decomposition vs brute")
    p.add_argument("--c", type=_nonneg, required=True)
    p.add_argument("--d", type=_nonneg, required=True)
    p.add_argument("--n-max", type=_nonneg, required=True)
    p.add_argument(
        "--trunc",
        type=_nonneg,
        required=True,
        help="series order; must be at least --n-max (series are built to --n-max)",
    )

    p = checks.add_parser("chain", parents=[common], help="five-stage derivation chain")
    p.add_argument("--c", type=_nonneg, required=True)
    p.add_argument("--d", type=_nonneg, required=True)
    p.add_argument("--trunc", type=_nonneg, required=True)

    series = top.add_parser("series", help="print series coefficients")
    kinds = series.add_subparsers(dest="kind", required=True)

    p = kinds.add_parser("euler-inv", parents=[common], help="partition-count series")
    p.add_argument("--trunc", type=_nonneg, required=True)

    p = kinds.add_parser("gauss", parents=[common], help="Gaussian binomial for an m-by-n box")
    p.add_argument("--m", type=_nonneg, required=True)
    p.add_argument("--n", type=_nonneg, required=True)
    p.add_argument("--trunc", type=_nonneg, help="series order (default: m*n)")

    p = kinds.add_parser("lemma-rhs", parents=[common], help="closed-form pair-count series")
    p.add_argument("--c", type=_nonneg, required=True)
    p.add_argument("--d", type=_nonneg, required=True)
    p.add_argument("--trunc", type=_nonneg, required=True)

    p = top.add_parser("multiset", parents=[common], help="pair counts over all cells of n")
    p.add_argument("--n", type=_nonneg, required=True)
    p.add_argument("--stat", choices=statistics.PAIR_STATS, required=True)

    p = top.add_parser("match", parents=[common], help="canonical cell matching for n")
    p.add_argument("--n", type=_nonneg, required=True)

    return parser


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _report_doc(report: VerifyReport) -> dict[str, Any]:
    """A report as a JSON object; its discrepancy, a tuple, becomes an object too."""
    disc = report.first_discrepancy
    return {
        "context": report.context,
        "passed": report.passed,
        "first_discrepancy": None if disc is None else disc._asdict(),
    }


def _render_reports(
    reports: Sequence[VerifyReport], fmt: str, extras: Optional[dict[str, list[int]]] = None
) -> tuple[str, int]:
    failed = [r for r in reports if not r.passed]
    code = 1 if failed else 0
    if fmt == "json":
        import json

        doc: dict[str, Any] = {
            "passed": not failed,
            "reports": [_report_doc(r) for r in reports],
        }
        if extras:
            doc.update(extras)
        return json.dumps(doc, indent=2, sort_keys=True), code
    if fmt == "csv":
        import csv

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["context", "passed", "where", "expected", "actual"])
        for r in reports:
            disc = r.first_discrepancy
            row = [r.context, str(r.passed).lower()]
            row += ["", "", ""] if disc is None else [
                repr(disc.where),
                repr(disc.expected),
                repr(disc.actual),
            ]
            writer.writerow(row)
        return buffer.getvalue().rstrip("\n"), code
    lines = []
    for r in reports:
        if r.passed:
            lines.append(f"PASS {r.context}")
        else:
            disc = r.first_discrepancy
            lines.append(
                f"FAIL {r.context} at {disc.where}: expected {disc.expected}, got {disc.actual}"
            )
    if extras:
        for key, value in extras.items():
            lines.append(f"{key}: " + " ".join(str(v) for v in value))
    lines.append(
        f"ok ({len(reports)} checks)" if not failed else f"FAILED ({len(failed)} of {len(reports)} checks)"
    )
    return "\n".join(lines), code


def _render_table(header: str, rows: Iterable[Sequence[int]], doc: dict[str, Any], fmt: str) -> str:
    """An integer table: csv rows under the header, text rows joined by a
    space, or json ``doc`` alone, which holds the rows itself."""
    if fmt == "json":
        import json

        return json.dumps(doc, sort_keys=True)
    sep = "," if fmt == "csv" else " "
    lines = [header] if fmt == "csv" else []
    lines.extend(sep.join(map(str, row)) for row in rows)
    return "\n".join(lines)


def _render_matching(table: explorer.MatchingTable, fmt: str) -> Iterator[str]:
    """The matching's text in pieces of whole partitions, 4096 // n of them
    and so at most 4096 rows, so only one piece's strs are alive at once.

    Each row is six slots of one list: two cached strs per end, the
    partition index (one str per partition of n) and the (row, col) in its
    diagram (one str per code in the cell column, n * n), with the mid
    str between the ends and the row separator after them.  Each column
    of a piece is gathered at C level, by ``itemgetter`` or by repeating
    each source partition's str n times, and written by one stepped slice
    assignment; the piece is then one ``"".join``: no Python call per row.
    """
    n, cell, target = table
    if fmt == "json":
        # every value is an int, so this is json.dumps(..., sort_keys=True) text
        part_fmt, place_fmt, sep = "[%d, ", "%d, %d]", ", "
        head, mid, tail = '{"dst": ', ', "src": ', "}"
        yield f'{{"n": {n}, "pairs": ['
    elif fmt == "csv":
        part_fmt, place_fmt, sep = "%d,", "%d,%d", "\n"
        head, mid, tail = "", ",", ""
        yield "src_partition,src_row,src_col,dst_partition,dst_row,dst_col"
    else:
        part_fmt, place_fmt, sep = "(%d,", "%d,%d)", "\n"
        head, mid, tail = "", " -> ", ""
    if not n:
        if fmt == "json":
            yield "]}"
        return
    parts = [part_fmt % index for index in range(len(cell) // n)]
    places = [place_fmt % (row, col) for row in range(1, n + 1) for col in range(1, n + 1)]
    step = 4096 // n
    template = [None, None, mid, None, None, tail + sep + head] * (step * n)
    for first in range(0, len(parts), step):
        lo, hi = first * n, min(first + step, len(parts)) * n
        if first or fmt == "csv":
            yield sep
        yield head
        src_parts = chain.from_iterable(map(repeat, parts[first : first + step], repeat(n)))
        dst = target[lo:hi]
        if len(dst) > 1:
            src_places = itemgetter(*cell[lo:hi])(places)
            dst_parts = itemgetter(*map(floordiv, dst, repeat(n)))(parts)
            dst_places = itemgetter(*itemgetter(*dst)(cell))(places)
        else:
            # the one-cell table of n = 1: itemgetter of one index returns
            # the bare item, not a 1-tuple
            src_places = [places[cell[lo]]]
            dst_parts, dst_places = [parts[dst[0] // n]], [places[cell[dst[0]]]]
        piece = template[: 6 * (hi - lo)]
        piece[-1] = tail
        ends = (dst_parts, dst_places, src_parts, src_places)
        if fmt != "json":
            ends = ends[2:] + ends[:2]
        piece[0::6], piece[1::6], piece[3::6], piece[4::6] = ends
        yield "".join(piece)
    if fmt == "json":
        yield "]}"


def _emit(pieces: Iterable[str], out_path: Optional[str]) -> None:
    """Write the pieces, then a newline, to out_path or to stdout, one
    piece at a time."""
    target = open(out_path, "w", encoding="utf-8") if out_path else contextlib.nullcontext(sys.stdout)
    with target as handle:
        handle.writelines(pieces)
        handle.write("\n")
        # inside the command, so a closed stdout is reported by ``run``, not
        # by the interpreter's flush at exit
        handle.flush()


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    extras: Optional[dict[str, list[int]]] = None
    if args.check == "theorem1":
        reports = [statistics.verify_theorem1(n) for n in range(args.n_max + 1)]
    elif args.check == "identity1":
        reports = [statistics.verify_identity1(n) for n in range(args.n_max + 1)]
    elif args.check == "lemma":
        # read once and passed in: the recursion caches only its latest n
        c, d, stat, n_max = args.c, args.d, args.stat, args.n_max
        counts = [statistics.count_pair(n, c, d, stat) for n in range(n_max + 1)]
        reports = [statistics.verify_lemma(c, d, stat, n_max, args.trunc, counts)]
        extras = {"counts": counts}
    elif args.check == "fact":
        reports = [_dispatch_fact(args)]
    elif args.check == "anatomy":
        reports = [anatomy.verify_anatomy(args.c, args.d, args.n_max, args.trunc)]
    else:  # chain
        reports = [anatomy.proof_chain(args.c, args.d, args.trunc)]
    text, code = _render_reports(reports, args.format, extras)
    _emit((text,), args.out)
    return code


def _dispatch_fact(args: argparse.Namespace) -> VerifyReport:
    verifier = {
        1: qseries.verify_fact1,
        2: qseries.verify_fact2,
        3: statistics.verify_fact3,
        4: statistics.verify_fact4,
    }[args.fact_id]
    return verifier(*(getattr(args, name) for name in FACT_ARGS[args.fact_id]))


def _cmd_series(args: argparse.Namespace) -> int:
    if args.kind == "euler-inv":
        series = qseries.euler_inv(args.trunc)
        label = "euler-inv"
    elif args.kind == "gauss":
        order = args.trunc if args.trunc is not None else args.m * args.n
        series = qseries.gauss_binomial(args.m, args.n, order)
        label = f"gauss(m={args.m}, n={args.n})"
    else:
        series = qseries.lemma_rhs(args.c, args.d, args.trunc)
        label = f"lemma-rhs(c={args.c}, d={args.d})"
    doc = {"kind": label, "order": series.order, "coefficients": list(series.coeffs)}
    table = _render_table("exponent,coefficient", enumerate(series.coeffs), doc, args.format)
    _emit((table,), args.out)
    return 0


def _cmd_multiset(args: argparse.Namespace) -> int:
    pm = statistics.build_pair_multiset(args.n, args.stat)
    rows = [(c, d, count) for (c, d), count in sorted(pm.counts.items())]
    doc = {"n": args.n, "stat": args.stat, "total": pm.total, "pairs": rows}
    _emit((_render_table("c,d,count", rows, doc, args.format),), args.out)
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    table = explorer.matching_table(args.n)
    _emit(_render_matching(table, args.format), args.out)
    return 0


def _check_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Cross-flag checks argparse cannot express; a failure exits 2."""
    if args.out:
        directory = os.path.dirname(args.out) or "."
        if os.path.isdir(args.out):
            parser.error(f"--out: {args.out!r} is a directory, not a file")
        if not os.path.isdir(directory):
            parser.error(f"--out: directory {directory!r} does not exist")
        if not os.access(directory, os.W_OK):
            parser.error(f"--out: directory {directory!r} is not writable")
    # the command as its messages name it: the series kind, the check, "fact <id>"
    label = getattr(args, "kind", None) or getattr(args, "check", None) or args.command
    if label == "fact":
        label = f"fact {args.fact_id}"
        taken = FACT_ARGS[args.fact_id]
        missing = ", ".join("--" + name for name in taken if getattr(args, name) is None)
        if missing:
            parser.error(f"{label} requires {missing}")
        # another fact's flag would go unread, so it is refused
        other = sorted(set().union(*FACT_ARGS.values()) - set(taken))
        unread = ", ".join("--" + name for name in other if getattr(args, name) is not None)
        if unread:
            parser.error(f"{label} does not take {unread}")
    area_cap = {"gauss": GAUSS_MAX_AREA, "fact 3": FACT3_MAX_AREA}.get(label)
    if area_cap is not None and max(args.m, args.n, args.m * args.n) > area_cap:
        parser.error(
            f"{label}: --m ({args.m}), --n ({args.n}) and their product must not exceed {area_cap}"
        )
    if label == "fact 3" and math.comb(args.m + args.n, args.m) > FACT3_MAX_BOX_PARTITIONS:
        parser.error(
            f"fact 3: the {args.m}x{args.n} box holds C({args.m + args.n}, {args.m}) "
            f"partitions, more than {FACT3_MAX_BOX_PARTITIONS}"
        )
    if label in ("lemma", "anatomy") and args.n_max > args.trunc:
        parser.error(f"n_max ({args.n_max}) must not exceed the series order ({args.trunc})")
    for (command, flag), cap in _BOUNDS.items():
        value = getattr(args, flag.replace("-", "_"), None)
        if command == label and value is not None and value > cap:
            parser.error(f"{label}: --{flag} ({value}) must not exceed {cap}")


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv, execute one subcommand, and return the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_args(parser, args)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "series":
            return _cmd_series(args)
        if args.command == "multiset":
            return _cmd_multiset(args)
        return _cmd_match(args)
    except explorer.IdentityViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader is gone; stdout points at the null device from here on,
        # so the interpreter's final flush does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except Exception as exc:  # arguments are valid by now, so this is a bug
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
