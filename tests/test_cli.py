import csv
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import hookpart
from hookpart import anatomy, cli, explorer, statistics
from hookpart.cli import run
from hookpart.explorer import IdentityViolation, canonical_matching
from hookpart.qseries import euler_inv
from hookpart.statistics import build_pair_multiset


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- exit codes -------------------------------------------------------------


def test_theorem1_passes(capsys):
    code, out, _ = invoke(capsys, "verify", "theorem1", "--n-max", "8", "--jobs", "1")
    assert code == 0
    assert out.count("PASS") == 9
    assert out.strip().endswith("ok (9 checks)")


def test_identity1_passes(capsys):
    code, out, _ = invoke(capsys, "verify", "identity1", "--n-max", "8", "--jobs", "1")
    assert code == 0


def test_lemma_shows_counts(capsys):
    code, out, _ = invoke(
        capsys,
        *"verify lemma --stat arm-left --c 0 --d 0 --n-max 3 --trunc 10".split(),
    )
    assert code == 0
    assert "counts: 0 1 2 4" in out


def test_lemma_range_usage_error(capsys):
    code, out, err = invoke(
        capsys, *"verify lemma --stat arm-leg --c 2 --d 2 --n-max 50 --trunc 40".split()
    )
    assert code == 2
    assert "n_max" in err


def test_fact_dispatch(capsys):
    assert invoke(capsys, *"verify fact --id 1 --a 2 --k 1 --trunc 12".split())[0] == 0
    assert invoke(capsys, *"verify fact --id 2 --k 2 --trunc 10".split())[0] == 0
    assert invoke(capsys, *"verify fact --id 3 --m 2 --n 2".split())[0] == 0
    assert invoke(capsys, *"verify fact --id 3 --m 1200 --n 1".split())[0] == 0
    assert invoke(capsys, *"verify fact --id 4 --m 2 --trunc 10".split())[0] == 0


def test_fact_missing_flags_is_usage_error(capsys):
    code, _, err = invoke(capsys, *"verify fact --id 1 --k 1 --trunc 12".split())
    assert code == 2
    assert "--a" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        ("--id 3 --m 2 --n 2 --trunc 5", "fact 3 does not take --trunc"),
        ("--id 2 --k 1 --trunc 10 --a 5 --m 7", "fact 2 does not take --a, --m"),
        ("--id 4 --m 2 --trunc 10 --k 3", "fact 4 does not take --k"),
        ("--id 1 --a 1 --k 1 --trunc 5 --n 4", "fact 1 does not take --n"),
    ],
)
def test_fact_flag_it_does_not_take_is_usage_error(capsys, argv, message):
    code, out, err = invoke(capsys, "verify", "fact", *argv.split())
    assert code == 2 and out == ""
    assert err == (
        "usage: hookpart [-h] {verify,series,multiset,match} ...\n"
        f"hookpart: error: {message}\n"
    )


def test_fact4_order_above_cap_is_usage_error(capsys):
    argv = ["verify", "fact", "--id", "4", "--m", "2", "--trunc", str(cli.FACT4_MAX_ORDER + 1)]
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert f"must not exceed {cli.FACT4_MAX_ORDER}" in err


def test_chain_order_above_cap_is_usage_error(capsys):
    argv = ["verify", "chain", "--c", "0", "--d", "0", "--trunc", str(cli.CHAIN_MAX_ORDER + 1)]
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert f"must not exceed {cli.CHAIN_MAX_ORDER}" in err


@pytest.mark.parametrize(
    "argv, cap",
    [
        ("series euler-inv --trunc {}", cli.SERIES_MAX_ORDER),
        ("series lemma-rhs --c 0 --d 0 --trunc {}", cli.SERIES_MAX_ORDER),
        ("verify fact --id 2 --k 1 --trunc {}", cli.SERIES_MAX_ORDER),
        ("verify fact --id 1 --a 2 --k 1 --trunc {}", cli.SERIES_MAX_ORDER),
    ],
)
def test_series_and_fact1_caps_are_usage_errors(capsys, argv, cap):
    code, out, err = invoke(capsys, *argv.format(cap + 1).split())
    assert code == 2 and out == ""
    assert f"must not exceed {cap}" in err


def test_fact1_a_is_unbounded(capsys):
    # factors (1 - q^e) with e above --trunc are 1, so a large --a costs no more
    code, out, _ = invoke(capsys, *"verify fact --id 1 --a 100000 --k 1 --trunc 50".split())
    assert code == 0
    assert out.startswith("PASS fact1(a=100000, k=1, order=50)")


@pytest.mark.parametrize(
    "m, n",
    [
        (1, cli.FACT3_MAX_AREA + 1),  # the product
        (cli.FACT3_MAX_AREA + 1, 0),  # a side, with an empty box
    ],
)
def test_fact3_area_above_cap_is_usage_error(capsys, m, n):
    code, out, err = invoke(capsys, "verify", "fact", "--id", "3", "--m", str(m), "--n", str(n))
    assert code == 2 and out == ""
    assert err == (
        "usage: hookpart [-h] {verify,series,multiset,match} ...\n"
        f"hookpart: error: fact 3: --m ({m}), --n ({n}) and their product "
        f"must not exceed {cli.FACT3_MAX_AREA}\n"
    )


@pytest.mark.parametrize(
    "m, n",
    [
        (1, cli.GAUSS_MAX_AREA + 1),  # the product
        (cli.GAUSS_MAX_AREA + 1, 0),  # a side, with an empty box
        (0, 2_000_000),
    ],
)
def test_gauss_area_above_cap_is_usage_error(capsys, m, n):
    code, out, err = invoke(capsys, "series", "gauss", "--m", str(m), "--n", str(n), "--trunc", "0")
    assert code == 2 and out == ""
    assert err == (
        "usage: hookpart [-h] {verify,series,multiset,match} ...\n"
        f"hookpart: error: gauss: --m ({m}), --n ({n}) and their product "
        f"must not exceed {cli.GAUSS_MAX_AREA}\n"
    )


@pytest.mark.parametrize(
    "argv, handler, cap",
    [
        ("verify theorem1 --n-max {}", "_cmd_verify", cli.ENUM_MAX_N),
        ("verify identity1 --n-max {}", "_cmd_verify", cli.ENUM_MAX_N),
        ("verify lemma --stat arm-leg --c 0 --d 0 --n-max {} --trunc 100", "_cmd_verify", cli.ENUM_MAX_N),
        ("verify anatomy --c 0 --d 0 --n-max {} --trunc 100", "_cmd_verify", cli.ENUM_MAX_N),
        ("multiset --n {} --stat arm-leg", "_cmd_multiset", cli.ENUM_MAX_N),
        ("match --n {}", "_cmd_match", cli.MATCH_MAX_N),
    ],
)
def test_enumeration_caps(capsys, monkeypatch, argv, handler, cap):
    """The cap itself is accepted; one more is a usage error, refused
    before the command's handler starts any work."""
    calls = []
    monkeypatch.setattr(cli, handler, lambda args: calls.append(args) or 0)
    assert invoke(capsys, *argv.format(cap).split()) == (0, "", "")
    assert len(calls) == 1
    code, out, err = invoke(capsys, *argv.format(cap + 1).split())
    assert code == 2 and out == ""
    assert f"must not exceed {cap}" in err
    assert len(calls) == 1


def test_gauss_trunc_cap(capsys, monkeypatch):
    """`series gauss --trunc` is bounded by the area cap: the cap reaches the
    handler, one more exits 2 before any work; the area message is unchanged."""
    calls = []
    monkeypatch.setattr(cli, "_cmd_series", lambda args: calls.append(args) or 0)
    cap = cli.GAUSS_MAX_AREA
    assert invoke(capsys, *f"series gauss --m 1 --n 1 --trunc {cap}".split()) == (0, "", "")
    assert len(calls) == 1 and calls[0].trunc == cap
    code, out, err = invoke(capsys, *f"series gauss --m 1 --n 1 --trunc {cap + 1}".split())
    assert code == 2 and out == "" and len(calls) == 1
    assert err.endswith(f"hookpart: error: gauss: --trunc ({cap + 1}) must not exceed {cap}\n")
    code, out, err = invoke(capsys, *f"series gauss --m 1 --n {cap + 1} --trunc {cap + 1}".split())
    assert code == 2 and out == "" and len(calls) == 1
    assert err.endswith(
        f"hookpart: error: gauss: --m (1), --n ({cap + 1}) and their product must not exceed {cap}\n"
    )


def test_fact3_box_partitions_above_cap_is_usage_error(capsys):
    # the narrowest box of three rows just over the partition cap
    n = next(n for n in itertools.count() if math.comb(n + 3, 3) > cli.FACT3_MAX_BOX_PARTITIONS)
    assert math.comb(n + 2, 3) <= cli.FACT3_MAX_BOX_PARTITIONS and 3 * n <= cli.FACT3_MAX_AREA
    code, out, err = invoke(capsys, "verify", "fact", "--id", "3", "--m", "3", "--n", str(n))
    assert code == 2 and out == ""
    assert f"more than {cli.FACT3_MAX_BOX_PARTITIONS}" in err


def test_anatomy_and_chain(capsys):
    assert invoke(capsys, *"verify anatomy --c 0 --d 0 --n-max 6 --trunc 10".split())[0] == 0
    assert invoke(capsys, *"verify chain --c 1 --d 0 --trunc 20".split())[0] == 0


def test_unknown_command_is_usage_error(capsys):
    assert invoke(capsys, "explode")[0] == 2
    assert invoke(capsys, "verify", "theorem1")[0] == 2  # missing --n-max
    assert invoke(capsys, "verify", "theorem1", "--n-max", "-3")[0] == 2
    assert invoke(capsys, "verify", "theorem1", "--n-max", "4", "--jobs", "0")[0] == 2


def test_anatomy_range_usage_error(capsys):
    code, _, err = invoke(capsys, *"verify anatomy --c 0 --d 0 --n-max 9 --trunc 5".split())
    assert code == 2
    assert "n_max" in err


@pytest.mark.parametrize(
    "module, name, argv",
    [
        (statistics, "lemma_rhs", "verify lemma --stat arm-leg --c 1 --d 0 --n-max 12"),
        (anatomy, "anatomy_gf", "verify anatomy --c 1 --d 0 --n-max 12"),
    ],
)
def test_series_built_only_to_n_max(capsys, monkeypatch, module, name, argv):
    # only coefficients up to --n-max are read, so a larger --trunc builds nothing more
    built = getattr(module, name)
    orders = []

    def recording(*args):
        orders.append(args[-1])
        return built(*args)

    monkeypatch.setattr(module, name, recording)
    wide, narrow = (invoke(capsys, *argv.split(), "--trunc", trunc) for trunc in ("400", "30"))
    assert wide == narrow and wide[0] == 0
    assert set(orders) == {12}


def _zero_division(n):
    return n // 0


def test_verifier_exception_is_internal_error(capsys, monkeypatch):
    monkeypatch.setattr(statistics, "verify_theorem1", _zero_division)
    code, out, err = invoke(capsys, *"verify theorem1 --n-max 3 --jobs 1".split())
    assert code == 3
    assert out == ""
    assert "Traceback" not in err
    assert err.strip().splitlines() == [
        "internal error: ZeroDivisionError: integer division or modulo by zero"
    ]


def test_value_error_in_verifier_is_internal_error(capsys, monkeypatch):
    def bad_lemma(*args):
        raise ValueError("bug")

    monkeypatch.setattr(statistics, "verify_lemma", bad_lemma)
    code, _, err = invoke(
        capsys, *"verify lemma --stat arm-leg --c 0 --d 0 --n-max 3 --trunc 10".split()
    )
    assert code == 3
    assert "ValueError: bug" in err


def test_matching_identity_violation_exits_1(capsys, monkeypatch):
    def violated(n):
        raise IdentityViolation(f"pair multiset identity violated at n={n}")

    monkeypatch.setattr(explorer, "matching_table", violated)
    code, _, err = invoke(capsys, *"match --n 3".split())
    assert code == 1
    assert "identity violated at n=3" in err


def test_help_exits_zero(capsys):
    assert invoke(capsys, "--help")[0] == 0


# --- output formats ----------------------------------------------------------


def test_series_text_and_csv(capsys):
    _, out, _ = invoke(capsys, *"series euler-inv --trunc 5".split())
    assert out.splitlines() == ["0 1", "1 1", "2 2", "3 3", "4 5", "5 7"]
    _, out, _ = invoke(capsys, *"series euler-inv --trunc 5 --format csv".split())
    rows = list(csv.DictReader(io.StringIO(out)))
    coeffs = [int(r["coefficient"]) for r in rows]
    assert coeffs == list(euler_inv(5).coeffs)


def test_series_json_roundtrip(capsys):
    _, out, _ = invoke(capsys, *"series lemma-rhs --c 0 --d 0 --trunc 6 --format json".split())
    doc = json.loads(out)
    assert doc["coefficients"][:4] == [0, 1, 2, 4]
    assert doc["order"] == 6
    # a box far larger than the order: built truncated, without recursion
    _, out, _ = invoke(capsys, *"series gauss --m 1200 --n 1 --trunc 5 --format json".split())
    doc = json.loads(out)
    assert doc["coefficients"] == [1] * 6
    assert doc["order"] == 5


def test_series_gauss_default_order(capsys):
    _, out, _ = invoke(capsys, *"series gauss --m 2 --n 2 --format json".split())
    doc = json.loads(out)
    assert doc["coefficients"] == [1, 1, 2, 1, 1]


def test_multiset_json_roundtrip(capsys):
    _, out, _ = invoke(capsys, *"multiset --n 6 --stat arm-leg --format json".split())
    doc = json.loads(out)
    rebuilt = {(c, d): count for c, d, count in doc["pairs"]}
    expected = build_pair_multiset(6, "arm-leg")
    assert rebuilt == dict(expected.counts)
    assert doc["total"] == expected.total


def test_multiset_csv_roundtrip(capsys):
    _, out, _ = invoke(capsys, *"multiset --n 6 --stat arm-left --format csv".split())
    rows = list(csv.DictReader(io.StringIO(out)))
    rebuilt = {(int(r["c"]), int(r["d"])): int(r["count"]) for r in rows}
    assert rebuilt == dict(build_pair_multiset(6, "arm-left").counts)


# exact stdout of `series` and `multiset`, so that a change of renderer cannot
# move a byte: the text separator, the csv header, JSON spacing and key order
TABLE_DOCUMENTS = {
    ("series euler-inv --trunc 5", "text"): "0 1\n1 1\n2 2\n3 3\n4 5\n5 7\n",
    ("series euler-inv --trunc 5", "csv"): "exponent,coefficient\n0,1\n1,1\n2,2\n3,3\n4,5\n5,7\n",
    ("series euler-inv --trunc 5", "json"): (
        '{"coefficients": [1, 1, 2, 3, 5, 7], "kind": "euler-inv", "order": 5}\n'
    ),
    ("series gauss --m 2 --n 3", "text"): "0 1\n1 1\n2 2\n3 2\n4 2\n5 1\n6 1\n",
    ("series gauss --m 2 --n 3", "csv"): (
        "exponent,coefficient\n0,1\n1,1\n2,2\n3,2\n4,2\n5,1\n6,1\n"
    ),
    ("series gauss --m 2 --n 3", "json"): (
        '{"coefficients": [1, 1, 2, 2, 2, 1, 1], "kind": "gauss(m=2, n=3)", "order": 6}\n'
    ),
    ("series lemma-rhs --c 1 --d 0 --trunc 6", "text"): "0 0\n1 0\n2 1\n3 1\n4 3\n5 4\n6 8\n",
    ("series lemma-rhs --c 1 --d 0 --trunc 6", "csv"): (
        "exponent,coefficient\n0,0\n1,0\n2,1\n3,1\n4,3\n5,4\n6,8\n"
    ),
    ("series lemma-rhs --c 1 --d 0 --trunc 6", "json"): (
        '{"coefficients": [0, 0, 1, 1, 3, 4, 8], "kind": "lemma-rhs(c=1, d=0)", "order": 6}\n'
    ),
    **{
        (f"multiset --n 4 --stat {stat}", fmt): text
        for stat in ("arm-leg", "arm-left")
        for fmt, text in {
            "text": "0 0 7\n0 1 3\n0 2 1\n0 3 1\n1 0 3\n1 1 1\n1 2 1\n2 0 1\n2 1 1\n3 0 1\n",
            "csv": "c,d,count\n0,0,7\n0,1,3\n0,2,1\n0,3,1\n1,0,3\n1,1,1\n1,2,1\n2,0,1\n2,1,1\n3,0,1\n",
            "json": '{"n": 4, "pairs": [[0, 0, 7], [0, 1, 3], [0, 2, 1], [0, 3, 1], [1, 0, 3], '
            '[1, 1, 1], [1, 2, 1], [2, 0, 1], [2, 1, 1], [3, 0, 1]], '
            f'"stat": "{stat}", "total": 20}}\n',
        }.items()
    },
    ("multiset --n 0 --stat arm-leg", "text"): "\n",
    ("multiset --n 0 --stat arm-leg", "csv"): "c,d,count\n",
    ("multiset --n 0 --stat arm-leg", "json"): (
        '{"n": 0, "pairs": [], "stat": "arm-leg", "total": 0}\n'
    ),
}


@pytest.mark.parametrize("argv, fmt", sorted(TABLE_DOCUMENTS))
def test_table_documents_byte_for_byte(capsys, argv, fmt):
    expected = TABLE_DOCUMENTS[argv, fmt]
    assert invoke(capsys, *argv.split(), "--format", fmt) == (0, expected, "")


def test_match_csv_matches_api(capsys):
    _, out, _ = invoke(capsys, *"match --n 4 --format csv".split())
    rows = list(csv.DictReader(io.StringIO(out)))
    matching = canonical_matching(4)
    assert len(rows) == len(matching.pairs)
    first = rows[0]
    src, dst = matching.pairs[0]
    assert (int(first["src_partition"]), int(first["src_row"]), int(first["src_col"])) == tuple(src)
    assert (int(first["dst_partition"]), int(first["dst_row"]), int(first["dst_col"])) == tuple(dst)


def test_match_json(capsys):
    _, out, _ = invoke(capsys, *"match --n 2 --format json".split())
    doc = json.loads(out)
    assert doc["pairs"][1] == {"src": [0, 1, 2], "dst": [1, 1, 1]}


@pytest.mark.parametrize("n", [*range(11), 20])  # 12540 pairs: several 4096-row batches
def test_match_json_is_sorted_json_dumps(capsys, n):
    """Each format, byte for byte, against a reference built another way."""
    pairs = canonical_matching(n).pairs
    _, out, _ = invoke(capsys, "match", "--n", str(n), "--format", "json")
    doc = {"n": n, "pairs": [{"src": list(s), "dst": list(t)} for s, t in pairs]}
    assert out == json.dumps(doc, sort_keys=True) + "\n"
    assert json.loads(out) == doc

    _, out, _ = invoke(capsys, "match", "--n", str(n), "--format", "csv")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["src_partition", "src_row", "src_col", "dst_partition", "dst_row", "dst_col"])
    writer.writerows([*s, *t] for s, t in pairs)
    assert out == buffer.getvalue()

    _, out, _ = invoke(capsys, "match", "--n", str(n), "--format", "text")
    lines = [f"({','.join(map(str, s))}) -> ({','.join(map(str, t))})" for s, t in pairs]
    assert out == "\n".join(lines) + "\n"


# --- determinism and file output ----------------------------------------------


def test_output_identical_across_jobs(capsys, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # use the pool on any host
    for check in ("theorem1", "identity1"):
        for fmt in ("text", "json", "csv"):
            argv = ["verify", check, "--n-max", "12", "--format", fmt]
            _, serial, _ = invoke(capsys, *argv, "--jobs", "1")
            _, parallel, _ = invoke(capsys, *argv, "--jobs", "2")
            assert serial == parallel, (check, fmt)


# the stdout digests of every command the benchmark runs, keyed by its argv
DIGESTS = json.loads((Path(__file__).parents[1] / "perfbench" / "digests.json").read_text())


@pytest.mark.parametrize(
    "key",
    sorted(key for key in DIGESTS if key.startswith("verify ")),
    # the acceptance-scale sweeps keep their short ids
    ids=lambda key: key.removeprefix("verify ").removesuffix(" --n-max 40 --jobs 2"),
)
def test_full_scale_output_matches_benchmark_digest(capsys, key):
    # every verify command the benchmark runs; it records the --jobs 2
    # output, and --jobs 1 must print the same bytes
    recorded = DIGESTS[key]
    code, out, _ = invoke(capsys, *key.replace("--jobs 2", "--jobs 1").split())
    assert code == 0
    stdout = out.encode()
    assert len(stdout) == recorded["bytes"]
    assert hashlib.sha256(stdout).hexdigest() == recorded["sha256"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_match_full_scale_output_matches_benchmark_digest(capsys, tmp_path, fmt):
    # stdout and --out both carry the bytes the benchmark records for n = 30
    recorded = DIGESTS[f"match --n 30 --format {fmt}"]
    code, out, _ = invoke(capsys, "match", "--n", "30", "--format", fmt)
    assert code == 0
    path = tmp_path / f"match.{fmt}"
    assert invoke(capsys, "match", "--n", "30", "--format", fmt, "--out", str(path)) == (0, "", "")
    for output in (out.encode(), path.read_bytes()):
        assert len(output) == recorded["bytes"]
        assert hashlib.sha256(output).hexdigest() == recorded["sha256"]


def test_match_full_scale_text_matches_api(capsys):
    pairs = canonical_matching(30).pairs
    _, out, _ = invoke(capsys, "match", "--n", "30", "--format", "text")
    assert out == "".join("(%s,%s,%s) -> (%s,%s,%s)\n" % (*s, *t) for s, t in pairs)


def test_match_of_zero(capsys, tmp_path):
    # the one partition of 0 has no cells: a header or an empty pair list, no row
    assert canonical_matching(0).pairs == ()
    expected = {
        "text": "\n",
        "csv": "src_partition,src_row,src_col,dst_partition,dst_row,dst_col\n",
        "json": '{"n": 0, "pairs": []}\n',
    }
    for fmt, text in expected.items():
        assert invoke(capsys, "match", "--n", "0", "--format", fmt) == (0, text, "")
        path = tmp_path / fmt
        assert invoke(capsys, "match", "--n", "0", "--format", fmt, "--out", str(path)) == (0, "", "")
        assert path.read_text() == text


# tracemalloc peak of `match --n 25 --format json --out PATH`: 1.28-1.46 MiB
# on Python 3.10-3.13 with the two-column cell table, 1.60-1.78 MiB with
# four columns, 12.6 MiB when the CLI held every CellRef pair and the whole
# output text
MATCH_25_PEAK_BYTES = 2 * 2**20


def test_match_memory_peak_is_bounded(tmp_path):
    tracemalloc.start()
    try:
        code = run(["match", "--n", "25", "--format", "json", "--out", str(tmp_path / "m.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < MATCH_25_PEAK_BYTES, f"peak {peak / 2**20:.2f} MiB"


def test_match_output_stable(capsys):
    _, first, _ = invoke(capsys, *"match --n 6 --format csv".split())
    _, second, _ = invoke(capsys, *"match --n 6 --format csv".split())
    assert first == second


def test_out_file(tmp_path, capsys):
    path = tmp_path / "series.csv"
    argv = "series euler-inv --trunc 4 --format csv".split()
    _, stdout, _ = invoke(capsys, *argv)
    code, out, _ = invoke(capsys, *argv, "--out", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text() == stdout
    assert path.read_text().splitlines()[1] == "0,1"


def test_out_in_missing_directory_is_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x.txt"
    code, out, err = invoke(capsys, *f"series euler-inv --trunc 3 --out {path}".split())
    assert code == 2
    assert out == ""
    assert "--out" in err and "does not exist" in err
    assert "internal error" not in err
    assert not path.parent.exists()


def test_out_naming_a_directory_is_usage_error(tmp_path, capsys):
    code, out, err = invoke(capsys, *f"series euler-inv --trunc 3 --out {tmp_path}".split())
    assert code == 2
    assert out == ""
    assert "--out" in err and "is a directory" in err
    assert "internal error" not in err
    assert list(tmp_path.iterdir()) == []


def test_verify_json_document(capsys):
    _, out, _ = invoke(capsys, *"verify theorem1 --n-max 3 --jobs 1 --format json".split())
    doc = json.loads(out)
    assert doc["passed"] is True
    assert [r["context"] for r in doc["reports"]] == [f"theorem1(n={k})" for k in range(4)]
    assert all(r["first_discrepancy"] is None for r in doc["reports"])


def test_failing_report_renders_and_exits_1():
    # the identities hold, so exercise the failure path with a fabricated report
    from hookpart.cli import _render_reports
    from hookpart.explorer import CellRef
    from hookpart.qseries import VerifyReport

    bad = VerifyReport.failure("demo(n=3)", where=(0, 1), expected=4, actual=5)
    text, code = _render_reports([VerifyReport.success("demo(n=2)"), bad], "text")
    assert code == 1
    assert "FAIL demo(n=3) at (0, 1): expected 4, got 5" in text
    assert text.endswith("FAILED (1 of 2 checks)")
    doc, code = _render_reports([bad], "json")
    assert code == 1
    parsed = json.loads(doc)
    assert parsed["passed"] is False
    assert parsed["reports"][0]["first_discrepancy"]["where"] == [0, 1]
    where = ("sources", CellRef(0, 1, 2))
    nested = VerifyReport.failure("demo(n=4)", where=where, expected=1, actual=0)
    doc, code = _render_reports([nested], "json")
    assert code == 1
    assert json.loads(doc)["reports"][0]["first_discrepancy"]["where"] == ["sources", [0, 1, 2]]
    csv_text, code = _render_reports([bad], "csv")
    assert code == 1
    assert csv_text.splitlines()[1].startswith("demo(n=3),false")


# [success, failure] as the dataclass records and `dataclasses.asdict` rendered
# them, so that a change of record type cannot change a byte of a report
REPORT_DOCUMENTS = {
    "text": "PASS demo(n=2)\n"
    "FAIL demo(n=3) at ('sources', CellRef(partition_index=0, row=1, col=2)): "
    "expected (1, 2), got (3, 4)\n"
    "FAILED (1 of 2 checks)",
    "json": '{\n  "passed": false,\n  "reports": [\n    {\n      "context": "demo(n=2)",\n'
    '      "first_discrepancy": null,\n      "passed": true\n    },\n    {\n'
    '      "context": "demo(n=3)",\n      "first_discrepancy": {\n        "actual": [\n'
    '          3,\n          4\n        ],\n        "expected": [\n          1,\n'
    '          2\n        ],\n        "where": [\n          "sources",\n          [\n'
    '            0,\n            1,\n            2\n          ]\n        ]\n      },\n'
    '      "passed": false\n    }\n  ]\n}',
    "csv": "context,passed,where,expected,actual\n"
    "demo(n=2),true,,,\n"
    'demo(n=3),false,"(\'sources\', CellRef(partition_index=0, row=1, col=2))","(1, 2)","(3, 4)"',
}


@pytest.mark.parametrize("fmt", sorted(REPORT_DOCUMENTS))
def test_report_documents_byte_for_byte(fmt):
    from hookpart.cli import _render_reports
    from hookpart.explorer import CellRef
    from hookpart.qseries import VerifyReport

    reports = [
        VerifyReport.success("demo(n=2)"),
        VerifyReport.failure(
            "demo(n=3)", where=("sources", CellRef(0, 1, 2)), expected=(1, 2), actual=(3, 4)
        ),
    ]
    assert _render_reports(reports, fmt) == (REPORT_DOCUMENTS[fmt], 1)


def test_cli_import_loads_no_pool_modules():
    # a fresh interpreter: this one has imported concurrent.futures already;
    # the range verifications run in this one process whatever --jobs says
    src = os.path.dirname(os.path.dirname(hookpart.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    pool_modules = "sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules)"
    script = (
        "import sys, hookpart.cli; hookpart.cli.build_parser(); "
        f"print({pool_modules}); "
        "codes = [hookpart.cli.run(['verify', check, '--n-max', '5', '--jobs', '2']) "
        "for check in ('theorem1', 'identity1')]; "
        f"print(codes, {pool_modules})"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    lines = done.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "[0, 0] []")


def test_cli_launch_loads_no_unused_modules():
    # `dataclasses` brings `inspect`, `ast`, `dis` and `tokenize`; `json` and
    # `csv` are loaded by the commands that write those formats
    src = os.path.dirname(os.path.dirname(hookpart.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    unused = ("dataclasses", "inspect", "ast", "dis", "tokenize", "json", "csv")
    script = (
        "import hookpart.cli, sys; hookpart.cli.build_parser(); "
        f"print(sorted(m for m in {unused!r} if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_module_entry_point_exits_with_run_code(capsys):
    # `python -m hookpart` goes through __main__.py and cli.main's sys.exit
    src = os.path.dirname(os.path.dirname(hookpart.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    argv = ["verify", "theorem1", "--n-max", "3", "--jobs", "1"]
    done = subprocess.run(
        [sys.executable, "-m", "hookpart", *argv], env=env, capture_output=True, text=True
    )
    code, out, _ = invoke(capsys, *argv)
    assert code == 0 and (done.returncode, done.stdout) == (code, out)
    usage = subprocess.run(
        [sys.executable, "-m", "hookpart", "verify", "theorem1"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert usage.returncode == 2 and usage.stdout == ""
    assert "--n-max" in usage.stderr


@pytest.mark.parametrize(
    "argv,header",
    [
        # larger than a pipe's buffer: the writer meets the closed pipe
        (["match", "--n", "20", "--format", "csv"], b"src_partition,src_row,src_col,dst_partition"),
        # small enough to sit in stdout's buffer until the process ends
        (["series", "euler-inv", "--trunc", "5"], None),
    ],
    ids=["match", "series"],
)
def test_closed_stdout_exits_141_quietly(argv, header):
    # a reader that stops early, like `| head -1`, is no internal error
    src = os.path.dirname(os.path.dirname(hookpart.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONUNBUFFERED", None)
    with subprocess.Popen(
        [sys.executable, "-m", "hookpart", *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        if header:
            assert proc.stdout.readline().startswith(header)
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait()
    assert (code, stderr) == (141, b"")
