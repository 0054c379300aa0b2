import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_ledger.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_ledger", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def perfbench_run(seed, wall, setup, rss_kb, load):
    """A result file as ``perfbench/run.py`` writes it, cut to what the ledger reads."""
    return {
        "correct": True, "attempted": 4, "failed": 0,
        "metrics": {"wall_s": {"value": wall, "unit": "s"},
                    "setup_s": {"value": setup, "unit": "s"},
                    "peak_rss_mb": {"value": max(rss_kb) / 1024, "unit": "MB"}},
        "workload": "series", "seed": seed, "trace": False, "commands": [],
        "samples": {"wall_s": [wall], "setup_s": [setup], "max_rss_kb": rss_kb},
        "unscaled": {"wall_s": wall, "setup_s": setup, "host_s": 0.1},
        "environment": {"python": "3.11.7", "nproc": 2, "git_rev": "abc",
                        "src_sha256": "f00d", "loadavg_1m": load},
    }


def test_two_runs_condensed(tmp_path):
    paths = []
    for seed, wall, setup, rss_kb, load in [(1, 1.0, 0.1, [1024, 2048], 0.5),
                                            (2, 3.0, 0.3, [3072], 1.5)]:
        path = tmp_path / f"series-seed{seed}-trace0.json"
        path.write_text(json.dumps(perfbench_run(seed, wall, setup, rss_kb, load)))
        paths.append(str(path))
    out = tmp_path / "BENCH.json"
    assert load_tool().main(["--out", str(out)] + paths) == 0
    ledger = json.loads(out.read_text())
    assert list(ledger["workloads"]) == ["series"]
    (entry,) = ledger["workloads"]["series"]
    assert entry["wall_s"] == {"median": 2.0, "iqr": 1.0}
    assert entry["setup_s"]["median"] == 0.2
    assert abs(entry["setup_s"]["iqr"] - 0.1) < 1e-12
    assert entry["launch_peak_rss_mb"] == {"median": 2.0, "max": 3.0}
    assert entry["loadavg_1m"] == {"median": 1.0, "max": 1.5}
    assert entry["seeds"] == {"timed": [1, 2], "traced": []}
    assert (entry["failed"], entry["attempted"]) == (0, 8)
    assert (entry["git_rev"], entry["python"], entry["nproc"]) == (["abc"], ["3.11.7"], [2])
    assert entry["src_sha256"] == "f00d" and "layers" not in entry


def test_paired_wins_count_seeds_won_per_tree():
    def run(workload, src, seed, wall, setup, rss_kb, trace=False):
        result = perfbench_run(seed, wall, setup, [rss_kb], 0.5)
        result.update(workload=workload, trace=trace)
        result["environment"]["src_sha256"] = src
        return result

    runs = [
        run("series", "aaaa", 1, 1.0, 0.10, 2048),
        run("series", "bbbb", 1, 0.9, 0.10, 3072),  # wall won by bbbb; setup tied
        run("series", "aaaa", 2, 1.0, 0.20, 2048),
        run("series", "bbbb", 2, 1.1, 0.10, 1024),
        run("series", "aaaa", 3, 1.0, 0.30, 2048),
        run("series", "bbbb", 3, 1.2, 0.20, 1024),
        run("series", "aaaa", 4, 9.0, 0.10, 9999),  # no bbbb run of seed 4
        run("series", "bbbb", 5, 0.1, 0.01, 1, trace=True),  # traced runs are not timed
        run("sweep", "aaaa", 1, 1.0, 0.10, 2048),  # one tree only
        run("match", "aaaa", 1, 1.0, 0.10, 2048),  # three trees
        run("match", "bbbb", 1, 1.0, 0.10, 2048),
        run("match", "cccc", 1, 1.0, 0.10, 2048),
    ]
    ledger = load_tool().condense(runs)
    assert ledger["paired_wins"] == {
        "series": {
            "seeds": [1, 2, 3],
            "wall_s": {"aaaa": 2, "bbbb": 1},
            "setup_s": {"aaaa": 0, "bbbb": 2},
            "peak_rss_mb": {"aaaa": 1, "bbbb": 2},
        }
    }
    assert [entry["src_sha256"] for entry in ledger["workloads"]["series"]] == ["aaaa", "bbbb"]


def test_setup_split_into_help_and_command_launches():
    def run(seed, setup_samples, scale=1.0, failed=0):
        result = perfbench_run(seed, 1.0, 0.1, [2048], 0.5)
        result["failed"] = failed
        result["commands"] = ["match --n 30 --format csv", "match --n 30 --format json"]
        # two passes: two --help launches, then one sample per command
        result["samples"].update(wall_s=[1.0, 1.0], setup_s=setup_samples)
        result["unscaled"]["setup_s"] = 1.0
        result["metrics"]["setup_s"]["value"] = scale
        return result

    runs = [
        run(1, [0.05, 0.07, 0.09, 0.11, 0.06, 0.08, 0.10, 0.12]),
        run(2, [0.05, 0.07, 0.09, 0.11, 0.06, 0.08, 0.10, 0.12], scale=3.0),
        run(3, [9.0] * 8, failed=1),  # a failed command: the passes no longer split
        run(4, [9.0] * 7),  # a sample short of two passes
    ]
    (entry,) = load_tool().condense(runs)["workloads"]["series"]
    split = entry["setup_s_by_launch"]
    assert abs(split["help"]["median"] - 0.13) < 1e-12  # medians 0.065 and 0.195
    assert abs(split["help"]["iqr"] - 0.065) < 1e-12  # inclusive quartiles of two values
    assert abs(split["command"]["median"] - 0.21) < 1e-12  # medians 0.105 and 0.315

    (clean,) = load_tool().condense(runs[:1])["workloads"]["series"]
    assert clean["setup_s_by_launch"] == {
        "help": {"median": pytest.approx(0.065), "iqr": 0.0},
        "command": {"median": pytest.approx(0.105), "iqr": 0.0},
    }
