"""Condense perfbench result files into one bench ledger.

    python3 tools/bench_ledger.py --out BENCH_11.json perfbench/out/*.json

Each file given is one perfbench run (``perfbench/run.py`` writes them to
``perfbench/out/``).  Runs are grouped by workload, then by the source
tree they measured: the hash of ``src/hookpart/*.py`` that perfbench
records.  ``git_rev`` is the checkout's HEAD at run time, so the runs of
an uncommitted tree carry the rev of its parent; the hash tells the two
apart.  For each group the ledger holds:

- the median and IQR of the runs' ``wall_s`` and ``setup_s``;
- ``setup_s`` split by launch: the median and IQR over the runs with no
  failed command of each run's median set-up time of its ``--help``
  launches and of its command launches, scaled like the run's
  ``setup_s``.  In every pass of such a run the first ``HELP_LAUNCHES``
  set-up samples are ``--help`` and the rest follow the commands, so a
  command that slows the launch after it shows as a gap between the two;
- the median and max of the per-launch peak RSS, over every launch of
  every run (a run's own ``peak_rss_mb`` is its max alone);
- the median of each per-layer metric over the traced runs;
- the seeds, the commands failed and attempted, and the git rev, Python
  version, nproc and 1-minute load of the runs.

For each workload measured on exactly two source trees, ``paired_wins``
pairs their timed runs by seed and counts, for ``wall_s``, ``setup_s`` and
``peak_rss_mb``, the seeds on which each tree (by its hash) read lower; a
tie counts for neither.

Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

TIMES = ("wall_s", "setup_s")
PAIRED = ("wall_s", "setup_s", "peak_rss_mb")
HELP_LAUNCHES = 2  # set-up-only launches at the start of each pass (SETUP_LAUNCHES in perfbench)


def _spread(values: list[float]) -> dict:
    """Median and interquartile range; the IQR of fewer than two values is 0."""
    iqr = 0.0
    if len(values) > 1:
        low, _, high = statistics.quantiles(values, n=4, method="inclusive")
        iqr = high - low
    return {"median": statistics.median(values), "iqr": iqr}


def _distinct(values: list) -> list:
    return sorted(set(values), key=str)


def _setup_by_launch(run: dict) -> dict[str, float] | None:
    """The run's median set-up time of its ``--help`` launches and of its
    command launches, scaled like its ``setup_s``; None if a command
    failed, since a failed launch leaves no sample and the passes no
    longer split at fixed places."""
    samples = run["samples"]["setup_s"]
    width = HELP_LAUNCHES + len(run["commands"])
    if run["failed"] or not samples or len(samples) != width * len(run["samples"]["wall_s"]):
        return None
    scale = run["metrics"]["setup_s"]["value"] / run["unscaled"]["setup_s"]
    passes = [samples[start : start + width] for start in range(0, len(samples), width)]
    return {
        "help": statistics.median(s for one in passes for s in one[:HELP_LAUNCHES]) * scale,
        "command": statistics.median(s for one in passes for s in one[HELP_LAUNCHES:]) * scale,
    }


def condense(runs: list[dict]) -> dict:
    """The ledger of a list of perfbench results, as a JSON-ready dict."""
    groups: dict[tuple[str, str], list[dict]] = {}
    for run in runs:
        key = (run["workload"], run["environment"]["src_sha256"])
        groups.setdefault(key, []).append(run)
    workloads: dict[str, list[dict]] = {}
    for (workload, src), members in sorted(groups.items()):
        timed = [run for run in members if not run["trace"]]
        traced = [run for run in members if run["trace"]]
        envs = [run["environment"] for run in members]
        entry = {
            "src_sha256": src,
            "git_rev": _distinct([env["git_rev"] for env in envs]),
            "python": _distinct([env["python"] for env in envs]),
            "nproc": _distinct([env["nproc"] for env in envs]),
            "loadavg_1m": {
                "median": statistics.median(env["loadavg_1m"] for env in envs),
                "max": max(env["loadavg_1m"] for env in envs),
            },
            "seeds": {"timed": sorted(run["seed"] for run in timed),
                      "traced": sorted(run["seed"] for run in traced)},
            "failed": sum(run["failed"] for run in members),
            "attempted": sum(run["attempted"] for run in members),
        }
        for name in TIMES:
            values = [run["metrics"][name]["value"] for run in timed if name in run["metrics"]]
            if values:
                entry[name] = _spread(values)
        split = [medians for medians in map(_setup_by_launch, timed) if medians]
        if split:
            entry["setup_s_by_launch"] = {
                launch: _spread([medians[launch] for medians in split])
                for launch in ("help", "command")
            }
        rss = [kb / 1024 for run in timed for kb in run["samples"]["max_rss_kb"]]
        if rss:
            entry["launch_peak_rss_mb"] = {"median": statistics.median(rss), "max": max(rss)}
        layers: dict[str, list[float]] = {}
        for run in traced:
            for name, metric in run["metrics"].items():
                layers.setdefault(name, []).append(metric["value"])
        if layers:
            entry["layers"] = {name: statistics.median(values)
                               for name, values in sorted(layers.items())}
        workloads.setdefault(workload, []).append(entry)
    return {"workloads": workloads, "paired_wins": paired_wins(runs)}


def paired_wins(runs: list[dict]) -> dict:
    """Per workload with exactly two source trees: the seeds both ran
    untraced, and for each metric of ``PAIRED`` the number of those seeds
    on which each tree read lower."""
    trees: dict[str, dict[str, dict[int, dict]]] = {}
    for run in runs:
        if not run["trace"]:
            by_seed = trees.setdefault(run["workload"], {}).setdefault(
                run["environment"]["src_sha256"], {})
            by_seed[run["seed"]] = run["metrics"]
    wins: dict[str, dict] = {}
    for workload, by_src in sorted(trees.items()):
        if len(by_src) != 2:
            continue
        (src_a, runs_a), (src_b, runs_b) = sorted(by_src.items())
        seeds = sorted(runs_a.keys() & runs_b.keys())
        entry: dict = {"seeds": seeds}
        for name in PAIRED:
            a = sum(runs_a[seed][name]["value"] < runs_b[seed][name]["value"] for seed in seeds)
            b = sum(runs_b[seed][name]["value"] < runs_a[seed][name]["value"] for seed in seeds)
            entry[name] = {src_a: a, src_b: b}
        wins[workload] = entry
    return wins


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="ledger file to write")
    parser.add_argument("results", type=Path, nargs="+", help="perfbench result files")
    args = parser.parse_args(argv)
    runs = [json.loads(path.read_text(encoding="utf-8")) for path in args.results]
    args.out.write_text(json.dumps(condense(runs), indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
