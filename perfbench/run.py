"""hookpart benchmark: run the CLI as a user does and report what it costs.

Usage:
    python3 perfbench/run.py --workload {sweep,series,match,all} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the program is taken from ``src/`` beside this
directory.  The load is a closed loop with one client: the workload's
commands run one after another, each as a fresh ``python -m hookpart``
process (through ``launch.py``), so every cache in the program starts
cold as it does for a user.  Passes over the command list repeat for
``--seconds`` seconds.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (mean over
passes of the summed launch-to-exit time), ``setup_s`` (median over
launches of launch-to-parser-built), ``peak_rss_mb`` (largest max-RSS of
any process started, pool workers included).  The two times are scaled
to a host of reference speed (see ``host_probe``); the unscaled figures
go to the results file.  ``--trace 1`` instead runs
every layer probe (``probe.py``) in its own interpreter, plus one
untraced and one traced pass of the workload, and reports per-layer
metrics.  Every command's stdout must match the sha256 recorded in
``digests.json``; a mismatch, a non-zero exit or a ``FAIL`` line counts
as a failed command.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; the run's environment,
failures and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from probe import corner_count, partition_counts
from spans import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("sweep", "series", "match")
JOBS = "2"  # the CLI's pool size, fixed so it does not follow the host
TIMEOUT_S = 150  # per launch; a run must end within 180 s
# (c, d) splits a seed chooses from: c + d is fixed, so the closed-form
# series and the work stay the same while the inputs change.
LEMMA_SPLITS = ((0, 3), (1, 2), (2, 1), (3, 0))
ANATOMY_SPLITS = ((0, 2), (1, 1), (2, 0))
IMPORT_PROBES = 5  # launches behind the median cli.import_s
SETUP_LAUNCHES = 2  # per pass, `--help` only: more samples behind the median setup_s
# host_probe's mean on the reference host; wall_s and setup_s are scaled to it.
HOST_REFERENCE_S = 0.100
LAYERS = ("partitions", "statistics", "qseries", "anatomy", "explorer", "cli")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "partitions.enumerate_s": "s",
    "partitions.cells_s": "s",
    "partitions.count": "count",
    "statistics.pair_multiset_s": "s",
    "statistics.stat_polynomial_s": "s",
    "statistics.theorem1_s": "s",
    "statistics.identity1_s": "s",
    "statistics.ns_per_cell": "ns",
    "statistics.lemma_s": "s",
    "statistics.cells": "count",
    "qseries.mul_s": "s",
    "qseries.invert_s": "s",
    "qseries.q_pochhammer_s": "s",
    "qseries.euler_inv_s": "s",
    "qseries.lemma_rhs_s": "s",
    "qseries.fact2_s": "s",
    "anatomy.proof_chain_s": "s",
    "anatomy.verify_anatomy_s": "s",
    "anatomy.anatomy_gf_s": "s",
    "anatomy.corners": "count",
    "explorer.build_s": "s",
    "explorer.gc_s": "s",
    "explorer.pairs": "count",
    "cli.import_s": "s",
    "cli.render_s": "s",
    "cli.pool_efficiency": "ratio",
    "cli.pool_idle_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Sizes:
    sweep_n: int  # verify theorem1/identity1 --n-max
    chain_trunc: int
    lemma_n: int
    lemma_trunc: int  # also the order of the qseries probes
    fact_trunc: int
    anatomy_n: int  # verify anatomy --n-max and --trunc
    match_n: int


FULL = Sizes(sweep_n=40, chain_trunc=100, lemma_n=30, lemma_trunc=400, fact_trunc=100,
             anatomy_n=28, match_n=30)
SMOKE = Sizes(sweep_n=12, chain_trunc=20, lemma_n=10, lemma_trunc=40, fact_trunc=20,
              anatomy_n=10, match_n=8)


def candidates(workload: str, s: Sizes) -> list[list[list[str]]]:
    """The workload's command slots, each with every variant a seed may pick."""
    if workload == "sweep":
        return [
            [["verify", check, "--n-max", str(s.sweep_n), "--jobs", JOBS]]
            for check in ("theorem1", "identity1")
        ]
    if workload == "series":
        return [
            [["verify", "chain", "--c", "0", "--d", "0", "--trunc", str(s.chain_trunc)]],
            [
                ["verify", "lemma", "--stat", "arm-left", "--c", str(c), "--d", str(d),
                 "--n-max", str(s.lemma_n), "--trunc", str(s.lemma_trunc)]
                for c, d in LEMMA_SPLITS
            ],
            [["verify", "fact", "--id", "2", "--k", "1", "--trunc", str(s.fact_trunc)]],
            [
                ["verify", "anatomy", "--c", str(c), "--d", str(d),
                 "--n-max", str(s.anatomy_n), "--trunc", str(s.anatomy_n)]
                for c, d in ANATOMY_SPLITS
            ],
        ]
    return [[["match", "--n", str(s.match_n), "--format", fmt]] for fmt in ("csv", "json")]


def commands(workload: str, s: Sizes, seed: int) -> list[list[str]]:
    """The seed picks a variant for each slot, then the order of the commands."""
    rng = random.Random(seed)
    chosen = [rng.choice(slot) for slot in candidates(workload, s)]
    rng.shuffle(chosen)
    return chosen


def key(cmd: list[str]) -> str:
    return " ".join(cmd)


def child_env() -> dict[str, str]:
    """The caller's environment with ``src`` first on the path and bytecode
    caching on, as for an installed package, whatever the caller set."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def check_output(name: str, code: int, stdout: bytes, digests: dict) -> Optional[str]:
    """Why the command's result is wrong, or None when it is right."""
    if code != 0:
        return f"exit code {code}"
    if any(line.startswith(b"FAIL") for line in stdout.splitlines()):
        return "printed a FAIL line"
    want = digests.get(name)
    if want is None:
        return "no recorded digest"
    if hashlib.sha256(stdout).hexdigest() != want["sha256"]:
        return "stdout differs from the recorded digest"
    return None


@dataclass
class Launch:
    code: int
    stdout: bytes
    stderr: bytes
    start: float
    end: float
    ready: Optional[float]  # perf_counter when the CLI had built its parser
    max_rss_kb: Optional[int]  # peak of the process and of the pool workers it reaped


class Session:
    """One run's child environment, scratch directory and digests, and the
    commands and probes it attempted, with the failed ones by name."""

    def __init__(self, digests: dict, scratch: Path):
        self.env = child_env()
        self.digests = digests
        self.scratch = scratch
        self.attempted = 0
        self.failures: list[dict] = []

    def launch(self, argv: list[str], **extra_env: str) -> Launch:
        """Run the interpreter on ``argv`` to its exit, timed from launch."""
        files = {name: self.scratch / name for name in ("stdout", "stderr", "ready", "rss")}
        for name in ("ready", "rss"):
            files[name].unlink(missing_ok=True)
        env = dict(self.env, PERFBENCH_READY=str(files["ready"]),
                   PERFBENCH_RSS=str(files["rss"]), **extra_env)
        with open(files["stdout"], "wb") as out, open(files["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, env=env,
                                    cwd=ROOT, start_new_session=True)
        # Popen.wait with a timeout polls, which would blur the exit time.
        watchdog = threading.Timer(TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            code = proc.wait()
        except BaseException:  # interrupted or terminated: take the pool down too
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        end = time.perf_counter()
        return Launch(
            code=code,
            stdout=files["stdout"].read_bytes(),
            stderr=files["stderr"].read_bytes(),
            start=start,
            end=end,
            ready=float(files["ready"].read_text()) if files["ready"].exists() else None,
            max_rss_kb=int(files["rss"].read_text()) if files["rss"].exists() else None,
        )

    def command(self, cmd: list[str], **extra_env: str) -> Launch:
        """One CLI command, as ``python -m hookpart`` runs it."""
        return self.launch([str(HERE / "launch.py"), *cmd], **extra_env)

    def tally(self, name: str, reason: Optional[str], stderr: bytes = b"") -> None:
        self.attempted += 1
        if reason:
            last = stderr.decode(errors="replace").strip().splitlines()[-1:]
            self.failures.append({"command": name, "reason": reason, "stderr": last})
            print(f"FAILED: {name}: {reason}", file=sys.stderr)

    def run_pass(self, cmds: list[list[str]], samples: dict[str, list]) -> float:
        """Set-up-only launches, then one pass over the command list; returns the
        pass's summed launch-to-exit time.  The host probe runs before every
        launch, while no child runs."""
        for _ in range(SETUP_LAUNCHES):
            samples["host_s"].append(host_probe())
            result = self.command(["--help"])
            self.tally("--help", None if result.code == 0 and result.ready else "set-up failed",
                       result.stderr)
            if result.ready is not None:
                samples["setup_s"].append(result.ready - result.start)
        wall = 0.0
        for cmd in cmds:
            samples["host_s"].append(host_probe())
            result = self.command(cmd)
            reason = check_output(key(cmd), result.code, result.stdout, self.digests)
            if reason is None and None in (result.ready, result.max_rss_kb):
                reason = "never reported its set-up time or peak RSS"
            self.tally(key(cmd), reason, result.stderr)
            wall += result.end - result.start
            samples["command_s"].append([key(cmd), result.end - result.start])
            if reason is None:
                samples["max_rss_kb"].append(result.max_rss_kb)
                samples["setup_s"].append(result.ready - result.start)
        samples["wall_s"].append(wall)
        return wall

    def run_probe(self, label: str, name: str, params: dict) -> Optional[dict]:
        result = self.launch([str(HERE / "probe.py"), name, json.dumps(params)])
        reason = None if result.code == 0 else f"probe exit code {result.code}"
        if reason is None and "digest" in params:
            path = Path(params["argv"][-1])
            reason = check_output(params["digest"], 0, path.read_bytes(), self.digests)
            path.unlink()
        self.tally(f"probe {label}", reason, result.stderr)
        return json.loads(result.stdout) if reason is None else None

    def traced_pass(self, cmds: list[list[str]]) -> tuple[float, list[dict]]:
        """One pass with spans recorded in every CLI process and its pool workers."""
        wall, spans = 0.0, []
        sink = self.scratch / "spans.jsonl"
        for cmd in cmds:
            result = self.command(cmd, PERFBENCH_TRACE=str(sink))
            reason = check_output(key(cmd), result.code, result.stdout, self.digests)
            self.tally(f"traced {key(cmd)}", reason, result.stderr)
            wall += result.end - result.start
            for path in sorted(self.scratch.glob(f"{sink.name}*")):
                for line in path.read_text(encoding="utf-8").splitlines():
                    spans.append(dict(json.loads(line), trace=key(cmd)))
                path.unlink()
        return wall, spans


def host_probe() -> float:
    """Seconds this interpreter takes for a fixed piece of pure-Python work
    that calls no hookpart code: big-integer additions, then 120,000 tuples
    and strings built, indexed in a dict and sorted, the kind of allocation
    the CLI's larger commands do.

    On a shared host, other tenants slow every process by up to 2x, in
    spells of a fraction of a second to minutes, so a run's times move
    with the share of it the host spent slow.  The probe's mean over the
    same run moves with that share, so ``time * HOST_REFERENCE_S / probe``
    is the time on a host of reference speed, and a change to the program
    cannot move the probe.
    """
    start = time.perf_counter()
    partition_counts(600)
    rows = [(i, str(i), i * i) for i in range(120_000)]
    index = {row[1]: row for row in rows}
    sorted(index)
    return time.perf_counter() - start


def new_samples() -> dict[str, list]:
    return {"wall_s": [], "setup_s": [], "max_rss_kb": [], "command_s": [], "host_s": []}


def measure(session: Session, cmds: list[list[str]], seconds: float) -> dict:
    """Untraced run: repeat passes for ``seconds`` and report end-to-end metrics."""
    session.command(["--help"])  # untimed: writes bytecode caches, warms the page cache
    samples = new_samples()
    began = time.perf_counter()
    while True:
        session.run_pass(cmds, samples)
        elapsed = time.perf_counter() - began
        if elapsed + elapsed / len(samples["wall_s"]) > seconds:
            break
    # Means for the pass and probe times: with the host switching between
    # a fast and a slow speed, a median of a few passes jumps between the
    # two, while a mean follows the share of time spent slow.
    raw = {
        "wall_s": statistics.mean(samples["wall_s"]),
        "setup_s": statistics.median(samples["setup_s"]) if samples["setup_s"] else None,
        "host_s": statistics.mean(samples["host_s"]),
    }
    scale = HOST_REFERENCE_S / raw["host_s"]
    return {
        "samples": samples,
        "unscaled": raw,
        "values": {
            "wall_s": raw["wall_s"] * scale,
            "setup_s": raw["setup_s"] * scale if raw["setup_s"] is not None else None,
            "peak_rss_mb": max(samples["max_rss_kb"]) / 1024 if samples["max_rss_kb"] else None,
        },
    }


def probe_plan(s: Sizes, seed: int, scratch: Path) -> list[tuple[str, str, dict]]:
    """(label, probe, params) for every layer probe, each run in its own interpreter."""
    plan = [(f"import{i}", "import", {}) for i in range(IMPORT_PROBES)]
    plan += [
        ("partitions", "partitions", {"n_max": s.sweep_n, "cells_n": s.match_n}),
        ("pair_multiset", "pair_multiset", {"n_max": s.sweep_n}),
        ("stat_polynomial", "stat_polynomial", {"n_max": s.sweep_n}),
        ("theorem1", "theorem1", {"n_max": s.sweep_n}),
        ("identity1", "identity1", {"n_max": s.sweep_n}),
        ("lemma", "lemma", {"c": 1, "d": 2, "n_max": s.lemma_n, "order": s.lemma_trunc}),
        ("qseries_ops", "qseries_ops", {"order": s.lemma_trunc, "seed": seed}),
        ("euler_inv", "euler_inv", {"order": s.lemma_trunc}),
        ("lemma_rhs", "lemma_rhs", {"c": 1, "d": 2, "order": s.lemma_trunc}),
        ("fact2", "fact2", {"k": 1, "order": s.fact_trunc}),
        ("proof_chain", "proof_chain", {"c": 0, "d": 0, "order": s.chain_trunc}),
        ("verify_anatomy", "verify_anatomy", {"c": 1, "d": 1, "n_max": s.anatomy_n}),
        ("explorer", "explorer", {"n": s.match_n}),
    ]
    # cli.run in-process, writing to --out; the file is checked like stdout.
    for label, cmd, wrap in [
        (f"render_{fmt}", ["match", "--n", str(s.match_n), "--format", fmt],
         [["explorer", "canonical_matching"]])
        for fmt in ("csv", "json")
    ] + [
        (f"pool_{check}", ["verify", check, "--n-max", str(s.sweep_n), "--jobs", JOBS], [])
        for check in ("theorem1", "identity1")
    ]:
        argv = cmd + ["--out", str(scratch / f"{label}.out")]
        plan.append((label, "cli", {"argv": argv, "digest": key(cmd), "wrap": wrap}))
    return plan


def trace(session: Session, cmds: list[list[str]], s: Sizes, seed: int) -> dict:
    """Traced run: every layer probe, then one untraced and one traced pass."""
    probes, spans = {}, []
    for label, name, params in probe_plan(s, seed, session.scratch):
        out = session.run_probe(label, name, params)
        if out is not None:
            probes[label] = out
            spans += [dict(span, trace=f"probe {label}") for span in out["spans"]]
    untraced = session.run_pass(cmds, new_samples())
    traced, command_spans = session.traced_pass(cmds)
    values = None
    if not session.failures:
        values = layer_metrics(s, probes, session.digests, cmds)
        values["trace.overhead_s"] = traced - untraced
    # Not contract metrics: a layer the workload never reaches reads 0 every run.
    self_s = self_times(command_spans)
    return {"spans": spans + command_spans, "values": values,
            "self_s": {layer: self_s.get(layer, 0.0) for layer in LAYERS}}


def layer_metrics(s: Sizes, probes: dict, digests: dict, cmds: list[list[str]]) -> dict:
    def durations(label: str, name: str) -> list[float]:
        return [sp["end"] - sp["start"] for sp in probes[label]["spans"] if sp["name"] == name]

    def duration(label: str, name: str) -> float:
        return sum(durations(label, name))

    counts = partition_counts(max(s.sweep_n, s.match_n))
    cells = sum(n * counts[n] for n in range(s.sweep_n + 1))
    serial = (duration("theorem1", "statistics.verify_theorem1")
              + duration("identity1", "statistics.verify_identity1"))
    pooled = duration("pool_theorem1", "cli.run") + duration("pool_identity1", "cli.run")
    pair_multiset_s = duration("pair_multiset", "statistics.build_pair_multiset")
    return {
        "partitions.enumerate_s": duration("partitions", "partitions.partitions_of"),
        "partitions.cells_s": duration("partitions", "partitions.cells"),
        "partitions.count": sum(counts[: s.sweep_n + 1]),
        "statistics.pair_multiset_s": pair_multiset_s,
        "statistics.stat_polynomial_s": duration("stat_polynomial", "statistics.stat_polynomial"),
        "statistics.theorem1_s": duration("theorem1", "statistics.verify_theorem1"),
        "statistics.identity1_s": duration("identity1", "statistics.verify_identity1"),
        "statistics.ns_per_cell": pair_multiset_s / cells * 1e9,
        "statistics.lemma_s": duration("lemma", "statistics.verify_lemma"),
        "statistics.cells": cells,
        "qseries.mul_s": statistics.median(durations("qseries_ops", "qseries.mul")),
        "qseries.invert_s": statistics.median(durations("qseries_ops", "qseries.invert")),
        "qseries.q_pochhammer_s": duration("qseries_ops", "qseries.q_pochhammer"),
        "qseries.euler_inv_s": duration("euler_inv", "qseries.euler_inv"),
        "qseries.lemma_rhs_s": duration("lemma_rhs", "qseries.lemma_rhs"),
        "qseries.fact2_s": duration("fact2", "qseries.verify_fact2"),
        "anatomy.proof_chain_s": duration("proof_chain", "anatomy.proof_chain"),
        "anatomy.verify_anatomy_s": duration("verify_anatomy", "anatomy.verify_anatomy"),
        "anatomy.anatomy_gf_s": duration("verify_anatomy", "anatomy.anatomy_gf"),
        "anatomy.corners": corner_count(1, 1, s.anatomy_n),
        "explorer.build_s": duration("explorer", "explorer.canonical_matching"),
        "explorer.gc_s": probes["explorer"]["values"]["gc_s"],
        "explorer.pairs": s.match_n * counts[s.match_n],
        "cli.import_s": statistics.median(
            duration(f"import{i}", "cli.import") for i in range(IMPORT_PROBES)
        ),
        "cli.render_s": sum(
            duration(f"render_{fmt}", "cli.run")
            - duration(f"render_{fmt}", "explorer.canonical_matching")
            for fmt in ("csv", "json")
        ),
        "cli.pool_efficiency": serial / (2 * pooled),
        "cli.pool_idle_s": 2 * pooled - serial,
        "cli.stdout_bytes": sum(digests[key(cmd)]["bytes"] for cmd in cmds),
    }


def environment() -> dict:
    git_rev = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git_rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "hookpart").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest(),
        "loadavg_1m": os.getloadavg()[0],
    }


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 sizes: Sizes = FULL, digests: Optional[dict] = None) -> dict:
    """One workload's result: the contract's four keys plus its details."""
    if digests is None:
        digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    cmds = commands(workload, sizes, seed)
    scratch = OUT / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    session = Session(digests, scratch)
    try:
        if traced:
            detail, units = trace(session, cmds, sizes, seed), PER_LAYER_UNITS
        else:
            detail, units = measure(session, cmds, seconds), END_TO_END_UNITS
    finally:
        shutil.rmtree(scratch)
    values = detail.pop("values") or {}
    for span in detail.get("spans", []):
        span.update(workload=workload, seed=seed)
    return {
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if values.get(name) is not None},
        "workload": workload,
        "seed": seed,
        "trace": traced,
        "commands": [key(cmd) for cmd in cmds],
        "failures": session.failures,
        **detail,
    }


def summarize(result: dict) -> None:
    print(f"{result['workload']} seed={result['seed']} trace={int(result['trace'])}: "
          + "; ".join(result["commands"]))
    for name, metric in result["metrics"].items():
        print(f"  {name:<30} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'fail_ratio':<30} {result['failed'] / result['attempted']:>16.6g} ratio "
          f"({result['failed']} of {result['attempted']} attempted)")
    if "self_s" in result:
        print("  self time by layer in the traced pass: " + ", ".join(
            f"{layer} {seconds:.4g} s" for layer, seconds in result["self_s"].items()))
    samples = result.get("samples", {})
    if samples:
        print(f"  samples: wall_s {len(samples['wall_s'])} passes, "
              f"setup_s {len(samples['setup_s'])} launches, "
              f"host probe {len(samples['host_s'])} runs")
    if "unscaled" in result:
        print("  unscaled: " + ", ".join(
            f"{name} {seconds:.6g} s" for name, seconds in result["unscaled"].items()
            if seconds is not None))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "hookpart" / "cli.py").is_file() or not DIGESTS.is_file():
        print(f"error: needs {SRC / 'hookpart'} and {DIGESTS}", file=sys.stderr)
        return 2
    env = environment()
    if env["loadavg_1m"] > (env["nproc"] or 1):
        print(f"warning: load average {env['loadavg_1m']:.2f} is above nproc {env['nproc']}; "
              "figures from a busy machine", file=sys.stderr)
    print(f"environment: {json.dumps(env)}")
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        result["environment"] = env
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        spans = result.pop("spans", [])
        (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
        if spans:
            (OUT / f"{stem}.spans.jsonl").write_text(
                "".join(json.dumps(span) + "\n" for span in spans), encoding="utf-8")
        summarize(result)
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": metric
                   for r in results for name, metric in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
