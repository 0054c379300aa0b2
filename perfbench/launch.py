"""Run the hookpart CLI as ``python -m hookpart ARGS...`` does, and say when it is ready.

Usage: python3 perfbench/launch.py ARGS...   (with ``src`` on PYTHONPATH)

When the CLI has built its argument parser, the ``time.perf_counter``
reading is written to the file named by PERFBENCH_READY; at exit, the
peak RSS in KiB of this process and the pool workers it reaped goes to
the file named by PERFBENCH_RSS.
With PERFBENCH_TRACE=PATH, spans around the import, the run and the
layer functions the CLI reaches are written to PATH as JSON lines, and
pool workers append theirs to PATH.<pid>.
"""

import os
import runpy
import sys
import time

# Public layer entry points the CLI commands reach, by module.
TRACED = {
    "statistics": ("verify_theorem1", "verify_identity1", "verify_lemma", "count_pair"),
    "qseries": ("verify_fact2", "lemma_rhs", "euler_inv", "q_pochhammer"),
    "anatomy": ("proof_chain", "verify_anatomy", "anatomy_gf"),
    "explorer": ("canonical_matching",),
}


def _report_ready() -> None:
    now = time.perf_counter()
    path = os.environ.pop("PERFBENCH_READY", None)
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(repr(now))


def _report_peak_rss() -> None:
    """On Linux, ru_maxrss of an exec'd process starts at its spawner's
    high-water mark, so this process's own peak is read from its memory
    map; pool workers are forked, so their ru_maxrss is their own."""
    import resource

    with open("/proc/self/status", encoding="ascii") as status:
        own = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    peak = max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    with open(os.environ["PERFBENCH_RSS"], "w", encoding="utf-8") as handle:
        handle.write(str(peak))


def _run_cli() -> None:
    import hookpart.cli as cli

    build_parser = cli.build_parser

    def ready_parser():
        parser = build_parser()
        _report_ready()
        return parser

    cli.build_parser = ready_parser
    runpy.run_module("hookpart", run_name="__main__", alter_sys=True)


def _run_traced(sink: str) -> None:
    import importlib

    from spans import Tracer

    tracer = Tracer(sink)
    with tracer.span("cli.import"):
        import hookpart.cli  # noqa: F401
    for module, names in TRACED.items():
        for name in names:
            tracer.wrap(importlib.import_module(f"hookpart.{module}"), name)
    try:
        with tracer.span("cli.run"):
            _run_cli()
    finally:
        tracer.dump()


def main() -> None:
    sink = os.environ.pop("PERFBENCH_TRACE", None)
    try:
        if sink is None:
            _run_cli()
        else:
            _run_traced(sink)
    finally:
        if "PERFBENCH_RSS" in os.environ:
            _report_peak_rss()


if __name__ == "__main__":
    main()
