"""In-memory spans around calls into hookpart's layers.

A span is a dict with ``id``, ``parent``, ``name``, ``start`` and ``end``.
Times come from ``time.perf_counter``, which on Linux reads the
system-wide monotonic clock, so spans taken in different processes share
one time base.  A span's layer is its name up to the first dot
(``statistics.verify_theorem1`` belongs to ``statistics``).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Iterator, Optional


class Tracer:
    """Records spans in memory; ``dump`` writes them as JSON lines.

    A process forked from the one that made the tracer (a CLI pool worker)
    exits without running cleanup code, so it appends each span to
    ``<sink>.<pid>`` as the span ends instead.
    """

    def __init__(self, sink: Optional[str] = None):
        self.pid = os.getpid()
        self.sink = sink
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._count = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self._count += 1
        record = {
            "id": f"{os.getpid()}:{self._count}",
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
        }
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self._record(record)

    def _record(self, record: dict) -> None:
        if os.getpid() == self.pid:
            self.spans.append(record)
        elif self.sink:
            with open(f"{self.sink}.{os.getpid()}", "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")

    def wrap(self, module, name: str) -> None:
        """Put a span named ``<layer>.<name>`` around every call of the public
        function ``module.name``, under each hookpart module name bound to it."""
        original = getattr(module, name)
        label = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(label):
                return original(*args, **kwargs)

        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if mod_name.split(".")[0] == "hookpart" and getattr(mod, name, None) is original:
                setattr(mod, name, traced)

    def dump(self) -> None:
        with open(self.sink, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per layer, the span time not covered by child spans.

    Children of one span may run in parallel pool workers, so the covered
    part is the union of their intervals, clipped to the parent's.
    """
    children: dict[str, list[dict]] = defaultdict(list)
    for record in spans:
        if record["parent"] is not None:
            children[record["parent"]].append(record)
    totals: dict[str, float] = defaultdict(float)
    for record in spans:
        start, end = record["start"], record["end"]
        covered = 0.0
        reach = start
        for child in sorted(children[record["id"]], key=lambda c: c["start"]):
            lo, hi = max(child["start"], reach), min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[record["name"].split(".", 1)[0]] += (end - start) - covered
    return dict(totals)
