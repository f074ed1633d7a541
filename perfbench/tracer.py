"""In-memory span tracer used by the benchmark's traced runs.

A span records its name, start, end, parent span and op id.  Spans are kept
in a list while the run lasts and written out once, when it ends.  A span's
self time is its duration minus the time its direct children cover; the
benchmark is single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from pathlib import Path


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "children_s")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.children_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children_s


class Tracer:
    """Records nested spans while ``active``; inactive, a span records nothing."""

    def __init__(self, active: bool = True):
        self.spans: list = []
        self.active = active
        self.op = None
        self._stack: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.active:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), parent, self.op)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.children_s += sp.duration
            self.spans.append(sp)

    def wrap(self, fn, name: str):
        """A stand-in for ``fn`` that records a span around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def named(self, name: str, op=None) -> list:
        return [s for s in self.spans if s.name == name and (op is None or s.op == op)]

    def median_self(self, name: str) -> float:
        times = [s.self_time for s in self.named(name)]
        return statistics.median(times) if times else 0.0

    def median_duration(self, name: str) -> float:
        times = [s.duration for s in self.named(name)]
        return statistics.median(times) if times else 0.0

    def write(self, path: Path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "op": s.op,
                    "parent": index.get(id(s.parent)),
                    "start": s.start, "end": s.end,
                    "self_s": s.self_time,
                }) + "\n")
