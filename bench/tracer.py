"""Call tracing for the traced run, done from outside the package.

The tracer replaces module attributes of suffixlab with timing wrappers
and puts the originals back on uninstall; no file under src/ changes.
Callers inside the package look these names up in their module's globals
at call time, so internal calls are traced too.

Two kinds of target:
- span targets are called rarely (under about 10^4 times per pass). Each
  call records a span (name, start, end, parent span) and pushes a frame,
  so the time of traced calls below it is subtracted to give self time.
- aggregate targets are hot leaves (growth_of_digits runs 2^20 times per
  omega-20 pass). They only add to a count and a total, and charge their
  time to the enclosing span's children.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Target:
    module: str
    name: str
    #: per-layer metric fields reported for this function
    fields: tuple[str, ...]
    aggregate: bool = False
    #: work done by one call, read from its result (nodes built, hits found)
    count: Callable | None = None

    @property
    def key(self) -> str:
        return f"{self.module}.{self.name}"


class Stat:
    __slots__ = ("s", "self_s", "calls", "count")

    def __init__(self):
        self.s = 0.0
        self.self_s = 0.0
        self.calls = 0
        self.count = 0


class Tracer:
    """Wraps every target between install and uninstall.

    stats and spans keep what the wrappers saw until the next install.
    """

    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.stats: dict[str, Stat] = {}
        #: (span id, parent span id or -1, name, start, end), in end order
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._children = [0.0]  # traced time below each open span frame
        self._open = [-1]  # ids of the open spans
        self._next_id = 0
        self._originals = []

    def install(self) -> None:
        """Start a fresh trace: zeroed stats, no spans, wrappers in place."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        self.stats = {t.key: Stat() for t in self.targets}
        self.spans = []
        self._next_id = 0
        for t in self.targets:
            module = importlib.import_module(f"suffixlab.{t.module}")
            fn = getattr(module, t.name)
            self._originals.append((module, t.name, fn))
            wrap = self._aggregate if t.aggregate else self._span
            setattr(module, t.name, wrap(fn, self.stats[t.key], t))

    def uninstall(self) -> None:
        for module, name, fn in self._originals:
            setattr(module, name, fn)
        self._originals = []

    def _aggregate(self, fn, stat: Stat, target: Target):
        children = self._children
        count = target.count

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            stat.s += dt
            stat.calls += 1
            children[-1] += dt
            if count is not None:
                stat.count += count(result)
            return result

        return wrapper

    def _span(self, fn, stat: Stat, target: Target):
        children = self._children
        opened = self._open
        spans = self.spans
        count = target.count
        name = target.key

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = opened[-1]
            children.append(0.0)
            opened.append(span_id)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                opened.pop()
                below = children.pop()
                children[-1] += dt
                stat.s += dt
                stat.self_s += dt - below
                stat.calls += 1
                spans.append((span_id, parent, name, t0, t1))
            if count is not None:
                stat.count += count(result)
            return result

        return wrapper
