"""Spans around the program's public functions, recorded from outside.

``Tracer.wrap`` replaces a module or class attribute with a wrapper that
times each call as a span. Spans nest on one thread, so a span's self
time is its duration minus the durations of its direct children. Each
span name keeps its call count, total and self time, and any counters
its ``count`` function adds; ``uninstall`` puts the originals back.

Callers look a function up on the module that imported it, so a wrapper
must be installed on that module's attribute. Modules are reached
through ``sys.modules``: ``raresed.train`` as an attribute of the
package is the re-exported ``train`` function, not the module.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class Stats:
    __slots__ = ("calls", "total_s", "self_s", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts: dict[str, int] = defaultdict(int)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stats] = defaultdict(Stats)
        self._stack: list[list[float]] = []  # [start, child duration]
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, module: str, attr: str, span: str, count=None) -> None:
        """Time calls of ``module.attr`` (``attr`` may be ``Class.method``)
        as ``span``; ``count(stats.counts, result, *args, **kwargs)`` may
        add counters after each call."""
        owner = sys.modules[module]
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[name]
        stats = self.stats[span]
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                duration = time.perf_counter() - frame[0]
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if count is not None:
                count(stats.counts, result, *args, **kwargs)
            return result

        setattr(owner, name, wrapper)
        self._originals.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals.clear()

    def snapshot(self) -> dict[str, dict]:
        """Copy of the figures so far, keyed by span name."""
        return {name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s,
                       **s.counts} for name, s in self.stats.items()}
