"""Tests of the benchmark's span recorder.

Run with ``python3 -m pytest bench/test_spans.py``.
"""

import sys
import time
import types

from spans import Tracer


def make_module():
    mod = types.ModuleType("spans_fixture")

    def leaf(seconds):
        time.sleep(seconds)
        return seconds

    def outer(seconds):
        time.sleep(seconds)
        return mod.leaf(seconds) + mod.leaf(seconds)

    mod.leaf, mod.outer = leaf, outer
    sys.modules[mod.__name__] = mod
    return mod


def test_self_time_excludes_child_spans():
    mod = make_module()
    tracer = Tracer()
    tracer.wrap(mod.__name__, "leaf", "leaf",
                count=lambda counts, result, seconds: counts.__setitem__(
                    "items", counts["items"] + 1))
    tracer.wrap(mod.__name__, "outer", "outer")
    assert mod.outer(0.02) == 0.04
    stats = tracer.snapshot()
    assert stats["leaf"]["calls"] == 2 and stats["leaf"]["items"] == 2
    assert stats["outer"]["calls"] == 1
    assert stats["outer"]["total_s"] >= 0.06
    assert 0.015 <= stats["outer"]["self_s"] < stats["outer"]["total_s"] - 0.035


def test_uninstall_restores_the_originals_and_stops_counting():
    mod = make_module()
    leaf = mod.leaf
    tracer = Tracer()
    tracer.wrap(mod.__name__, "leaf", "leaf")
    mod.leaf(0)
    tracer.uninstall()
    assert mod.leaf is leaf
    mod.leaf(0)
    tracer.wrap(mod.__name__, "leaf", "leaf")
    mod.leaf(0)
    tracer.uninstall()
    assert tracer.snapshot()["leaf"]["calls"] == 2
