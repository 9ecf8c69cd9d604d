"""The traced benchmark run wraps package functions by module attribute
(bench/layers.py SPANS). A rename here would only show up as a failing
``bench/run.py --trace 1``; this test makes it fail the suite instead."""

import importlib.util
import sys
from pathlib import Path

import raresed.cli  # noqa: F401  (loads every module the spans name)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_layers(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # layers imports spans
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_names_an_attribute_tracer_wrap_finds(monkeypatch):
    spans = load_layers(monkeypatch).SPANS
    assert spans
    missing = []
    for module, attr, _, _ in spans:
        # The lookup Tracer.wrap makes: sys.modules, getattr along the
        # dotted path, then the owner's own __dict__.
        owner = sys.modules[module]
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        if name not in owner.__dict__:
            missing.append(f"{module}.{attr}")
    assert not missing, f"benchmark spans name missing attributes: {missing}"
