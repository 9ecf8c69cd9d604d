"""The benchmark imports package names and the traced run wraps package
functions by module attribute (bench/layers.py SPANS). A rename or move
here would only show up as a failing ``bench/run.py``; these tests make
it fail the suite instead."""

import ast
import importlib
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


def bench_package_references() -> set[tuple[str, str]]:
    """(module, name) for every ``from raresed.<mod> import <name>`` and
    every ``sys.modules["raresed.<mod>"].<name>`` in bench/*.py."""
    refs = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.startswith("raresed.")):
                refs.update((node.module, alias.name) for alias in node.names)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Subscript)
                  and ast.unparse(node.value.value) == "sys.modules"
                  and isinstance(node.value.slice, ast.Constant)
                  and str(node.value.slice.value).startswith("raresed.")):
                refs.add((node.value.slice.value, node.attr))
    return refs


def test_every_package_name_the_benchmark_imports_resolves():
    refs = bench_package_references()
    # The benchmark's set-up imports at least these; an empty scan would
    # pass vacuously.
    assert ("raresed.detector", "batch_loss_and_gradients") in refs
    assert ("raresed.cli", "main") in refs
    missing = [f"{module}.{name}" for module, name in sorted(refs)
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"the benchmark imports missing names: {missing}"
