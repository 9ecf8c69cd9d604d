"""The benchmark imports package names and the traced run wraps package
functions by module attribute (bench/layers.py SPANS). A rename or move
here would only show up as a failing ``bench/run.py``; these tests make
it fail the suite instead."""

import ast
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import raresed.cli  # noqa: F401  (loads every module the spans name)
from fdcheck import random_utterance
from raresed.cli import main
from raresed.detector import EventModel, batch_loss_and_gradients
from raresed.recurrent import EncoderConfig

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(monkeypatch, name: str):
    """bench/<name>.py as a module; it may import its bench/ siblings."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up by name while they are built.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_span_names_an_attribute_tracer_wrap_finds(monkeypatch):
    spans = load_bench(monkeypatch, "layers").SPANS
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


@pytest.mark.parametrize("kind,mr_bidir", [("unidirectional", False),
                                           ("bidirectional", False),
                                           ("multiresolution", False),
                                           ("multiresolution", True)])
def test_encoder_span_counters_read_a_real_trace(monkeypatch, kind, mr_bidir):
    # The traced run's encoder counters read the arguments and the trace
    # of encoder_forward and encoder_backward; run them, through the
    # benchmark's own tracer, on one real batch.
    layers = load_bench(monkeypatch, "layers")
    tracer = layers.Tracer()
    for module, attr, span, count in layers.SPANS:
        if span in ("recurrent.forward", "recurrent.backward"):
            tracer.wrap(module, attr, span, count)
    cfg = EncoderConfig(kind=kind, layers=2, hidden=3, input_dim=4,
                        multires_bidirectional=mr_bidir)
    rng = np.random.default_rng(61)
    batch = [random_utterance(rng, 4, 7, positive=i == 0, id=str(i)) for i in range(2)]
    try:
        batch_loss_and_gradients(EventModel.initialize(cfg, seed=61), batch, 1.0, 2)
    finally:
        tracer.uninstall()
    final = tracer.snapshot()
    assert final["recurrent.forward"]["calls"] == 1
    assert final["recurrent.backward"]["calls"] == 1
    figures = layers.per_layer({}, final, rounds=1)
    assert figures["recurrent.forward.frames"]["value"] > 0
    assert figures["recurrent.gflop_per_s"]["value"] > 0


def test_tiny_grad_workload_sets_up_runs_and_verifies(monkeypatch, tmp_path):
    # tiny-grad is the one workload that builds Utterance and EventModel
    # itself instead of going through the CLI: its set-up, a timed round
    # and its finite-difference checks must run on the package as it is.
    workload = load_bench(monkeypatch, "workloads").TinyGrad(seed=3)
    assert len(workload.setup(str(tmp_path / "setup"))) == 64
    done = workload.round(str(tmp_path / "round"))
    assert done.units == done.attempted == len(workload.reference) > 0
    workload.verify()
    assert workload.quality["fd_worst_rel_err"] < workload.REL_TOL


def test_traced_training_counts_each_span_once_per_call(monkeypatch, tmp_path):
    # The traced run's per-layer figures are only right if training calls
    # each wrapped function through the attribute SPANS names: a call that
    # bypasses it drops out of the counts, and one wrapped twice doubles.
    epochs, train_count, batch_size, dev_count = 2, 11, 5, 6
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "data": {"train_count": train_count, "dev_count": dev_count, "frames": 20,
                 "dim": 4, "positive_fraction": 0.5, "ebr_db": [12.0],
                 "duration_frames": [4, 8], "seed": 5},
        "train": {"batch_size": batch_size, "stepsize": 0.002, "epochs": epochs,
                  "seed": 5, "margin": 5,
                  "encoder": {"kind": "multiresolution", "layers": 1, "hidden": 3}},
    }))
    data = tmp_path / "data"
    assert main(["synth", "--config", str(config), "--out", str(data)]) == 0
    tracer = load_bench(monkeypatch, "layers").install()
    try:
        assert main(["train", "--config", str(config), "--train-data", str(data / "train.sed"),
                     "--dev-data", str(data / "dev.sed"), "--out", str(tmp_path / "run")]) == 0
    finally:
        tracer.uninstall()
    calls = {span: figures["calls"] for span, figures in tracer.snapshot().items()}
    minibatches = -(-train_count // batch_size)
    assert {span: calls.get(span) for span in (
        "train.loop", "detector.loss_grad", "numerics.adam", "train.dev_eval",
        "detector.infer", "detector.decide")} == {
        "train.loop": 1,
        "detector.loss_grad": epochs * minibatches,
        "numerics.adam": epochs * minibatches,
        "train.dev_eval": epochs,
        "detector.infer": epochs,
        "detector.decide": epochs * dev_count,
    }
