"""Session fixtures: one CLI pipeline run on the desk preset, shared by the
acceptance suite and the training tests."""

from __future__ import annotations

import json
import time
import tracemalloc
from pathlib import Path

import pytest

from raresed.cli import main


@pytest.fixture(scope="session")
def desk_data(tmp_path_factory) -> dict:
    """Synthesized desk-preset dataset directory."""
    out = tmp_path_factory.mktemp("desk_data")
    config = out / "config.json"
    config.write_text(json.dumps({"preset": "desk"}))
    code = main(["synth", "--config", str(config), "--out", str(out)])
    assert code == 0
    return {
        "dir": out,
        "config": config,
        "train": out / "train.sed",
        "dev": out / "dev.sed",
        "train_ref": out / "train_ref.tsv",
        "dev_ref": out / "dev_ref.tsv",
    }


def run_desk_pipeline(desk_data: dict, out: Path) -> dict:
    """Train on the desk data, then run inference on the dev split."""
    t0 = time.perf_counter()
    code = main([
        "train", "--config", str(desk_data["config"]),
        "--train-data", str(desk_data["train"]),
        "--dev-data", str(desk_data["dev"]),
        "--out", str(out),
    ])
    train_seconds = time.perf_counter() - t0
    assert code == 0
    infer_out = out / "infer"
    code = main([
        "infer", "--model", str(out / "model.sem"),
        "--data", str(desk_data["dev"]),
        "--out", str(infer_out),
    ])
    assert code == 0
    return {
        "dir": out,
        "model": out / "model.sem",
        "report": out / "report.tsv",
        "detections": infer_out / "detections.tsv",
        "train_seconds": train_seconds,
    }


@pytest.fixture(scope="session")
def desk_run(desk_data, tmp_path_factory) -> dict:
    """First full pipeline run; reruns for determinism checks make their own."""
    out = tmp_path_factory.mktemp("desk_run")
    return run_desk_pipeline(desk_data, out)


def parse_report(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    head = lines[0].split("\t")
    rows = []
    for line in lines[1:]:
        if line:
            rows.append(dict(zip(head, line.split("\t"))))
    return rows


def pin_cases(pins: dict) -> list:
    """pytest params for a pin table keyed (kind, mr_bidir, shape). The
    "small" cases keep the ids they had before the table had a shape."""
    return [pytest.param(*key, id="-".join(
                str(part) for part in (key[:2] if key[2] == "small" else key)))
            for key in pins]


def traced_peak(run) -> int:
    """The tracemalloc peak, in bytes, of ``run()``."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
