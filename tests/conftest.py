"""Session fixtures: README's CLI walkthrough run once on the desk preset,
shared by the acceptance suite, the CLI tests and the training tests."""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import raresed

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_section(title: str) -> str:
    """The body of README's "## <title>..." section, up to the next
    second-level heading."""
    after = README.read_text().split(f"\n## {title}", 1)[1]
    return after.split("\n", 1)[1].split("\n## ", 1)[0]


def walkthrough_steps() -> dict[int, list[str]]:
    """README's "CLI walkthrough" shell block as its numbered steps, each
    a list of commands with their continuation lines joined."""
    section = readme_section("CLI walkthrough")
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    steps: dict[int, list[str]] = {}
    for line in block.replace("\\\n", " ").splitlines():
        number = re.match(r"# (\d+)\. ", line)
        if number:
            steps[int(number[1])] = []
        elif line.strip():
            steps[max(steps)].append(line)
    return steps


@pytest.fixture(scope="session")
def walkthrough(tmp_path_factory) -> dict:
    """Steps 1-4 of the README walkthrough, run verbatim through /bin/sh in
    a fresh directory with `raresed` spelled `python -m raresed` and one
    BLAS thread, as README advises at desk shapes. Every command runs, and
    its step, text, exit code and stderr are recorded in `runs`;
    `train_seconds` is the wall time of the `train` command."""
    cwd = tmp_path_factory.mktemp("walkthrough")
    src = str(Path(raresed.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    program = f"{shlex.quote(sys.executable)} -m raresed"
    steps = walkthrough_steps()
    runs, train_seconds = [], None
    for number in range(1, 5):
        for command in steps.get(number, []):
            t0 = time.perf_counter()
            done = subprocess.run(re.sub(r"^raresed ", program + " ", command),
                                  shell=True, cwd=cwd, env=env,
                                  capture_output=True, text=True, timeout=120)
            if command.startswith("raresed train "):
                train_seconds = time.perf_counter() - t0
            runs.append((number, command, done.returncode, done.stderr))
    return {"dir": cwd, "steps": steps, "runs": runs,
            "train_seconds": train_seconds}


def assert_steps_passed(walkthrough: dict, numbers: range) -> None:
    """Every command of the given walkthrough steps exited 0."""
    for number, command, code, stderr in walkthrough["runs"]:
        assert number not in numbers or code == 0, (command, stderr)


@pytest.fixture(scope="session")
def desk_data(walkthrough) -> dict:
    """The desk-preset dataset that walkthrough step 1 synthesized."""
    assert_steps_passed(walkthrough, range(1, 2))
    data = walkthrough["dir"] / "data"
    return {
        "config": walkthrough["dir"] / "config.json",
        "train": data / "train.sed",
        "dev": data / "dev.sed",
        "train_ref": data / "train_ref.tsv",
        "dev_ref": data / "dev_ref.tsv",
    }


@pytest.fixture(scope="session")
def desk_run(walkthrough) -> dict:
    """What walkthrough steps 2-4 wrote: the model and training report,
    the dev set's detections and their scores."""
    assert_steps_passed(walkthrough, range(1, 5))
    run = walkthrough["dir"] / "run"
    return {
        "model": run / "model.sem",
        "report": run / "report.tsv",
        "detections": run / "infer" / "detections.tsv",
        "eval": run / "eval" / "eval.tsv",
        "train_seconds": walkthrough["train_seconds"],
    }


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
