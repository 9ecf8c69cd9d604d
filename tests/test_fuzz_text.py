"""Property tests for the two text inputs: edited bytes of a valid
annotation TSV either fail to read, with ParseError or InputError, or
read as valid annotations, and through ``raresed eval`` exit 0, 2 or 3;
edited bytes of a valid config JSON either fail to load, with
InputError, or load as a dict, and through ``raresed synth`` and
``raresed train`` exit 0, 2 or 3. No edit may end in a traceback.

The edits are a truncation, a byte flip, and a rewrite of one field: a
TSV field of one row, or one value of the config. Examples are
derandomized, so every run tries the same edits.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from raresed.cli import load_config, main
from raresed.data import Utterance, load_dataset, save_dataset
from raresed.errors import InputError
from raresed.metrics import EventAnnotation, format_annotations, read_annotations

FUZZ = settings(derandomize=True, database=None, max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

REFS = {"a": EventAnnotation(0.5, 1.25), "b": None,
        "c": EventAnnotation(0.0, 0.023), "d": None, "e": EventAnnotation(2.5, 2.5)}
# The smallest shapes every command runs on in a few milliseconds. Edited
# integers stay below 8, or are far too large for any run to start, so no
# edit makes a run long.
CONFIG = {
    "data": {"train_count": 3, "dev_count": 3, "frames": 8, "dim": 2,
             "positive_fraction": 0.5, "ebr_db": [12.0], "duration_frames": [2, 4],
             "background_seed": 0, "seed": 3},
    "train": {"alpha": 1.0, "batch_size": 2, "stepsize": 0.002, "epochs": 1,
              "seed": 3, "thres0": 0.5, "thres1": 0.5, "margin": 2,
              "encoder": {"kind": "unidirectional", "layers": 1, "hidden": 2,
                          "multires_bidirectional": False}},
    "eval": {"collar_s": 0.5, "frame_shift_s": 0.023},
}
VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 7),
    st.sampled_from([0.0, -0.5, 0.25, 1.0, 1.5, 1e300, math.nan, math.inf, -math.inf]),
    st.text(max_size=4), st.just({"a": 1}),
    st.lists(st.sampled_from([1, 2, 1.5, -300.5, 1e300, math.nan, math.inf, "1"]),
             max_size=3),
    st.sampled_from(["unidirectional", "bidirectional", "multiresolution"]))
TSV_FIELDS = st.one_of(
    st.sampled_from(["", "0", "1", "2", "a", "c", "0.5", "-1", "1e400", "nan",
                     "inf", " 1", "1_0", "0x1", "é"]),
    st.text(max_size=6))


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> dict:
    """A valid annotation TSV and config, a dataset to train on, and paths
    for the edited files and the CLI's outputs."""
    tmp = tmp_path_factory.mktemp("text_fuzz")
    (tmp / "valid.tsv").write_text(format_annotations(REFS))
    rng = np.random.default_rng(3)
    save_dataset(tmp / "data.sed", [
        Utterance.positive("p", rng.standard_normal((2, 8)), 2, 4),
        Utterance.negative("n", rng.standard_normal((2, 8))),
        Utterance.positive("q", rng.standard_normal((2, 8)), 5, 8)])
    return {"tsv": (tmp / "valid.tsv").read_bytes(),
            "config": json.dumps(CONFIG).encode(), "dir": tmp,
            "edited_tsv": tmp / "edited.tsv", "edited_config": tmp / "edited.json",
            "valid_tsv": tmp / "valid.tsv", "data": tmp / "data.sed"}


def run(*argv) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return main([str(a) for a in argv])


def flip(data, blob: bytes) -> bytes:
    edited = bytearray(blob)
    at = data.draw(st.integers(0, len(edited) - 1))
    edited[at] ^= data.draw(st.integers(1, 255))
    return bytes(edited)


def check_tsv(files: dict, blob: bytes) -> None:
    """read_annotations gives ParseError/InputError or valid annotations;
    ``raresed eval`` exits 2 on the first and 0 or 3 on the second,
    whichever side the edited file is on."""
    path = files["edited_tsv"]
    path.write_bytes(blob)
    try:
        refs = read_annotations(path)
    except InputError:
        refs = None
    else:
        for uid, ann in refs.items():
            assert "\t" not in uid and uid.splitlines() in ([], [uid])
            assert ann is None or 0.0 <= ann.onset <= ann.offset
    valid = files["valid_tsv"]
    for ref, det in ((path, valid), (valid, path)):
        code = run("eval", "--ref", ref, "--det", det, "--out", files["dir"] / "eval")
        if refs is None:
            assert code == 2
        else:
            assert code == (0 if refs.keys() == REFS.keys() else 3)


def check_config(files: dict, blob: bytes) -> None:
    """load_config gives InputError or a dict; ``raresed synth`` and
    ``raresed train`` exit 2 on the first, and on the second synth exits
    0 or 2 and train 0, 2 or 3. A synth that succeeds writes datasets
    that load."""
    path = files["edited_config"]
    path.write_bytes(blob)
    try:
        assert isinstance(load_config(str(path)), dict)
        loaded = True
    except InputError:
        loaded = False
    out = files["dir"] / "out"
    code = run("synth", "--config", path, "--out", out / "synth")
    assert code in ((0, 2) if loaded else (2,))
    if code == 0:
        for split in ("train", "dev"):
            load_dataset(out / "synth" / f"{split}.sed")
    code = run("train", "--config", path, "--train-data", files["data"],
               "--dev-data", files["data"], "--out", out / "train")
    assert code in ((0, 2, 3) if loaded else (2,))


def config_leaves(node, path=()):
    """The key path of every value of a config that is not an object."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from config_leaves(value, path + (key,))
    else:
        yield path


class TestAnnotationEdits:
    @FUZZ
    @given(data=st.data())
    def test_truncation(self, files, data):
        blob = files["tsv"]
        check_tsv(files, blob[:data.draw(st.integers(0, len(blob) - 1))])

    @FUZZ
    @given(data=st.data())
    def test_byte_flip(self, files, data):
        check_tsv(files, flip(data, files["tsv"]))

    @FUZZ
    @given(data=st.data())
    def test_field_edit(self, files, data):
        lines = files["tsv"].decode().split("\n")
        row = data.draw(st.integers(1, len(REFS)))
        fields = lines[row].split("\t")
        fields[data.draw(st.integers(0, 3))] = data.draw(TSV_FIELDS)
        lines[row] = "\t".join(fields)
        check_tsv(files, "\n".join(lines).encode())

    def test_unedited_annotations_read_and_score(self, files):
        check_tsv(files, files["tsv"])
        assert read_annotations(files["edited_tsv"]) == REFS


class TestConfigEdits:
    @FUZZ
    @given(data=st.data())
    def test_truncation(self, files, data):
        blob = files["config"]
        check_config(files, blob[:data.draw(st.integers(0, len(blob) - 1))])

    @FUZZ
    @given(data=st.data())
    def test_byte_flip(self, files, data):
        check_config(files, flip(data, files["config"]))

    @FUZZ
    @given(data=st.data())
    def test_field_edit(self, files, data):
        config = json.loads(files["config"])
        *parents, key = data.draw(st.sampled_from(sorted(config_leaves(config))))
        node = config
        for part in parents:
            node = node[part]
        node[key] = data.draw(VALUES)
        check_config(files, json.dumps(config).encode())

    def test_unedited_config_runs(self, files):
        check_config(files, files["config"])
        assert (files["dir"] / "out" / "train" / "model.sem").exists()
