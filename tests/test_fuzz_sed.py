"""Property tests: edited bytes of a valid ``.sed`` dataset either fail to
load, with ParseError or InputError, or load as a valid dataset whose
every record reads back; through the CLI's ``infer`` and ``train`` they
exit 0, 2 or 3, never with a traceback.

The edits are a truncation, a byte flip, and a rewrite of one header
field: the record count, or a record's id length, label, dim, T, onset,
offset or metadata length. Examples are derandomized, so every run
tries the same edits.
"""

from __future__ import annotations

import contextlib
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from raresed.cli import main
from raresed.data import Utterance, load_dataset, save_dataset
from raresed.detector import EventModel
from raresed.errors import InputError
from raresed.recurrent import EncoderConfig
from raresed.train import TrainConfig, save_model

DIM = 4
ENCODER = EncoderConfig(kind="unidirectional", layers=1, hidden=2, input_dim=DIM)
FUZZ = settings(derandomize=True, database=None, max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])
TRAIN = {"train": {"alpha": 1.0, "batch_size": 4, "stepsize": 0.01, "epochs": 1,
                   "seed": 5, "thres0": 0.5, "thres1": 0.5, "margin": 3,
                   "encoder": {"kind": "unidirectional", "layers": 1, "hidden": 2}}}


def field_offsets(blob: bytes) -> dict:
    """Byte offset and struct format of each header field of a valid
    file: (name, record) -> (offset, format); the count has record -1."""
    fields = {("count", -1): (8, "<Q")}
    pos = 16
    for rec in range(struct.unpack_from("<Q", blob, 8)[0]):
        fields["id length", rec] = (pos, "<I")
        pos += 4 + struct.unpack_from("<I", blob, pos)[0]
        fields["label", rec] = (pos, "<B")
        for i, name in enumerate(("dim", "T", "onset", "offset")):
            fields[name, rec] = (pos + 1 + 4 * i, "<I")
        dim, t_len = struct.unpack_from("<II", blob, pos + 1)
        pos += 17
        fields["meta length", rec] = (pos, "<I")
        pos += 4 + struct.unpack_from("<I", blob, pos)[0] + 8 * dim * t_len
    assert pos == len(blob)
    return fields


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> dict:
    """A valid dataset's bytes, a model that can score it, a training
    config and a valid dev set, and paths for the edited file and the
    CLI's outputs."""
    tmp = tmp_path_factory.mktemp("sed_fuzz")
    rng = np.random.default_rng(7)
    save_dataset(tmp / "valid.sed", [
        Utterance.positive("a", rng.standard_normal((DIM, 12)), 3, 6,
                           meta={"scene": 1}),
        Utterance.negative("b", rng.standard_normal((DIM, 12))),
        Utterance.positive("c", rng.standard_normal((DIM, 7)), 1, 2),
        Utterance.negative("d", rng.standard_normal((DIM, 12)), meta={"x": [1]}),
    ])
    save_model(tmp / "model.sem", EventModel.initialize(ENCODER, seed=5),
               TrainConfig(encoder=ENCODER, seed=5))
    (tmp / "train.json").write_text(json.dumps(TRAIN))
    blob = (tmp / "valid.sed").read_bytes()
    return {"blob": blob, "fields": field_offsets(blob), "edited": tmp / "edited.sed",
            "valid": tmp / "valid.sed", "model": tmp / "model.sem",
            "config": tmp / "train.json", "out": tmp / "out"}


def run(*argv) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return main([str(a) for a in argv])


def check_edit(files: dict, blob: bytes) -> None:
    """load_dataset gives a ParseError/InputError or a dataset whose
    records all read back; ``raresed infer`` and ``raresed train`` exit
    2 on the first, and 0, 2 or 3 on the second."""
    path = files["edited"]
    path.write_bytes(blob)
    try:
        dataset = load_dataset(path)
    except InputError:
        dims = None
    else:
        with dataset:
            for record in dataset:
                features = record.features
                assert features.shape == (record.dim, record.n_frames)
                assert np.isfinite(features).all()
                if record.y:
                    assert 1 <= record.onset <= record.offset <= record.n_frames
                else:
                    assert record.onset is None and record.offset is None
        dims = {record.dim for record in dataset}
    code = run("infer", "--model", files["model"], "--data", path,
               "--out", files["out"] / "infer")
    assert code == (2 if dims is None else 3 if dims - {DIM} else 0)
    code = run("train", "--config", files["config"], "--train-data", path,
               "--dev-data", files["valid"], "--out", files["out"] / "train")
    assert code in ((2,) if dims is None else (0, 2, 3))


class TestSedEdits:
    @FUZZ
    @given(data=st.data())
    def test_truncation(self, files, data):
        blob = files["blob"]
        check_edit(files, blob[:data.draw(st.integers(0, len(blob) - 1))])

    @FUZZ
    @given(data=st.data())
    def test_byte_flip(self, files, data):
        blob = bytearray(files["blob"])
        # Half the flips land before the first record's features.
        first = files["fields"]["meta length", 0][0] + 4
        end = data.draw(st.sampled_from([first, len(blob)]))
        at = data.draw(st.integers(0, end - 1))
        blob[at] ^= data.draw(st.integers(1, 255))
        check_edit(files, bytes(blob))

    @FUZZ
    @given(data=st.data())
    def test_length_field_edit(self, files, data):
        blob = bytearray(files["blob"])
        at, fmt = files["fields"][data.draw(st.sampled_from(sorted(files["fields"])))]
        (old,) = struct.unpack_from(fmt, blob, at)
        limit = 2 ** (8 * struct.calcsize(fmt)) - 1
        value = data.draw(st.one_of(st.integers(max(0, old - 8), old + 8),
                                    st.integers(0, limit)))
        struct.pack_into(fmt, blob, at, value)
        check_edit(files, bytes(blob))

    def test_unedited_dataset_loads_and_runs(self, files):
        check_edit(files, files["blob"])
        assert (files["out"] / "infer" / "detections.tsv").read_text().count("\n") == 5
        assert (files["out"] / "train" / "model.sem").exists()
