"""Property tests: edited bytes of a valid ``.sem`` model snapshot either
fail to parse, with ParseError or InputError, or load as a valid model;
through the CLI's ``infer`` they exit 2 or 0, never with a traceback.

The edits are a truncation, a byte flip, and a rewrite of one of the
three binary fields (version, header length, parameter count). Examples
are derandomized, so every run tries the same edits.
"""

from __future__ import annotations

import contextlib
import io
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from raresed.cli import main
from raresed.data import Utterance, save_dataset
from raresed.detector import EventModel
from raresed.errors import InputError
from raresed.recurrent import EncoderConfig
from raresed.train import TrainConfig, load_model, save_model

ENCODER = EncoderConfig(kind="bidirectional", layers=2, hidden=3, input_dim=4)
FUZZ = settings(derandomize=True, database=None, max_examples=120, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> dict:
    """A valid snapshot's bytes, a dataset it can score, and paths for
    the edited snapshot and the CLI's output."""
    tmp = tmp_path_factory.mktemp("sem_fuzz")
    model = EventModel.initialize(ENCODER, seed=5)
    save_model(tmp / "valid.sem", model, TrainConfig(encoder=ENCODER, seed=5))
    rng = np.random.default_rng(5)
    save_dataset(tmp / "data.sed", [
        Utterance.positive("a", rng.standard_normal((4, 12)), 3, 6),
        Utterance.negative("b", rng.standard_normal((4, 12))),
        Utterance.negative("c", rng.standard_normal((4, 7))),
    ])
    return {"blob": (tmp / "valid.sem").read_bytes(), "edited": tmp / "edited.sem",
            "data": tmp / "data.sed", "out": tmp / "out"}


def header_length(blob: bytes) -> int:
    return struct.unpack_from("<I", blob, 8)[0]


def check_edit(files: dict, blob: bytes) -> None:
    """load_model gives a ParseError/InputError or a valid model, and
    ``raresed infer`` exits 2 or 0 accordingly."""
    path = files["edited"]
    path.write_bytes(blob)
    try:
        model, header = load_model(path)
    except InputError:
        loaded = False
    else:
        loaded = True
        assert model.params.shape == (model.param_count,)
        assert np.isfinite(model.params).all()
        assert EncoderConfig(**header["encoder"]) == model.config
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(["infer", "--model", str(path), "--data", str(files["data"]),
                     "--out", str(files["out"])])
    assert code == (0 if loaded else 2), sink.getvalue()


class TestSemEdits:
    @FUZZ
    @given(data=st.data())
    def test_truncation(self, files, data):
        blob = files["blob"]
        check_edit(files, blob[:data.draw(st.integers(0, len(blob) - 1))])

    @FUZZ
    @given(data=st.data())
    def test_byte_flip(self, files, data):
        blob = bytearray(files["blob"])
        # Half the flips land in the magic, binary fields and JSON header.
        end = data.draw(st.sampled_from([12 + header_length(blob) + 8, len(blob)]))
        at = data.draw(st.integers(0, end - 1))
        blob[at] ^= data.draw(st.integers(1, 255))
        check_edit(files, bytes(blob))

    @FUZZ
    @given(data=st.data())
    def test_length_field_edit(self, files, data):
        blob = bytearray(files["blob"])
        fields = {"version": (4, "<I"), "header length": (8, "<I"),
                  "parameter count": (12 + header_length(blob), "<Q")}
        at, fmt = fields[data.draw(st.sampled_from(sorted(fields)))]
        (old,) = struct.unpack_from(fmt, blob, at)
        limit = 2 ** (8 * struct.calcsize(fmt)) - 1
        value = data.draw(st.one_of(st.integers(max(0, old - 8), old + 8),
                                    st.integers(0, limit)))
        struct.pack_into(fmt, blob, at, value)
        check_edit(files, bytes(blob))

    def test_unedited_snapshot_loads_and_runs(self, files):
        check_edit(files, files["blob"])
        assert (files["out"] / "detections.tsv").read_text().count("\n") == 4
