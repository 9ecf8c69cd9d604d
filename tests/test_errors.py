import ast
from collections.abc import Sequence
from pathlib import Path

import numpy as np
import pytest

import raresed
from raresed.data import SynthConfig, save_dataset, synth_dataset
from raresed.detector import EventModel
from raresed.errors import InputError, write_atomic, write_text
from raresed.recurrent import EncoderConfig
from raresed.train import save_model


def test_files_open_only_through_the_errors_helpers():
    """The rule for a path that cannot be read or written lives in
    raresed.errors alone: no other module calls the builtin open, and
    none catches FileNotFoundError itself."""
    sources = sorted(Path(raresed.__file__).parent.glob("*.py"))
    assert "errors.py" in [source.name for source in sources]
    found = []
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(), filename=str(source))):
            opens = (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                     and node.func.id == "open" and source.name != "errors.py")
            catches = (isinstance(node, ast.ExceptHandler) and node.type is not None
                       and "FileNotFoundError" in ast.unparse(node.type))
            if opens or catches:
                found.append(f"{source.name}:{node.lineno}")
    assert found == []


class Broken(Sequence):
    """Two utterances whose second fails to generate."""

    def __init__(self, first):
        self.first = first

    def __len__(self):
        return 2

    def __getitem__(self, i):
        if i == 0:
            return self.first
        raise RuntimeError("generation failed")


def test_failed_writes_leave_no_tmp_and_records_name_the_final_file(tmp_path):
    utts = list(synth_dataset(SynthConfig(count=3, positive_fraction=0.5,
                                          frames=20, dim=4, ebr_db=(12.0,),
                                          duration_frames=(3, 6), seed=2)))
    model = EventModel.initialize(EncoderConfig(kind="unidirectional", layers=1,
                                                hidden=3, input_dim=4), seed=2)
    held = tmp_path / "held"  # a directory where a file should go
    held.mkdir()
    for write in (lambda: save_dataset(held, utts),
                  lambda: save_model(held, model),
                  lambda: write_text(held, "text\n")):
        with pytest.raises(InputError, match=f"^cannot write {held}: Is a directory$"):
            write()
    with pytest.raises(InputError, match=f"^cannot write {held}: Is a directory$"):
        with write_atomic(held, "w", encoding="utf-8") as fh:
            fh.write("text\n")
    with pytest.raises(RuntimeError, match="generation failed"):
        save_dataset(tmp_path / "broken.sed", Broken(utts[0]))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["held"]
    assert not any(held.iterdir())

    path = tmp_path / "d.sed"
    records = save_dataset(path, utts)
    assert [r.path for r in records] == [path] * 3
    for record, utt in zip(records, utts, strict=True):
        assert np.array_equal(record.features, utt.features)
    assert list(tmp_path.rglob("*.tmp")) == []


def test_write_text_writes_utf8_bytes_as_given(tmp_path):
    path = tmp_path / "t.tsv"
    write_text(path, "é\tx\r\n1\n")
    assert path.read_bytes() == "é\tx\r\n1\n".encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["t.tsv"]
