import ast
import dataclasses
from collections.abc import Sequence
from pathlib import Path
from typing import get_origin, get_type_hints

import numpy as np
import pytest

import raresed
from raresed.data import SynthConfig, save_dataset, synth_dataset
from raresed.detector import EventModel
from raresed.errors import InputError, write_atomic, write_text
from raresed.recurrent import EncoderConfig
from raresed.train import TrainConfig, save_model


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


# A valid instance's arguments for each config dataclass.
CONFIGS = {
    SynthConfig: dict(count=4, positive_fraction=0.5, frames=50, dim=3),
    EncoderConfig: dict(kind="unidirectional", layers=1, hidden=2, input_dim=3),
    TrainConfig: dict(encoder=EncoderConfig(kind="unidirectional", layers=1,
                                            hidden=2, input_dim=3)),
}
FIELDS = [pytest.param(cls, field.name, get_type_hints(cls)[field.name],
                       id=f"{cls.__name__}.{field.name}")
          for cls in CONFIGS for field in dataclasses.fields(cls)]


class TestCheckFields:
    """Every field of every config dataclass is checked by one rule,
    check_setting, and stored as the plain value its type hint names."""

    @pytest.mark.parametrize("cls,name,kind", FIELDS)
    def test_wrong_kind_rejected_naming_the_field(self, cls, name, kind):
        # A bool is not a number, nor a string the value it spells, nor a
        # whole float or a number beyond 2**32 an integer.
        bad = [1 if kind is bool else True, "1"]
        if kind is int:
            bad += [2.5, 3.0, 2**32]
        for value in bad:
            with pytest.raises(InputError, match=name):
                cls(**{**CONFIGS[cls], name: value})

    @pytest.mark.parametrize("cls,name,kind", [
        case for case in FIELDS if case.values[2] in (int, float)
        or get_origin(case.values[2]) is tuple])
    def test_numpy_and_list_values_stored_plainly(self, cls, name, kind):
        value = getattr(cls(**CONFIGS[cls]), name)
        numpy = {int: np.int64, float: np.float32}
        if kind in numpy:
            config = cls(**{**CONFIGS[cls], name: numpy[kind](value)})
            assert type(getattr(config, name)) is kind
            assert getattr(config, name) == numpy[kind](value)
        else:
            items = [numpy[type(x)](x) for x in value]
            config = cls(**{**CONFIGS[cls], name: items})
            assert getattr(config, name) == value
            assert type(getattr(config, name)) is tuple
            assert [type(x) for x in getattr(config, name)] == [type(x) for x in value]
        hash(config)
