import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import raresed
import raresed.cli as cli_module
from raresed.cli import main
from raresed.data import SynthConfig, load_dataset, save_dataset, synth_dataset
from raresed.detector import EventModel
from raresed.metrics import EventAnnotation, format_annotations
from raresed.recurrent import EncoderConfig
from raresed.train import TrainConfig, save_model


TINY = {
    "data": {
        "train_count": 10, "dev_count": 8, "frames": 30, "dim": 5,
        "positive_fraction": 0.5, "ebr_db": [12.0], "duration_frames": [5, 10],
        "background_seed": 0, "seed": 3,
    },
    "train": {
        "alpha": 1.0, "batch_size": 5, "stepsize": 0.002, "epochs": 1,
        "seed": 3, "thres0": 0.5, "thres1": 0.5, "margin": 10,
        "encoder": {"kind": "multiresolution", "layers": 1, "hidden": 4,
                    "multires_bidirectional": False},
    },
    "eval": {"collar_s": 0.5, "frame_shift_s": 0.023},
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def synth_tiny(tmp_path):
    config = write_config(tmp_path, TINY)
    out = tmp_path / "data"
    assert main(["synth", "--config", config, "--out", str(out)]) == 0
    return config, out


def bad_frame_shift_config(tmp_path, raw):
    """TINY with eval.frame_shift_s replaced by the JSON text ``raw``."""
    good = '"frame_shift_s": 0.023'
    text = json.dumps(TINY)
    assert good in text
    path = tmp_path / "bad.json"
    path.write_text(text.replace(good, f'"frame_shift_s": {raw}'))
    return str(path)


def tiny_model(tmp_path, zero_w=False):
    """A model for TINY's features, saved to tmp_path."""
    encoder = EncoderConfig(kind="multiresolution", layers=1, hidden=4,
                            input_dim=5)
    model = EventModel.initialize(encoder, seed=3)
    if zero_w:
        model.w[:] = 0.0
    config = TrainConfig(encoder=encoder, seed=3)
    path = tmp_path / "model.sem"
    save_model(path, model, config)
    return path


def read_table(path):
    lines = path.read_text().splitlines()
    head = lines[0].split("\t")
    return [dict(zip(head, line.split("\t"))) for line in lines[1:] if line]


class TestSynth:
    def test_writes_datasets_and_manifest(self, tmp_path):
        _, out = synth_tiny(tmp_path)
        assert len(load_dataset(out / "train.sed")) == 10
        assert len(load_dataset(out / "dev.sed")) == 8
        assert (out / "train_ref.tsv").exists()
        assert (out / "dev_ref.tsv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 3

    def test_reruns_bit_identical(self, tmp_path):
        config = write_config(tmp_path, TINY)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--config", config, "--out", str(out1)]) == 0
        assert main(["synth", "--config", config, "--out", str(out2)]) == 0
        for name in ("train.sed", "dev.sed", "train_ref.tsv", "dev_ref.tsv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_missing_field_names_it(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(TINY))
        del cfg["data"]["frames"]
        config = write_config(tmp_path, cfg)
        assert main(["synth", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert "data.frames" in capsys.readouterr().err

    def test_bad_json_is_input_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["synth", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"preset": "d\xe9sk"}')
        assert main(["synth", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        assert "UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["-1", "0", "NaN", '"fast"'])
    def test_bad_frame_shift_exits_2_before_writing(self, tmp_path, capsys, raw):
        config = bad_frame_shift_config(tmp_path, raw)
        out = tmp_path / "o"
        assert main(["synth", "--config", config, "--out", str(out)]) == 2
        assert "frame_shift_s" in capsys.readouterr().err
        assert not (out / "train.sed").exists()

    def test_seed_flag_overrides(self, tmp_path):
        config = write_config(tmp_path, TINY)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--config", config, "--out", str(out1),
                     "--seed", "99"]) == 0
        assert main(["synth", "--config", config, "--out", str(out2)]) == 0
        assert (out1 / "train.sed").read_bytes() != (out2 / "train.sed").read_bytes()
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_manifest_config_reproduces_outputs(self, tmp_path):
        config, out = synth_tiny(tmp_path)
        manifest = json.loads((out / "manifest.json").read_text())
        replay_cfg = write_config(tmp_path, manifest["config"], "replay.json")
        replay_out = tmp_path / "replay"
        assert main(["synth", "--config", replay_cfg, "--out", str(replay_out)]) == 0
        assert (out / "train.sed").read_bytes() == (replay_out / "train.sed").read_bytes()


class TestConfigChecks:
    """Settings are checked, not coerced, and a bad one exits 2 naming
    its field before anything is generated or trained."""

    @pytest.mark.parametrize("edit,flags,field", [
        ({}, ["--seed", "-1"], "seed"),
        ({"seed": -5}, [], "seed"),
        ({"background_seed": -1}, [], "background_seed"),
        ({"train_count": 2.5}, [], "data.train_count"),
        ({"frames": "30"}, [], "data.frames"),
        ({"dim": True}, [], "data.dim"),
        ({"positive_fraction": "0.5"}, [], "data.positive_fraction"),
        ({"duration_frames": [5, 10.5]}, [], "data.duration_frames"),
        ({"ebr_db": 12.0}, [], "data.ebr_db"),
        ({"ebr_db": [12.0, 1e300]}, [], "EBR"),
        ({"ebr_db": [float("nan")]}, [], "EBR"),
        ({"train_count": 1e300}, [], "data.train_count"),
        ({"frames": 2**32}, [], "data.frames"),
        ({"dim": 2**31}, [], "too large"),
    ])
    def test_bad_data_setting_exits_2_before_synth(self, tmp_path, capsys,
                                                   edit, flags, field):
        cfg = json.loads(json.dumps(TINY))
        cfg["data"].update(edit)
        out = tmp_path / "o"
        code = main(["synth", "--config", write_config(tmp_path, cfg),
                     "--out", str(out), *flags])
        assert code == 2
        assert field in capsys.readouterr().err
        assert not (out / "train.sed").exists()

    @pytest.mark.parametrize("edit,flags,field", [
        ({}, ["--seed", "-1"], "seed"),
        ({"seed": -1}, [], "seed"),
        ({"encoder": {"multires_bidirectional": "false"}}, [],
         "train.encoder.multires_bidirectional"),
        ({"encoder": {"multires_bidirectional": 0}}, [],
         "train.encoder.multires_bidirectional"),
        ({"encoder": {"layers": 1.9}}, [], "train.encoder.layers"),
        ({"encoder": {"hidden": "4"}}, [], "train.encoder.hidden"),
        ({"encoder": {"kind": 3}}, [], "train.encoder.kind"),
        ({"epochs": True}, [], "train.epochs"),
        ({"batch_size": "5"}, [], "train.batch_size"),
        ({"alpha": "1.0"}, [], "train.alpha"),
        ({"margin": 10.5}, [], "train.margin"),
        ({"thres0": False}, [], "train.thres0"),
        ({"stepsize": None}, [], "train.stepsize"),
        ({"epochs": 1e300}, [], "train.epochs"),
        ({"encoder": {"hidden": 2**20}}, [], "parameters"),
    ])
    def test_bad_train_setting_exits_2_before_training(self, tmp_path, capsys,
                                                       monkeypatch, edit, flags,
                                                       field):
        _, data = synth_tiny(tmp_path)
        cfg = json.loads(json.dumps(TINY))
        encoder = edit.pop("encoder", {})
        cfg["train"].update(edit)
        cfg["train"]["encoder"].update(encoder)
        monkeypatch.setattr(cli_module, "train", None)  # must not be reached
        out = tmp_path / "run"
        code = main(["train", "--config", write_config(tmp_path, cfg, "bad.json"),
                     "--train-data", str(data / "train.sed"),
                     "--dev-data", str(data / "dev.sed"), "--out", str(out),
                     *flags])
        assert code == 2
        assert field in capsys.readouterr().err
        assert not (out / "model.sem").exists()

    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli_module, "synth_dataset", exhausted)
        config = write_config(tmp_path, TINY)
        assert main(["synth", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert "memory" in capsys.readouterr().err

    def test_integral_numbers_serve_for_integers_and_floats(self, tmp_path):
        cfg = json.loads(json.dumps(TINY))
        cfg["data"].update(train_count=10.0, frames=30.0)
        cfg["train"].update(alpha=1, epochs=1.0, stepsize=0.002, thres0=0.5)
        cfg["eval"]["collar_s"] = 1
        config = write_config(tmp_path, cfg, "integral.json")
        data = tmp_path / "data"
        assert main(["synth", "--config", config, "--out", str(data)]) == 0
        (tmp_path / "plain").mkdir()
        _, want = synth_tiny(tmp_path / "plain")
        assert (data / "train.sed").read_bytes() == (want / "train.sed").read_bytes()
        assert main(["train", "--config", config,
                     "--train-data", str(data / "train.sed"),
                     "--dev-data", str(data / "dev.sed"),
                     "--out", str(tmp_path / "run")]) == 0

    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_section_that_is_not_an_object_exits_2(self, tmp_path, capsys, command):
        _, data = synth_tiny(tmp_path)
        cfg = json.loads(json.dumps(TINY))
        cfg["eval"] = 5
        config = write_config(tmp_path, cfg, "bad.json")
        out = str(tmp_path / "run")
        argv = (["synth", "--config", config, "--out", out] if command == "synth" else
                ["train", "--config", config, "--train-data", str(data / "train.sed"),
                 "--dev-data", str(data / "dev.sed"), "--out", out])
        assert main(argv) == 2
        assert "eval" in capsys.readouterr().err

    @pytest.mark.parametrize("preset", [["desk"], {"a": 1}])
    def test_preset_that_is_not_a_string_exits_2(self, tmp_path, capsys, preset):
        config = write_config(tmp_path, {"preset": preset})
        assert main(["synth", "--config", config, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config field 'preset' must be a string")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [[], ["--seed", "5"]])
    @pytest.mark.parametrize("command,section", [("synth", "data"), ("train", "train"),
                                                 ("sweep", "train")])
    def test_section_with_override_flags_still_names_it(self, tmp_path, capsys,
                                                        command, section, flags):
        _, data = synth_tiny(tmp_path)
        cfg = json.loads(json.dumps(TINY))
        cfg[section] = 5
        argv = config_argv(command, write_config(tmp_path, cfg, "bad.json"), data,
                           tmp_path / "run")
        assert main(argv + flags) == 2
        assert f"config field '{section}." in capsys.readouterr().err

    @pytest.mark.parametrize("command,field,flag,value", [
        ("synth", "data.seed", "--seed", 2**32),
        ("synth", "data.seed", "--seed", -1),
        ("train", "train.seed", "--seed", 2**32),
        ("train", "train.thres0", "--thres0", 1.5),
        ("sweep", "train.seed", "--seed", 2**32),
        ("sweep", "train.thres1", "--thres1", 0.0),
    ])
    def test_flag_fails_like_the_same_config_value(self, tmp_path, capsys, monkeypatch,
                                                   command, field, flag, value):
        _, data = synth_tiny(tmp_path)
        for name in ("synth_dataset", "train", "alpha_sweep"):  # must not be reached
            monkeypatch.setattr(cli_module, name, None)
        section, name = field.split(".")
        cfg = json.loads(json.dumps(TINY))
        cfg[section][name] = value
        from_file = config_argv(command, write_config(tmp_path, cfg, "bad.json"), data,
                                tmp_path / "a")
        from_flag = config_argv(command, write_config(tmp_path, TINY), data,
                                tmp_path / "b") + [flag, str(value)]
        assert main(from_file) == 2
        err = capsys.readouterr().err
        assert main(from_flag) == 2
        assert capsys.readouterr().err == err
        assert err.startswith("error: ") and name in err
        if value == 2**32:
            assert f"config field {field!r} is out of range" in err


def config_argv(command, config, data, out):
    """argv of a command that takes --config, on synth_tiny's data."""
    if command == "synth":
        return ["synth", "--config", config, "--out", str(out)]
    return [command, "--config", config, "--train-data", str(data / "train.sed"),
            "--dev-data", str(data / "dev.sed"), "--out", str(out)]


class TestTrainCommand:
    def test_writes_artifacts(self, tmp_path):
        config, data = synth_tiny(tmp_path)
        out = tmp_path / "run"
        code = main(["train", "--config", config,
                     "--train-data", str(data / "train.sed"),
                     "--dev-data", str(data / "dev.sed"), "--out", str(out)])
        assert code == 0
        assert (out / "model.sem").exists()
        assert (out / "manifest.json").exists()
        rows = read_table(out / "report.tsv")
        assert len(rows) == 1  # one epoch requested, one row written

    def test_rerun_identical_report(self, tmp_path):
        config, data = synth_tiny(tmp_path)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["train", "--config", config,
                         "--train-data", str(data / "train.sed"),
                         "--dev-data", str(data / "dev.sed"),
                         "--out", str(out)]) == 0
            outs.append(out)
        assert (outs[0] / "report.tsv").read_bytes() == (outs[1] / "report.tsv").read_bytes()
        assert (outs[0] / "model.sem").read_bytes() == (outs[1] / "model.sem").read_bytes()

    def test_bad_threshold_exits_2_before_training(self, tmp_path, capsys):
        config, data = synth_tiny(tmp_path)
        out = tmp_path / "run"
        code = main(["train", "--config", config,
                     "--train-data", str(data / "train.sed"),
                     "--dev-data", str(data / "dev.sed"), "--out", str(out),
                     "--thres0", "1.5"])
        assert code == 2
        assert "thres0" in capsys.readouterr().err
        assert not (out / "model.sem").exists()

    @pytest.mark.parametrize("name,raw", [
        ("alpha", "1e400"), ("stepsize", "-1"), ("stepsize", "0"),
    ])
    def test_bad_training_setting_exits_2_before_training(self, tmp_path, capsys,
                                                          name, raw):
        _, data = synth_tiny(tmp_path)
        # Edited as text: 1e400 is valid JSON that reads as inf, and
        # json.dumps cannot write it.
        good = f'"{name}": {TINY["train"][name]}'
        text = json.dumps(TINY)
        assert good in text
        config = tmp_path / "bad.json"
        config.write_text(text.replace(good, f'"{name}": {raw}'))
        out = tmp_path / "run"
        code = main(["train", "--config", str(config),
                     "--train-data", str(data / "train.sed"),
                     "--dev-data", str(data / "dev.sed"), "--out", str(out)])
        assert code == 2
        assert name in capsys.readouterr().err
        assert not (out / "model.sem").exists()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("raw", ["-1", "0", "Infinity"])
    def test_bad_frame_shift_exits_2_before_training(self, tmp_path, capsys,
                                                    monkeypatch, command, raw):
        _, data = synth_tiny(tmp_path)
        config = bad_frame_shift_config(tmp_path, raw)
        for name in ("train", "alpha_sweep"):  # must not be reached
            monkeypatch.setattr(cli_module, name, None)
        out = tmp_path / "run"
        code = main([command, "--config", config,
                     "--train-data", str(data / "train.sed"),
                     "--dev-data", str(data / "dev.sed"), "--out", str(out)])
        assert code == 2
        assert "frame shift" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_infinite_collar_exits_2_before_training(self, tmp_path, capsys,
                                                     monkeypatch, command):
        # An infinite collar matches onsets any distance apart.
        _, data = synth_tiny(tmp_path)
        cfg = json.loads(json.dumps(TINY))
        cfg["eval"]["collar_s"] = float("inf")  # written as Infinity
        for name in ("train", "alpha_sweep"):  # must not be reached
            monkeypatch.setattr(cli_module, name, None)
        out = tmp_path / "run"
        code = main([command, "--config", write_config(tmp_path, cfg, "bad.json"),
                     "--train-data", str(data / "train.sed"),
                     "--dev-data", str(data / "dev.sed"), "--out", str(out)])
        assert code == 2
        assert "collar must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("split", ["train", "dev"])
    def test_bad_dataset_exits_2_naming_the_file(self, tmp_path, capsys,
                                                 monkeypatch, split):
        config, data = synth_tiny(tmp_path)
        bad = data / f"{split}.sed"
        bad.write_bytes(bad.read_bytes()[:-8])
        monkeypatch.setattr(cli_module, "train", None)  # must not be reached
        out = tmp_path / "run"
        code = main(["train", "--config", config,
                     "--train-data", str(data / "train.sed"),
                     "--dev-data", str(data / "dev.sed"), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: record " in err and "unexpected end of file" in err
        assert ("dev.sed" if split == "train" else "train.sed") not in err
        assert not out.exists()

    def test_diverging_training_exits_2_naming_the_settings(self, tmp_path, capsys):
        _, data = synth_tiny(tmp_path)
        cfg = json.loads(json.dumps(TINY))
        cfg["train"]["stepsize"] = 1e308
        config = write_config(tmp_path, cfg, "diverge.json")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["train", "--config", config,
                         "--train-data", str(data / "train.sed"),
                         "--dev-data", str(data / "dev.sed"),
                         "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert "epoch 1, batch" in err and "stepsize" in err and "alpha" in err

    def test_dim_mismatch_between_splits_exits_3(self, tmp_path):
        config, data = synth_tiny(tmp_path)
        other = synth_dataset(SynthConfig(count=4, positive_fraction=0.5,
                                          frames=30, dim=7, ebr_db=(12.0,),
                                          duration_frames=(5, 10), seed=1))
        save_dataset(tmp_path / "odd.sed", other)
        code = main(["train", "--config", config,
                     "--train-data", str(data / "train.sed"),
                     "--dev-data", str(tmp_path / "odd.sed"),
                     "--out", str(tmp_path / "run")])
        assert code == 3

    def test_dev_without_positives_exits_2_before_training(self, tmp_path, capsys):
        config, data = synth_tiny(tmp_path)
        negatives = [u for u in load_dataset(data / "dev.sed") if u.y == 0]
        assert negatives
        save_dataset(tmp_path / "neg.sed", negatives)
        out = tmp_path / "run"
        code = main(["train", "--config", config,
                     "--train-data", str(data / "train.sed"),
                     "--dev-data", str(tmp_path / "neg.sed"), "--out", str(out)])
        assert code == 2
        assert "neg.sed" in capsys.readouterr().err
        assert not (out / "model.sem").exists()

    def test_missing_dataset_exits_2(self, tmp_path):
        config = write_config(tmp_path, TINY)
        code = main(["train", "--config", config,
                     "--train-data", str(tmp_path / "absent.sed"),
                     "--dev-data", str(tmp_path / "absent.sed"),
                     "--out", str(tmp_path / "run")])
        assert code == 2


class TestInferCommand:
    def test_zero_classifier_detects_nothing(self, tmp_path):
        _, data = synth_tiny(tmp_path)
        model = tiny_model(tmp_path, zero_w=True)
        out = tmp_path / "inf"
        assert main(["infer", "--model", str(model),
                     "--data", str(data / "dev.sed"), "--out", str(out)]) == 0
        rows = read_table(out / "detections.tsv")
        assert len(rows) == 8
        assert all(r["label"] == "0" for r in rows)

    def test_empty_dataset_gives_header_only(self, tmp_path):
        model = tiny_model(tmp_path)
        save_dataset(tmp_path / "empty.sed", [])
        out = tmp_path / "inf"
        assert main(["infer", "--model", str(model),
                     "--data", str(tmp_path / "empty.sed"),
                     "--out", str(out)]) == 0
        assert (out / "detections.tsv").read_text() == "id\tlabel\tonset_s\toffset_s\n"

    def test_deterministic_output(self, tmp_path):
        _, data = synth_tiny(tmp_path)
        model = tiny_model(tmp_path)
        blobs = []
        for name in ("i1", "i2"):
            out = tmp_path / name
            assert main(["infer", "--model", str(model),
                         "--data", str(data / "dev.sed"), "--out", str(out)]) == 0
            blobs.append((out / "detections.tsv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_missing_model_exits_2(self, tmp_path):
        _, data = synth_tiny(tmp_path)
        assert main(["infer", "--model", str(tmp_path / "absent.sem"),
                     "--data", str(data / "dev.sed"),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("flag", ["--thres0", "--thres1"])
    @pytest.mark.parametrize("value", ["1.5", "0", "-0.1"])
    def test_threshold_outside_unit_interval_exits_2(self, tmp_path, capsys,
                                                     flag, value):
        _, data = synth_tiny(tmp_path)
        model = tiny_model(tmp_path)
        out = tmp_path / "inf"
        assert main(["infer", "--model", str(model),
                     "--data", str(data / "dev.sed"), "--out", str(out),
                     flag, value]) == 2
        assert flag in capsys.readouterr().err
        assert not (out / "detections.tsv").exists()

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_bad_frame_shift_exits_2_before_loading(self, tmp_path, capsys,
                                                   monkeypatch, value):
        _, data = synth_tiny(tmp_path)
        model = tiny_model(tmp_path)
        monkeypatch.setattr(cli_module, "load_model", None)  # must not be reached
        out = tmp_path / "inf"
        assert main(["infer", "--model", str(model),
                     "--data", str(data / "dev.sed"), "--out", str(out),
                     "--frame-shift", value]) == 2
        assert "--frame-shift" in capsys.readouterr().err
        assert not (out / "detections.tsv").exists()

    def test_dim_mismatch_exits_3(self, tmp_path):
        model = tiny_model(tmp_path)
        other = synth_dataset(SynthConfig(count=3, positive_fraction=0.0,
                                          frames=20, dim=9, ebr_db=(0.0,),
                                          duration_frames=(2, 5), seed=1))
        save_dataset(tmp_path / "wide.sed", other)
        assert main(["infer", "--model", str(model),
                     "--data", str(tmp_path / "wide.sed"),
                     "--out", str(tmp_path / "o")]) == 3


def edit_id(path, old: str, new: str) -> None:
    """Rewrite one record id of a .sed file in place; the two ids have the
    same UTF-8 length, so every length field stays right."""
    old_bytes, new_bytes = old.encode(), new.encode()
    assert len(old_bytes) == len(new_bytes)
    blob = path.read_bytes()
    assert blob.count(old_bytes) == 1
    path.write_bytes(blob.replace(old_bytes, new_bytes))


# The id of the second record of each split synth writes from TINY: dev
# indices continue after the 10 training ones.
SECOND_IDS = {"train": "train-00001", "dev": "dev-00011"}


class TestRecordIds:
    """A record id is the first field of its detections.tsv row, and
    outputs and scores are keyed by it: an id holding a tab or a line
    break, or a repeated id, exits 2 naming the record, before any
    compute."""

    # Each rewrites the id of a split's second record, keeping its length.
    IDS = {"tab": lambda old: old[:-1] + "\t",
           "newline": lambda old: old[:-2] + "\n" + old[-1],
           "next line": lambda old: old[:-3] + "\x85" + old[-1],
           "line separator": lambda old: old[:-4] + "\u2028" + old[-1],
           "repeat": lambda old: old[:-1] + "0"}

    @pytest.mark.parametrize("bad", list(IDS))
    @pytest.mark.parametrize("command,split", [("infer", "dev"), ("train", "train"),
                                               ("sweep", "dev")])
    def test_bad_id_exits_2_naming_the_record(self, tmp_path, capsys,
                                             monkeypatch, command, split, bad):
        config, data = synth_tiny(tmp_path)
        old = SECOND_IDS[split]
        edit_id(data / f"{split}.sed", old, self.IDS[bad](old))
        for name in ("infer", "train", "alpha_sweep"):
            monkeypatch.setattr(cli_module, name, None)  # must not be reached
        out = tmp_path / "out"
        if command == "infer":
            argv = ["infer", "--model", str(tiny_model(tmp_path)),
                    "--data", str(data / "dev.sed")]
        else:
            argv = [command, "--config", config, "--train-data",
                    str(data / "train.sed"), "--dev-data", str(data / "dev.sed")]
        assert main(argv + ["--out", str(out)]) == 2
        assert "record 1: " in capsys.readouterr().err
        assert not out.exists()


class TestEvalCommand:
    def test_perfect_match(self, tmp_path):
        records = {"u0": EventAnnotation(1.0, 2.0), "u1": None}
        (tmp_path / "ref.tsv").write_text(format_annotations(records))
        (tmp_path / "det.tsv").write_text(format_annotations(records))
        out = tmp_path / "ev"
        assert main(["eval", "--ref", str(tmp_path / "ref.tsv"),
                     "--det", str(tmp_path / "det.tsv"), "--out", str(out)]) == 0
        table = {r["metric"]: r["value"] for r in read_table(out / "eval.tsv")}
        assert float(table["er"]) == 0.0
        assert float(table["f1"]) == 100.0

    def test_hand_count_fixture(self, tmp_path):
        refs = {"u0": EventAnnotation(1.0, 2.0), "u1": EventAnnotation(4.0, 5.0),
                "u2": None}
        dets = {"u0": EventAnnotation(1.2, 2.0), "u1": None,
                "u2": EventAnnotation(9.0, 9.5)}
        (tmp_path / "ref.tsv").write_text(format_annotations(refs))
        (tmp_path / "det.tsv").write_text(format_annotations(dets))
        out = tmp_path / "ev"
        assert main(["eval", "--ref", str(tmp_path / "ref.tsv"),
                     "--det", str(tmp_path / "det.tsv"), "--out", str(out)]) == 0
        table = {r["metric"]: r["value"] for r in read_table(out / "eval.tsv")}
        assert float(table["er"]) == 1.0
        assert float(table["f1"]) == 50.0

    def test_nonpositive_collar_exits_2(self, tmp_path, capsys):
        records = {"u0": EventAnnotation(1.0, 2.0)}
        (tmp_path / "ref.tsv").write_text(format_annotations(records))
        (tmp_path / "det.tsv").write_text(format_annotations(records))
        # An infinite collar would match onsets any distance apart.
        for collar in ("0", "-1", "inf", "nan"):
            out = tmp_path / f"ev{collar}"
            assert main(["eval", "--ref", str(tmp_path / "ref.tsv"),
                         "--det", str(tmp_path / "det.tsv"), "--out", str(out),
                         "--collar", collar]) == 2
            assert "--collar must be positive" in capsys.readouterr().err
            assert not (out / "eval.tsv").exists()

    @pytest.mark.parametrize("onset,offset", [("1.0", "inf"), ("inf", "inf"),
                                              ("1.0", "1e400"), ("-inf", "1.0")])
    def test_non_finite_reference_time_exits_2_naming_the_line(self, tmp_path, capsys,
                                                              onset, offset):
        ref = tmp_path / "ref.tsv"
        ref.write_text(f"id\tlabel\tonset_s\toffset_s\nu0\t1\t{onset}\t{offset}\n")
        (tmp_path / "det.tsv").write_text(format_annotations({"u0": None}))
        out = tmp_path / "ev"
        assert main(["eval", "--ref", str(ref), "--det", str(tmp_path / "det.tsv"),
                     "--out", str(out)]) == 2
        assert f"error: {ref}:2: bad annotation" in capsys.readouterr().err
        assert not (out / "eval.tsv").exists()

    @pytest.mark.parametrize("which", ["ref", "det"])
    def test_tsv_not_utf8_exits_2_naming_the_file(self, tmp_path, capsys, which):
        records = {"u0": EventAnnotation(1.0, 2.0)}
        (tmp_path / "ref.tsv").write_text(format_annotations(records))
        (tmp_path / "det.tsv").write_text(format_annotations(records))
        bad = tmp_path / f"{which}.tsv"
        bad.write_bytes(bad.read_bytes().replace(b"u0", b"u\xff"))
        assert main(["eval", "--ref", str(tmp_path / "ref.tsv"),
                     "--det", str(tmp_path / "det.tsv"),
                     "--out", str(tmp_path / "ev")]) == 2
        assert str(bad) in capsys.readouterr().err

    def test_collar_flag_flips_marginal_match(self, tmp_path):
        (tmp_path / "ref.tsv").write_text(
            format_annotations({"u0": EventAnnotation(3.0, 4.0)}))
        (tmp_path / "det.tsv").write_text(
            format_annotations({"u0": EventAnnotation(3.3, 4.0)}))
        results = {}
        for collar in ("0.5", "0.1"):
            out = tmp_path / f"ev{collar}"
            assert main(["eval", "--ref", str(tmp_path / "ref.tsv"),
                         "--det", str(tmp_path / "det.tsv"),
                         "--out", str(out), "--collar", collar]) == 0
            table = {r["metric"]: r["value"] for r in read_table(out / "eval.tsv")}
            results[collar] = table
        assert float(results["0.5"]["er"]) == 0.0
        assert int(results["0.1"]["tp"]) == 0
        assert float(results["0.1"]["er"]) == 2.0

    @pytest.mark.parametrize("refs", [{"u0": None, "u1": None}, {}])
    @pytest.mark.parametrize("same_det", [False, True])
    def test_reference_without_events_exits_2_naming_it(self, tmp_path, capsys,
                                                        refs, same_det):
        # Only negatives, or only the header line: the error rate is
        # undefined.
        ref = tmp_path / "ref.tsv"
        ref.write_text(format_annotations(refs))
        det = tmp_path / "det.tsv"
        det.write_text(format_annotations(
            {uid: EventAnnotation(1.0, 2.0) for uid in refs}))
        if same_det:
            det = ref
        out = tmp_path / "ev"
        assert main(["eval", "--ref", str(ref), "--det", str(det),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ref}: ") and "reference events" in err
        assert "Traceback" not in err
        assert not (out / "eval.tsv").exists()

    def test_id_mismatch_exits_3(self, tmp_path, capsys):
        (tmp_path / "ref.tsv").write_text(
            format_annotations({"u0": None, "zebra": None}))
        (tmp_path / "det.tsv").write_text(format_annotations({"u0": None}))
        assert main(["eval", "--ref", str(tmp_path / "ref.tsv"),
                     "--det", str(tmp_path / "det.tsv"),
                     "--out", str(tmp_path / "ev")]) == 3
        assert "zebra" in capsys.readouterr().err


class TestSweepCommand:
    def test_single_alpha_grid(self, tmp_path):
        config, data = synth_tiny(tmp_path)
        out = tmp_path / "sw"
        assert main(["sweep", "--config", config,
                     "--train-data", str(data / "train.sed"),
                     "--dev-data", str(data / "dev.sed"),
                     "--out", str(out), "--alpha-grid", "1.0"]) == 0
        rows = read_table(out / "sweep.tsv")
        assert len(rows) == 1 and float(rows[0]["alpha"]) == 1.0

    def test_default_grid_five_rows_ascending(self, tmp_path):
        config, data = synth_tiny(tmp_path)
        out = tmp_path / "sw"
        assert main(["sweep", "--config", config,
                     "--train-data", str(data / "train.sed"),
                     "--dev-data", str(data / "dev.sed"),
                     "--out", str(out)]) == 0
        alphas = [float(r["alpha"]) for r in read_table(out / "sweep.tsv")]
        assert alphas == [0.1, 0.5, 1.0, 5.0, 10.0]

    def test_deterministic(self, tmp_path):
        config, data = synth_tiny(tmp_path)
        blobs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert main(["sweep", "--config", config,
                         "--train-data", str(data / "train.sed"),
                         "--dev-data", str(data / "dev.sed"),
                         "--out", str(out), "--alpha-grid", "0.5,1.0"]) == 0
            blobs.append((out / "sweep.tsv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_bad_grid_exits_2(self, tmp_path):
        config, data = synth_tiny(tmp_path)
        assert main(["sweep", "--config", config,
                     "--train-data", str(data / "train.sed"),
                     "--dev-data", str(data / "dev.sed"),
                     "--out", str(tmp_path / "sw"),
                     "--alpha-grid", "a,b"]) == 2


# Each command's path arguments that name an input file, and the names
# of the files it writes under --out (the manifest's too).
PATH_ARGS = {
    "synth": (("config",), ("train.sed", "train_ref.tsv", "dev.sed",
                            "dev_ref.tsv", "manifest.json")),
    "train": (("config", "train-data", "dev-data"),
              ("model.sem", "report.tsv", "manifest.json")),
    "infer": (("model", "data"), ("detections.tsv", "manifest.json")),
    "eval": (("ref", "det"), ("eval.tsv", "manifest.json")),
    "sweep": (("config", "train-data", "dev-data"), ("sweep.tsv", "manifest.json")),
}
# An input is tried as missing, as a directory and as a path below a
# regular file; --out, whose absence is no fault, as a regular file and
# as a path below one; and each output name as held by a directory.
PATH_CASES = [
    *[(command, arg, kind) for command, (inputs, _) in PATH_ARGS.items()
      for arg in inputs for kind in ("missing", "directory", "below_file")],
    *[(command, "out", kind) for command in PATH_ARGS
      for kind in ("file", "below_file")],
    *[(command, name, "held") for command, (_, outputs) in PATH_ARGS.items()
      for name in outputs],
]


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """A valid file for every input path argument."""
    root = tmp_path_factory.mktemp("valid")
    config, data = synth_tiny(root)
    return root, {"config": config, "train-data": data / "train.sed",
                  "dev-data": data / "dev.sed", "model": tiny_model(root),
                  "data": data / "dev.sed", "ref": data / "dev_ref.tsv",
                  "det": data / "dev_ref.tsv"}


def command_argv(command, inputs, **paths):
    argv = [command, "--out", str(paths.pop("out"))]
    for arg in PATH_ARGS[command][0]:
        argv += [f"--{arg}", str(paths.get(arg, inputs[arg]))]
    return argv + (["--alpha-grid", "1"] if command == "sweep" else [])


class TestPathFaults:
    """Every path the CLI reads or writes that cannot be opened exits 2
    with one line naming it, and leaves no output and no temporary file."""

    @pytest.mark.parametrize("command", PATH_ARGS)
    def test_valid_paths_exit_0(self, tmp_path, valid_inputs, command):
        root, inputs = valid_inputs
        out = tmp_path / "out"
        assert main(command_argv(command, inputs, out=out)) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(PATH_ARGS[command][1])
        assert list(tmp_path.rglob("*.tmp")) == list(root.rglob("*.tmp")) == []

    @pytest.mark.parametrize("command,arg,kind", PATH_CASES)
    def test_path_fault_exits_2_naming_it(self, tmp_path, capsys, valid_inputs,
                                          command, arg, kind):
        root, inputs = valid_inputs
        out = tmp_path / "out"
        (tmp_path / "file").write_text("a regular file\n")
        (tmp_path / "dir").mkdir()
        bad = {"missing": tmp_path / "absent", "directory": tmp_path / "dir",
               "file": tmp_path / "file", "below_file": tmp_path / "file" / "x",
               "held": out / arg}[kind]
        if kind == "held":
            bad.mkdir(parents=True)
            code = main(command_argv(command, inputs, out=out))
        else:
            code = main(command_argv(command, inputs, **{"out": out, arg: bad}))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err
        assert "Traceback" not in err and err.count("\n") == 1
        if out.is_dir():
            assert [p for p in out.rglob("*") if not p.is_dir()] == []
        assert list(tmp_path.rglob("*.tmp")) == list(root.rglob("*.tmp")) == []


class TestManifest:
    """One writer records every command's manifest: its config, with the
    override flags written in, replays the same outputs."""

    @pytest.mark.parametrize("command", PATH_ARGS)
    def test_manifest_names_inputs_and_outputs(self, tmp_path, valid_inputs, command):
        _, inputs = valid_inputs
        out = tmp_path / "out"
        argv = command_argv(command, inputs, out=out)
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest) == ["artifact_version", "command", "config",
                                    "duration_s", "inputs", "outputs", "seed"]
        assert manifest["command"] == command
        assert manifest["inputs"] == {arg.replace("-", "_"): argv[argv.index(f"--{arg}") + 1]
                                      for arg in PATH_ARGS[command][0]}
        written = sorted(str(p) for p in out.iterdir() if p.name != "manifest.json")
        assert sorted(manifest["outputs"].values()) == written
        assert all(os.path.isfile(path) for path in written)

    @pytest.mark.parametrize("command,flags,fields", [
        ("synth", ["--seed", "5"], {"data.seed": 5}),
        ("train", ["--seed", "5", "--thres0", "0.4", "--thres1", "0.6"],
         {"train.seed": 5, "train.thres0": 0.4, "train.thres1": 0.6}),
        ("sweep", ["--seed", "5", "--thres0", "0.4", "--alpha-grid", "0,2"],
         {"train.seed": 5, "train.thres0": 0.4}),
    ])
    def test_replaying_the_config_reproduces_the_outputs(self, tmp_path, command,
                                                         flags, fields):
        config, data = synth_tiny(tmp_path)
        # The grid is not a config field: a sweep replay passes it again.
        grid = flags[flags.index("--alpha-grid"):] if "--alpha-grid" in flags else []
        flagged, plain, replay = (tmp_path / name for name in ("flags", "plain", "replay"))
        assert main(config_argv(command, config, data, flagged) + flags) == 0
        assert main(config_argv(command, config, data, plain) + grid) == 0
        manifest = json.loads((flagged / "manifest.json").read_text())
        for field, value in fields.items():
            section, name = field.split(".")
            assert manifest["config"][section][name] == value
        assert manifest["seed"] == 5
        replay_config = write_config(tmp_path, manifest["config"], "replay.json")
        assert main(config_argv(command, replay_config, data, replay) + grid) == 0
        names = [os.path.basename(path) for path in manifest["outputs"].values()]
        for name in names:
            assert (replay / name).read_bytes() == (flagged / name).read_bytes()
        # The flags changed the run, so the replay shows they were recorded.
        assert any((plain / name).read_bytes() != (flagged / name).read_bytes()
                   for name in names)

    def test_failed_command_keeps_an_out_that_existed(self, tmp_path, valid_inputs):
        _, inputs = valid_inputs
        out = tmp_path / "out"
        out.mkdir()
        assert main(command_argv("infer", inputs, out=out,
                                 model=tmp_path / "absent.sem")) == 2
        assert out.is_dir() and not any(out.iterdir())
        made = tmp_path / "made" / "out"
        assert main(command_argv("infer", inputs, out=made,
                                 model=tmp_path / "absent.sem")) == 2
        assert not made.exists()


class TestPresets:
    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, {"preset": "galactic"})
        assert main(["synth", "--config", config,
                     "--out", str(tmp_path / "o")]) == 2
        assert "galactic" in capsys.readouterr().err

    def test_preset_overrides_merge(self, tmp_path):
        cfg = {"preset": "desk", "data": {"train_count": 4, "dev_count": 2,
                                          "frames": 30, "duration_frames": [5, 10]}}
        config = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["synth", "--config", config, "--out", str(out)]) == 0
        data = load_dataset(out / "train.sed")
        assert len(data) == 4
        assert data[0].n_frames == 30
        assert data[0].dim == 16  # from the preset

    def test_usage_error_exit_code(self):
        assert main(["synth"]) == 2  # missing --out


def test_module_entry_point_runs_the_cli():
    src = str(Path(raresed.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-m", "raresed", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "usage: raresed" in done.stdout


def test_cli_import_leaves_scipy_io_and_special_unloaded():
    # scipy.io is only needed for WAV input (read_wav imports it when
    # called); loading it with the CLI would add about 23 MB of peak RSS
    # to every command, and scipy.special about 24 MB.
    src = str(Path(raresed.__file__).resolve().parents[1])
    code = ("import sys; import raresed.cli; print(' '.join(sorted(m for m in "
            "sys.modules if m.split('.')[:2] in (['scipy', 'io'], "
            "['scipy', 'special']))))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
