import hashlib
import json
import struct
import time
import types
import warnings

import numpy as np
import pytest

import raresed.detector as detector_module
from conftest import parse_report, traced_peak
from oracles import forward
from raresed.data import SynthConfig, Utterance, load_dataset, save_dataset, synth_dataset
from raresed.detector import EventModel, decide_detection, frame_window, infer
from raresed.errors import DataMismatchError, InputError, ParseError
from raresed.metrics import evaluate_dataset
from raresed.recurrent import EncoderConfig, encode_bytes
from raresed.train import (
    TrainConfig,
    alpha_sweep,
    best_model,
    evaluate_model,
    format_report,
    load_model,
    reference_annotations,
    save_model,
    train,
)


def tiny_sets(seed=31, count=30, dev=15, frames=50, dim=6):
    cfg = SynthConfig(count=count, positive_fraction=0.5, frames=frames, dim=dim,
                      ebr_db=(12.0,), duration_frames=(6, 12), seed=seed)
    # Held in memory: synth_dataset regenerates on every access.
    trainset = list(synth_dataset(cfg, id_prefix="tr", start_index=0))
    dev_cfg = SynthConfig(count=dev, positive_fraction=0.5, frames=frames,
                          dim=dim, ebr_db=(12.0,), duration_frames=(6, 12),
                          seed=seed)
    devset = list(synth_dataset(dev_cfg, id_prefix="dv", start_index=count))
    return trainset, devset


def tiny_config(dim=6, epochs=2, **overrides) -> TrainConfig:
    encoder = EncoderConfig(kind="multiresolution", layers=1, hidden=4,
                            input_dim=dim)
    base = dict(encoder=encoder, alpha=1.0, batch_size=5, stepsize=0.002,
                epochs=epochs, seed=9, margin=10)
    base.update(overrides)
    return TrainConfig(**base)


def build_frame_window(utt: Utterance, margin: int) -> range:
    """The training loss's window for one utterance."""
    return frame_window(utt.onset, utt.offset, margin, utt.n_frames)


class TestBuildFrameWindow:
    def test_event_window_with_margin(self):
        utt = Utterance.positive("p", np.zeros((2, 300)), onset=100, offset=150)
        assert build_frame_window(utt, margin=50) == range(50, 201)

    def test_left_clipped(self):
        utt = Utterance.positive("p", np.zeros((2, 300)), onset=10, offset=20)
        assert build_frame_window(utt, margin=50) == range(1, 71)

    def test_zero_margin_is_event_span(self):
        utt = Utterance.positive("p", np.zeros((2, 300)), onset=40, offset=55)
        assert build_frame_window(utt, margin=0) == range(40, 56)

    def test_negative_utterance_rejected(self):
        # A negative utterance has no event boundaries to window.
        utt = Utterance.negative("n", np.zeros((2, 10)))
        assert utt.onset is None and utt.offset is None
        with pytest.raises(TypeError):
            build_frame_window(utt, margin=5)

    def test_window_always_inside_utterance(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            t_len = int(rng.integers(2, 200))
            onset = int(rng.integers(1, t_len + 1))
            offset = int(rng.integers(onset, t_len + 1))
            utt = Utterance.positive("p", np.zeros((2, t_len)), onset, offset)
            window = build_frame_window(utt, margin=int(rng.integers(0, 80)))
            assert window.start >= 1 and window.stop - 1 <= t_len
            assert set(range(onset, offset + 1)) <= set(window)


# sha256 of the best parameters and of the report of a 3-epoch run of
# tiny_config with a one-layer encoder of each kind. The parameter pins
# and the bidirectional report pin were recorded when one batched head
# over the frame logits replaced the per-utterance head, which moved the
# gradients' last bits: the best parameters moved by at most 5.6e-17
# absolute, in 13% (multiresolution) and 16% (bidirectional) of their
# values, and one bidirectional train_loss by 1.9e-16 relative. The
# multiresolution report pin is older, from while ADAM still returned a
# new vector each step.
TRAINING_PINS = {
    "multiresolution": (
        "fd4abd8a78a522b900fab3b30026145736ce11ab674f81bbf40e6e9c33a67edb",
        "9d90a0edc3cc33cceb297d5d0a269cd7263418bc23755e4fc8985d08be37c4b6"),
    "bidirectional": (
        "43e0a8333d612f4f12fb8e813ed2622c436fad93aac722dca331b159aaa17b47",
        "c2f80b9cba74b65c62a8c8481504e39c44894bcd90b5b51160611f27e1663fba"),
}


class TestTrain:
    def test_zero_epoch_budget_keeps_init(self):
        trainset, devset = tiny_sets()
        config = tiny_config(epochs=0)
        report = train(config, trainset, devset)
        assert report.epochs == [] and report.best_epoch == 0
        init = EventModel.initialize(config.encoder, seed=0)  # shape only
        assert report.best_params.shape == (init.param_count,)
        assert np.array_equal(best_model(report).flatten(), report.best_params)

    def test_deterministic_reruns(self):
        trainset, devset = tiny_sets()
        config = tiny_config()
        a = train(config, trainset, devset)
        b = train(config, trainset, devset)
        assert a.best_epoch == b.best_epoch
        assert np.array_equal(a.best_params, b.best_params)
        for sa, sb in zip(a.epochs, b.epochs):
            assert sa.train_loss == sb.train_loss
            assert sa.dev_er == sb.dev_er and sa.dev_f1 == sb.dev_f1

    def test_training_bytes_pinned(self):
        for kind, pins in TRAINING_PINS.items():
            encoder = EncoderConfig(kind=kind, layers=1, hidden=4, input_dim=6)
            report = train(tiny_config(epochs=3, encoder=encoder), *tiny_sets())
            got = (hashlib.sha256(report.best_params.tobytes()).hexdigest(),
                   hashlib.sha256(format_report(report).encode()).hexdigest())
            assert got == pins, kind

    def test_best_epoch_is_earliest_minimum(self):
        trainset, devset = tiny_sets()
        report = train(tiny_config(epochs=3), trainset, devset)
        ers = [s.dev_er for s in report.epochs]
        assert report.best_epoch == int(np.argmin(ers)) + 1

    def test_nonfinite_loss_aborts_with_location(self):
        trainset, devset = tiny_sets()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(InputError, match=r"epoch 1, batch \d+.*stepsize"):
                train(tiny_config(stepsize=1e308, epochs=1), trainset, devset)

    def test_empty_sets_rejected(self):
        trainset, devset = tiny_sets()
        with pytest.raises(InputError):
            train(tiny_config(), [], devset)
        with pytest.raises(InputError):
            train(tiny_config(), trainset, [])

    def test_dev_set_without_positives_rejected(self):
        trainset, devset = tiny_sets()
        negatives = [u for u in devset if u.y == 0]
        with pytest.raises(InputError, match="no positive"):
            train(tiny_config(), trainset, negatives)

    def test_dimension_mismatch_rejected(self):
        trainset, devset = tiny_sets(dim=6)
        with pytest.raises(DataMismatchError):
            train(tiny_config(dim=5), trainset, devset)

    @pytest.mark.parametrize("setting", [
        {"thres0": 1.5}, {"thres0": 0.0}, {"thres1": 1.0}, {"thres1": -0.2},
        {"thres0": float("nan")}, {"collar_s": 0.0},
    ])
    def test_bad_decision_settings_rejected_up_front(self, setting):
        with pytest.raises(InputError):
            tiny_config(**setting)

    @pytest.mark.parametrize("setting", [
        {"alpha": float("inf")}, {"alpha": float("nan")}, {"alpha": -1.0},
        {"stepsize": 0.0}, {"stepsize": -1.0}, {"stepsize": float("inf")},
        {"stepsize": float("nan")},
    ], ids=lambda s: "{}={}".format(*next(iter(s.items()))))
    def test_bad_training_settings_rejected_up_front(self, setting):
        name = next(iter(setting))
        with pytest.raises(InputError, match=name):
            tiny_config(**setting)

    def test_desk_preset_reaches_low_error(self, desk_run):
        # Pinned from the committed-seed measurement: the separable
        # desk-scale set trains to a perfect dev score by epoch 3.
        rows = parse_report(desk_run["report"])
        best = next(r for r in rows if r["best"] == "1")
        assert float(best["dev_er"]) <= 0.25
        assert float(best["dev_f1"]) >= 85.0


class TestAlphaSweep:
    def test_single_point_grid_matches_train(self):
        trainset, devset = tiny_sets()
        config = tiny_config()
        rows = alpha_sweep(config, [1.0], trainset, devset)
        report = train(config, trainset, devset)
        stats = report.epochs[report.best_epoch - 1]
        assert rows == [{"alpha": 1.0, "best_epoch": report.best_epoch,
                         "dev_er": stats.dev_er, "dev_f1": stats.dev_f1}]

    def test_duplicated_alpha_gives_identical_rows(self):
        trainset, devset = tiny_sets()
        rows = alpha_sweep(tiny_config(epochs=1), [1.0, 1.0], trainset, devset)
        assert rows[0] == rows[1]

    def test_rows_sorted_by_alpha(self):
        trainset, devset = tiny_sets(count=10, dev=5)
        rows = alpha_sweep(tiny_config(epochs=1), [5.0, 0.5], trainset, devset)
        assert [r["alpha"] for r in rows] == [0.5, 5.0]

    def test_nonfinite_alpha_rejected_before_any_training(self, monkeypatch):
        import raresed.train as train_module

        def no_training(*args):
            raise AssertionError("a model was trained")

        monkeypatch.setattr(train_module, "train", no_training)
        with pytest.raises(InputError, match="alpha"):
            alpha_sweep(tiny_config(), [0.5, float("inf")], [], [])

    def test_empty_grid_rejected(self):
        trainset, devset = tiny_sets(count=10, dev=5)
        with pytest.raises(InputError):
            alpha_sweep(tiny_config(), [], trainset, devset)

    def test_default_grid_keeps_unit_alpha_near_best(self):
        # Pinned from the committed-seed measurement on a separable set:
        # every alpha in the default grid converges, and the alpha = 1 row
        # lands within 0.05 of the grid's best dev ER.
        cfg = SynthConfig(count=150, positive_fraction=0.5, frames=150, dim=16,
                          ebr_db=(12.0,), duration_frames=(20, 40), seed=11)
        trainset = list(synth_dataset(cfg, id_prefix="tr", start_index=0))
        devset = list(synth_dataset(
            SynthConfig(count=50, positive_fraction=0.5, frames=150, dim=16,
                        ebr_db=(12.0,), duration_frames=(20, 40), seed=11),
            id_prefix="dv", start_index=150))
        encoder = EncoderConfig(kind="multiresolution", layers=2, hidden=32,
                                input_dim=16)
        config = TrainConfig(encoder=encoder, alpha=1.0, batch_size=10,
                             stepsize=0.002, epochs=6, seed=11)
        rows = alpha_sweep(config, (0.1, 0.5, 1.0, 5.0, 10.0), trainset, devset)
        best = min(r["dev_er"] for r in rows)
        unit = next(r for r in rows if r["alpha"] == 1.0)
        assert unit["dev_er"] <= best + 0.05
        assert unit["dev_er"] <= 0.05  # measured 0.0 on the committed seed


class TestModelIO:
    def test_round_trip(self, tmp_path):
        config = tiny_config()
        model = EventModel.initialize(config.encoder, seed=5)
        path = tmp_path / "m.sem"
        save_model(path, model, config)
        back, header = load_model(path)
        assert np.array_equal(back.flatten(), model.flatten())
        assert back.config == model.config
        assert header["train"]["seed"] == config.seed

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_model(tmp_path / "absent.sem")

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk.sem"
        path.write_bytes(b"not a model at all")
        with pytest.raises(ParseError):
            load_model(path)

    def _saved_blob(self, tmp_path):
        config = EncoderConfig(kind="unidirectional", layers=1, hidden=1,
                               input_dim=1)
        path = tmp_path / "m.sem"
        save_model(path, EventModel.initialize(config, seed=2))
        return path.read_bytes()

    def test_every_truncation_rejected(self, tmp_path):
        blob = self._saved_blob(tmp_path)
        for end in range(len(blob)):
            # A new file per cut: rewriting one file in place flushes it
            # on some file systems, which makes the loop slow.
            cut = tmp_path / f"cut{end}.sem"
            cut.write_bytes(blob[:end])
            with pytest.raises(ParseError):
                load_model(cut)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.sem"
        path.write_bytes(self._saved_blob(tmp_path) + b"\0")
        with pytest.raises(ParseError, match="trailing"):
            load_model(path)

    def test_non_object_header_rejected(self, tmp_path):
        header = b"[1, 2]"
        path = tmp_path / "list.sem"
        path.write_bytes(b"RSEM" + struct.pack("<II", 1, len(header)) + header
                         + struct.pack("<Q", 0))
        with pytest.raises(ParseError, match="JSON object"):
            load_model(path)

    @pytest.mark.parametrize("encoder,message", [
        ({"hidden": 10**6, "input_dim": 10**6}, "promises"),  # 6e12 parameters
        ({"layers": 2.5}, "bad model header"),
        ({"layers": 10**9}, "promises"),
        ({"layers": 2.0}, "bad model header"),
        ({"layers": True}, "bad model header"),
        ({"multires_bidirectional": "yes"}, "bad model header"),
    ])
    def test_header_encoder_checked_before_building(self, tmp_path, encoder,
                                                    message):
        enc = {"kind": "unidirectional", "layers": 1, "hidden": 1,
               "input_dim": 1, "multires_bidirectional": False, **encoder}
        header = json.dumps({"encoder": enc}).encode()
        path = tmp_path / "big.sem"
        path.write_bytes(b"RSEM" + struct.pack("<II", 1, len(header)) + header
                         + struct.pack("<Q", 10) + bytes(80))
        t0 = time.perf_counter()
        with pytest.raises(ParseError, match=message):
            load_model(path)
        # Nothing that scales with the header's sizes runs first.
        assert time.perf_counter() - t0 < 0.5

    @pytest.mark.parametrize("name,value", [("thres0", 1.5), ("thres1", 0.0)])
    def test_saved_threshold_outside_unit_interval_rejected(self, tmp_path,
                                                            name, value):
        encoder = EncoderConfig(kind="unidirectional", layers=1, hidden=1,
                                input_dim=1)
        path = tmp_path / "m.sem"
        save_model(path, EventModel.initialize(encoder, seed=2),
                   TrainConfig(encoder=encoder))
        blob = path.read_bytes()
        (size,) = struct.unpack_from("<I", blob, 8)
        header = json.loads(blob[12:12 + size])
        header["train"][name] = value
        text = json.dumps(header).encode()
        path.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text
                         + blob[12 + size:])
        with pytest.raises(ParseError, match=name):
            load_model(path)


    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, value):
        encoder = EncoderConfig(kind="unidirectional", layers=1, hidden=1,
                                input_dim=1)
        model = EventModel.initialize(encoder, seed=2)
        model.params[2] = value
        path = tmp_path / "m.sem"
        save_model(path, model)
        with pytest.raises(ParseError, match="parameter 2 .* not finite"):
            load_model(path)


class TestReporting:
    def test_report_format(self):
        trainset, devset = tiny_sets(count=10, dev=5)
        report = train(tiny_config(epochs=2), trainset, devset)
        text = format_report(report)
        lines = text.splitlines()
        assert lines[0] == "epoch\ttrain_loss\tdev_er\tdev_f1\tbest"
        assert len(lines) == 3
        assert sum(line.endswith("\t1") for line in lines[1:]) == 1

    def test_reference_annotations(self):
        utt = Utterance.positive("p", np.zeros((2, 100)), onset=100, offset=100)
        refs = reference_annotations([utt, Utterance.negative("n", np.zeros((2, 5)))],
                                     frame_shift_s=0.023)
        assert refs["n"] is None
        assert refs["p"].onset == pytest.approx(99 * 0.023, abs=1e-12)

    def test_evaluate_model_runs(self):
        trainset, devset = tiny_sets(count=8, dev=6)
        config = tiny_config()
        model = EventModel.initialize(config.encoder, seed=1)
        er, f1, counts = evaluate_model(model, devset, 0.5, 0.5)
        assert counts.n_ref == sum(u.y for u in devset)
        assert er >= 0.0 and 0.0 <= f1 <= 100.0

    def test_evaluate_model_on_desk_matches_per_clip_scoring(self, desk_data,
                                                             desk_run):
        # The batched pass scores the desk dev set exactly as a traced
        # forward pass per clip does, and as training scored its best epoch.
        model, _ = load_model(desk_run["model"])
        devset = load_dataset(desk_data["dev"])
        er, f1, counts = evaluate_model(model, devset, 0.5, 0.5)
        per_clip = {}
        for utt in devset:
            trace = forward(model, utt.features)
            per_clip[utt.id] = decide_detection(trace.utterance_posterior,
                                                trace.frame_posteriors)
        want = evaluate_dataset(reference_annotations(devset), per_clip)
        assert (er, f1, counts) == want
        best = next(r for r in parse_report(desk_run["report"]) if r["best"] == "1")
        assert (er, f1) == (float(best["dev_er"]), float(best["dev_f1"]))


def test_train_submodule_is_not_shadowed():
    import raresed.train as module

    assert isinstance(module, types.ModuleType)
    assert module.train is train


# One desk minibatch of features: 10 clips of 16 x 150 float64.
MINIBATCH_BYTES = 10 * 16 * 150 * 8
# What one stored record may add to the peak: its header object, id and
# metadata, and its share of dev scoring's per-clip results (detection,
# reference and annotation). A held record would add its 19.2 KB of
# features.
RECORD_ALLOWANCE = 1024


class TestStreamingMemory:
    def test_peak_does_not_grow_with_the_dataset(self, tmp_path, monkeypatch):
        # Load, one training epoch with dev scoring, then infer, on n and
        # on 4n desk-shaped clips per split. Slices hold ten clips at both
        # sizes, so only what is kept per record may grow.
        assert 10 * RECORD_ALLOWANCE < MINIBATCH_BYTES // 10
        encoder = EncoderConfig(kind="multiresolution", layers=2, hidden=32,
                                input_dim=16)
        config = TrainConfig(encoder=encoder, batch_size=10, stepsize=0.002,
                             epochs=1, seed=5)
        monkeypatch.setattr(detector_module, "INFER_BYTES",
                            10 * encode_bytes(encoder, 150))

        def peak(count: int) -> int:
            paths = []
            for split, start in (("train", 0), ("dev", count)):
                cfg = SynthConfig(count=count, positive_fraction=0.5, frames=150,
                                  dim=16, ebr_db=(12.0,), duration_frames=(20, 40),
                                  seed=5)
                paths.append(tmp_path / f"{split}-{count}.sed")
                save_dataset(paths[-1], synth_dataset(cfg, split, start))

            def run():
                with load_dataset(paths[0]) as trainset, \
                        load_dataset(paths[1]) as devset:
                    model = best_model(train(config, trainset, devset))
                    infer(model, devset)

            run()  # first calls may allocate once-only state
            return traced_peak(run)

        n = 20
        small, large = peak(n), peak(4 * n)
        assert large - small < MINIBATCH_BYTES + 2 * 3 * n * RECORD_ALLOWANCE, \
            (small, large)
