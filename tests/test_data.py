import hashlib
import math
import re
import struct

import numpy as np
import pytest
import scipy.io.wavfile

from raresed.data import (
    LfbeConfig,
    SynthConfig,
    Utterance,
    hz_to_mel,
    lfbe,
    load_dataset,
    mel_filterbank,
    mel_to_hz,
    read_wav,
    save_dataset,
    synth_dataset,
)
from raresed.errors import InputError, ParseError


def sed_record(uid=b"r", y=1, dim=1, t_len=4, onset=2, offset=3, meta=b"{}",
               features=None) -> bytes:
    """One hand-built .sed record (see the layout in raresed.data)."""
    if features is None:
        features = np.zeros(dim * t_len)
    return (struct.pack("<I", len(uid)) + uid + struct.pack("<BII", y, dim, t_len)
            + struct.pack("<II", onset, offset) + struct.pack("<I", len(meta))
            + meta + np.asarray(features, dtype="<f8").tobytes())


def sed_file(path, *records: bytes):
    path.write_bytes(b"RSED" + struct.pack("<IQ", 1, len(records))
                     + b"".join(records))
    return path


def desk_synth(**overrides) -> SynthConfig:
    base = dict(count=12, positive_fraction=0.5, frames=60, dim=8,
                ebr_db=(6.0,), duration_frames=(8, 16), seed=21)
    base.update(overrides)
    return SynthConfig(**base)


class TestUtterance:
    def test_negative_has_no_labels(self):
        utt = Utterance.negative("n", np.zeros((3, 5)))
        assert utt.y == 0 and utt.onset is None and utt.offset is None
        with pytest.raises(ValueError, match="negative"):
            Utterance(id="n", features=np.zeros((3, 5)), y=0, onset=2, offset=3)

    def test_positive_boundaries(self):
        utt = Utterance.positive("p", np.zeros((3, 10)), onset=4, offset=7)
        assert (utt.y, utt.onset, utt.offset) == (1, 4, 7)

    def test_positive_needs_labels(self):
        with pytest.raises(ValueError, match="boundaries"):
            Utterance(id="p", features=np.zeros((2, 5)), y=1)

    @pytest.mark.parametrize("y,onset,offset", [
        (1, 0, 3), (1, 2, 6), (1, 4, 3), (1, None, 3), (1, 2, None),
        (0, 2, None), (0, None, 3), (2, None, None), (2, 2, 3)])
    def test_bad_label_or_boundaries_rejected(self, y, onset, offset):
        with pytest.raises(ValueError):
            Utterance(id="u", features=np.zeros((2, 5)), y=y, onset=onset,
                      offset=offset)

    @pytest.mark.parametrize("y,onset,offset,name", [
        (1.0, 1, 2, "label"), (0.0, None, None, "label"), (1, 1.0, 2, "onset"),
        (1, 1, np.float64(2), "offset")])
    def test_float_label_or_boundary_rejected(self, y, onset, offset, name):
        # A .sed record stores each as an integer, which a float cannot fill.
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            Utterance("u", np.zeros((2, 5)), y, onset, offset)

    def test_event_may_fill_the_last_frame(self):
        utt = Utterance.positive("p", np.zeros((2, 5)), onset=5, offset=5)
        assert (utt.onset, utt.offset, utt.n_frames) == (5, 5, 5)

    @pytest.mark.parametrize("uid", ["a\tb", "a\nb", "a\r", "\n", "a\x0bb",
                                     "a\x1cb", "a\x85b", "a\u2028b", "a\u2029"])
    def test_id_that_would_split_an_annotation_line_rejected(self, uid):
        with pytest.raises(ValueError, match="tab or a line break"):
            Utterance.negative(uid, np.zeros((2, 5)))

    @pytest.mark.parametrize("uid", ["", "a b", "dev-00001", "\u00e9t\u00e9"])
    def test_other_ids_accepted(self, uid):
        assert Utterance.negative(uid, np.zeros((2, 5))).id == uid


class TestSynth:
    def test_zero_positive_fraction(self):
        data = synth_dataset(desk_synth(positive_fraction=0.0, count=20))
        assert all(utt.y == 0 for utt in data)

    def test_high_ebr_separates_event_region(self):
        data = synth_dataset(desk_synth(ebr_db=(60.0,), count=30,
                                        positive_fraction=1.0))
        for utt in data:
            assert utt.y == 1
            event = slice(utt.onset - 1, utt.offset)
            rest = np.ones(utt.n_frames, dtype=bool)
            rest[event] = False
            assert utt.features[:, event].mean() > utt.features[:, rest].mean()

    def test_same_seed_is_bit_identical(self):
        a = synth_dataset(desk_synth())
        b = synth_dataset(desk_synth())
        for ua, ub in zip(a, b):
            assert ua.id == ub.id and ua.y == ub.y and ua.meta == ub.meta
            assert np.array_equal(ua.features, ub.features)
            assert (ua.onset, ua.offset) == (ub.onset, ub.offset)

    def test_generation_order_independent(self):
        cfg = desk_synth(count=6)
        dataset = synth_dataset(cfg, id_prefix="utt")
        forward_order = [dataset[i] for i in range(6)]
        reverse_order = [dataset[i] for i in reversed(range(6))]
        # A set that starts at index 2 holds indices 2.. of this one.
        later = synth_dataset(desk_synth(count=4), id_prefix="utt", start_index=2)
        for ua, ub in zip(forward_order, reversed(reverse_order), strict=True):
            assert np.array_equal(ua.features, ub.features)
            assert ua.y == ub.y
        for ua, uc in zip(forward_order[2:], later, strict=True):
            assert np.array_equal(ua.features, uc.features)
            assert (ua.id, ua.y, ua.meta) == (uc.id, uc.y, uc.meta)

    def test_positive_rate_tracks_fraction(self):
        data = synth_dataset(desk_synth(count=400, positive_fraction=0.5))
        rate = np.mean([utt.y for utt in data])
        assert 0.4 < rate < 0.6

    def test_duration_must_fit(self):
        with pytest.raises(InputError):
            desk_synth(duration_frames=(10, 100))
        with pytest.raises(InputError):
            desk_synth(ebr_db=())

    def test_event_duration_within_range(self):
        data = synth_dataset(desk_synth(count=40, positive_fraction=1.0))
        for utt in data:
            duration = utt.offset - utt.onset + 1
            assert 8 <= duration <= 16


class TestMelFilterbank:
    def test_rows_positive(self):
        bank = mel_filterbank(LfbeConfig())
        assert bank.shape == (64, 1025)
        assert np.all(bank >= 0.0)
        assert np.all(bank.sum(axis=1) > 0.0)

    def test_peaks_strictly_increasing(self):
        bank = mel_filterbank(LfbeConfig())
        peaks = np.argmax(bank, axis=1)
        assert np.all(np.diff(peaks) > 0)

    def test_peak_bins_match_independent_recomputation(self):
        cfg = LfbeConfig()
        bank = mel_filterbank(cfg)
        # Independent oracle: recompute mel-spaced triangle peaks from the
        # mel formula and take the per-filter argmax over bin frequencies.
        points = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(22050.0), 66))
        bin_hz = np.arange(1025) * 44100 / 2048
        for j in range(64):
            left, peak, right = points[j], points[j + 1], points[j + 2]
            tri = np.clip(np.minimum((bin_hz - left) / (peak - left),
                                     (right - bin_hz) / (right - peak)), 0, None)
            assert int(np.argmax(bank[j])) == int(np.argmax(tri))

    def test_too_many_filters_rejected(self):
        with pytest.raises(InputError):
            mel_filterbank(LfbeConfig(sample_rate=8000, frame_ms=16.0,
                                      shift_ms=8.0, n_filters=200))


class TestLfbe:
    def test_geometry_matches_config(self):
        cfg = LfbeConfig()
        assert cfg.frame_length == 2029
        assert cfg.shift_length == 1014
        assert cfg.nfft == 2048

    def test_zero_waveform_hits_floor(self):
        cfg = LfbeConfig()
        feats = lfbe(np.zeros(cfg.frame_length * 3), cfg)
        assert np.all(feats == np.log(1e-10))

    def test_gain_shifts_by_two_log_ten(self):
        cfg = LfbeConfig()
        rng = np.random.default_rng(17)
        wave = rng.standard_normal(cfg.frame_length * 4) * 0.1
        base = lfbe(wave, cfg)
        scaled = lfbe(10.0 * wave, cfg)
        unfloored = base > np.log(1e-10)
        assert unfloored.any()
        shift = scaled[unfloored] - base[unfloored]
        assert np.all(np.abs(shift - 2.0 * math.log(10.0)) < 1e-9)

    def test_frame_count_formula(self):
        cfg = LfbeConfig()
        rng = np.random.default_rng(18)
        for _ in range(100):
            n = int(rng.integers(cfg.frame_length, cfg.frame_length * 6))
            feats = lfbe(np.zeros(n), cfg)
            assert feats.shape == (64, 1 + (n - cfg.frame_length) // cfg.shift_length)

    def test_short_waveform_rejected(self):
        cfg = LfbeConfig()
        with pytest.raises(InputError):
            lfbe(np.zeros(cfg.frame_length - 1), cfg)

    def test_sine_at_filter_center_wins_its_filter(self):
        cfg = LfbeConfig()
        points = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(22050.0), 66))
        center = points[33]  # peak frequency of filter index 32
        t = np.arange(cfg.sample_rate) / cfg.sample_rate
        feats = lfbe(np.sin(2.0 * np.pi * center * t), cfg)
        assert np.all(np.argmax(feats, axis=0) == 32)

    def test_shift_longer_than_frame_rejected(self):
        with pytest.raises(InputError):
            LfbeConfig(frame_ms=20.0, shift_ms=25.0)


class TestWav:
    def test_pcm16_round_trip(self, tmp_path):
        cfg = LfbeConfig(sample_rate=16000)
        t = np.arange(16000) / 16000
        wave = 0.5 * np.sin(2.0 * np.pi * 440.0 * t)
        path = tmp_path / "tone.wav"
        scipy.io.wavfile.write(path, 16000, (wave * 32768.0).astype(np.int16))
        rate, samples = read_wav(path)
        assert rate == 16000
        assert np.max(np.abs(samples - wave)) < 1e-4
        feats = lfbe(samples, cfg)
        assert feats.shape[0] == 64

    def test_float32_round_trip(self, tmp_path):
        wave = np.sin(np.linspace(0.0, 100.0, 8000)).astype(np.float32)
        path = tmp_path / "tone32.wav"
        scipy.io.wavfile.write(path, 8000, wave)
        rate, samples = read_wav(path)
        assert rate == 8000
        assert np.allclose(samples, wave.astype(np.float64), atol=0, rtol=0)

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        scipy.io.wavfile.write(path, 8000,
                               np.zeros((100, 2), dtype=np.int16))
        with pytest.raises(InputError):
            read_wav(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            read_wav(tmp_path / "absent.wav")


class TestDatasetIO:
    def test_round_trip_lossless(self, tmp_path):
        data = synth_dataset(desk_synth(count=9))
        path = tmp_path / "d.sed"
        save_dataset(path, data)
        back = load_dataset(path)
        assert len(back) == 9
        for ua, ub in zip(data, back):
            assert ua.id == ub.id and ua.y == ub.y and ua.meta == ub.meta
            assert np.array_equal(ua.features, ub.features)
            if ua.y:
                assert (ua.onset, ua.offset) == (ub.onset, ub.offset)

    def test_bytes_match_frozen_layout(self, tmp_path):
        # Digest of the same two records as written by the earlier
        # writer, which buffered the whole file in memory before writing.
        data = [
            Utterance.positive("pos-\u00e9", np.arange(12.0).reshape(3, 4) / 7.0,
                               onset=2, offset=3,
                               meta={"ebr_db": 12.0, "note": "x"}),
            Utterance.negative("neg", -np.arange(6.0).reshape(3, 2) * 0.1, meta={}),
        ]
        path = tmp_path / "d.sed"
        save_dataset(path, data)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == ("3905944f3bc753243a80102c5a09e8a3"
                          "6c052af62293683902a41973762a3d59")

    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.sed"
        save_dataset(path, [])
        assert list(load_dataset(path)) == []

    def test_truncated_record_names_index(self, tmp_path):
        data = synth_dataset(desk_synth(count=3))
        path = tmp_path / "d.sed"
        save_dataset(path, data)
        blob = path.read_bytes()
        (tmp_path / "cut.sed").write_bytes(blob[:-50])
        with pytest.raises(ParseError, match="record 2"):
            load_dataset(tmp_path / "cut.sed")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.sed"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ParseError, match="magic"):
            load_dataset(path)

    def test_trailing_garbage_detected(self, tmp_path):
        data = synth_dataset(desk_synth(count=2))
        path = tmp_path / "d.sed"
        save_dataset(path, data)
        with open(path, "ab") as fh:
            fh.write(b"\x01")
        with pytest.raises(ParseError, match="trailing"):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_dataset(tmp_path / "absent.sed")

    def test_hand_built_record_loads(self, tmp_path):
        path = sed_file(tmp_path / "d.sed", sed_record(features=[1.0, 2.0, 3.0, 4.0]))
        (utt,) = load_dataset(path)
        assert (utt.id, utt.y, utt.onset, utt.offset) == ("r", 1, 2, 3)
        assert np.array_equal(utt.features, [[1.0, 2.0, 3.0, 4.0]])

    @pytest.mark.parametrize("fields,message", [
        (dict(uid=b"r\xff"), "id is not UTF-8"),
        (dict(meta=b'{"a": "\xff"}'), "metadata"),
        (dict(onset=0), "boundaries"),
        (dict(offset=5), "boundaries"),
        (dict(onset=3, offset=2), "boundaries"),
        (dict(features=[0.0, math.nan, 0.0, 0.0]), "non-finite"),
        (dict(y=2), "label byte 2"),
        (dict(y=0, onset=0, offset=0, t_len=0), "nonempty"),
        (dict(dim=2**32 - 1, t_len=2**32 - 1, features=[]), "end of file"),
        (dict(y=0), "negative record with event boundaries 2..3"),
        (dict(uid=b"r\tx"), "tab or a line break"),
        (dict(uid="r\u2028".encode()), "tab or a line break"),
        (dict(uid=b"r"), "repeats the id 'r'"),
    ])
    def test_malformed_record_names_it(self, tmp_path, fields, message):
        path = sed_file(tmp_path / "d.sed", sed_record(), sed_record(**fields))
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: record 1: "
                                             f".*{message}"):
            load_dataset(path)


class TestStreaming:
    """Synthetic sets are generated on access, and a loaded `.sed` keeps
    only record headers, reading features from the file when asked."""

    def test_synth_dataset_indexes_like_a_list(self):
        cfg = desk_synth(count=5)
        data = synth_dataset(cfg, id_prefix="s", start_index=3)
        held = list(synth_dataset(cfg, id_prefix="s", start_index=3))
        assert [utt.id for utt in held] == [f"s-{i:05d}" for i in range(3, 8)]
        assert len(data) == 5
        for got, want in zip([data[0], data[-1], *data[1:3]],
                             [held[0], held[-1], *held[1:3]], strict=True):
            assert (got.id, got.y, got.meta) == (want.id, want.y, want.meta)
            assert np.array_equal(got.features, want.features)
        with pytest.raises(IndexError):
            data[5]

    def test_save_returns_the_headers_load_keeps(self, tmp_path):
        data = synth_dataset(desk_synth(count=6))
        path = tmp_path / "d.sed"
        written = save_dataset(path, data)
        loaded = load_dataset(path)
        fields = ("id", "y", "dim", "n_frames", "onset", "offset", "meta", "path",
                  "index", "pos")
        assert [[getattr(r, f) for f in fields] for r in written] \
            == [[getattr(r, f) for f in fields] for r in loaded]
        for utt, record, saved in zip(data, loaded, written, strict=True):
            assert np.array_equal(record.features, utt.features)
            assert np.array_equal(saved.features, utt.features)
            assert (record.onset, record.offset) == (utt.onset, utt.offset)

    def test_each_read_opens_and_closes_the_file(self, tmp_path, monkeypatch):
        path = tmp_path / "d.sed"
        save_dataset(path, synth_dataset(desk_synth(count=4)))
        dataset = load_dataset(path)
        opened = []

        def spy(*args, **kwargs):
            opened.append(real_open(*args, **kwargs))
            return opened[-1]

        real_open = open
        monkeypatch.setattr("builtins.open", spy)
        for count, record in enumerate(dataset, start=1):
            record.features
            assert len(opened) == count and opened[-1].closed
        dataset[0].features
        assert len(opened) == 5 and all(fh.closed for fh in opened)

    def test_file_cut_after_loading_names_the_record(self, tmp_path):
        path = tmp_path / "d.sed"
        save_dataset(path, synth_dataset(desk_synth(count=3)))
        dataset = load_dataset(path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-50])
        assert np.isfinite(dataset[1].features).all()
        with pytest.raises(ParseError, match="record 2: unexpected end of file"):
            dataset[2].features

    def test_bad_record_after_good_ones_fails_the_load(self, tmp_path):
        # Validation is one pass over every record before any is used.
        path = sed_file(tmp_path / "d.sed", sed_record(uid=b"a"), sed_record(uid=b"b"),
                        sed_record(features=[0.0, 0.0, math.inf, 0.0]))
        with pytest.raises(ParseError, match="record 2: .*non-finite"):
            load_dataset(path)
