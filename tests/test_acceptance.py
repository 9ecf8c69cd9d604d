"""Acceptance suite: one test per criterion, each printing a summary line.

Run with `pytest tests/test_acceptance.py -v -rA` to see the per-criterion
lines alongside the pass/fail verdicts.
"""

import hashlib
import math
import time

import numpy as np

from conftest import parse_report, run_desk_pipeline
from fdcheck import (
    ABS_TOL,
    REL_TOL,
    fd_gradient_errors,
    random_utterance,
)
from oracles import forward
from raresed.data import LfbeConfig, SynthConfig, lfbe, synth_dataset
from raresed.detector import Detection, EventModel
from raresed.metrics import (
    EventAnnotation,
    MetricCounts,
    error_rate,
    evaluate_dataset,
    f1_score,
    match_utterance,
)
from raresed.recurrent import EncoderConfig
from raresed.train import TrainConfig, train

ENCODER_KINDS = ("unidirectional", "bidirectional", "multiresolution")


class TestC1GradientCorrectness:
    """All encoder kinds x depths x widths x lengths, 5 seeds each."""

    MAX_COORDS = 160

    def test_c1_gradient_check_sweep(self):
        started = time.perf_counter()
        worst_rel, worst_abs, runs = 0.0, 0.0, 0
        for kind in ENCODER_KINDS:
            for layers in (1, 2):
                for hidden in (4, 8):
                    for t_len in (7, 16):
                        for seed in range(5):
                            rel, abse = self._run_one(kind, layers, hidden,
                                                      t_len, seed)
                            worst_rel = max(worst_rel, rel)
                            worst_abs = max(worst_abs, abse)
                            runs += 1
        elapsed = time.perf_counter() - started
        assert worst_rel < REL_TOL
        assert worst_abs < ABS_TOL
        assert elapsed < 60.0
        print(f"\n[C1] gradient correctness PASS: {runs} runs, "
              f"max rel err {worst_rel:.2e} (tol {REL_TOL:g}), "
              f"sub-resolution drift {worst_abs:.2e} (tol {ABS_TOL:g}), "
              f"{elapsed:.1f}s < 60s")

    def _run_one(self, kind, layers, hidden, t_len, seed):
        rng = np.random.default_rng(seed)
        config = EncoderConfig(kind=kind, layers=layers, hidden=hidden,
                               input_dim=5)
        model = EventModel.initialize(config, seed=seed + 977)
        # Four positive draws and one negative per cell, so both loss
        # branches are exercised at every architecture point.
        batch = [random_utterance(rng, 5, t_len, positive=(seed % 5) != 4)]
        theta_size = model.param_count
        w_dim = model.w.shape[0]
        if theta_size <= self.MAX_COORDS:
            coords = np.arange(theta_size)
        else:
            coords = np.unique(np.concatenate([
                rng.choice(theta_size, size=self.MAX_COORDS, replace=False),
                np.arange(theta_size - w_dim, theta_size),
            ]))
        return fd_gradient_errors(model, batch, alpha=1.0, margin=50,
                                  coords=coords)


class TestC2AttentionAndShapes:
    def test_c2_attention_and_shape_invariants(self):
        started = time.perf_counter()
        rng = np.random.default_rng(42)
        for draw in range(1000):
            kind = ENCODER_KINDS[draw % 3]
            config = EncoderConfig(kind=kind, layers=int(rng.integers(1, 3)),
                                   hidden=int(rng.integers(2, 7)),
                                   input_dim=int(rng.integers(2, 6)))
            model = EventModel.initialize(config, seed=draw)
            t_len = int(rng.integers(1, 65))
            trace = forward(model, rng.standard_normal(
                (config.input_dim, t_len)))
            a = trace.attention
            assert np.all(a >= 0.0)
            assert 1.0 - 1e-9 <= a.sum() <= 1.0
            assert np.all((trace.frame_posteriors >= 0.0)
                          & (trace.frame_posteriors <= 1.0))
            assert 0.0 <= trace.utterance_posterior <= 1.0
            assert trace.hidden.shape == (t_len, config.output_dim)

        # Exhaustive length sweep: every T in 1..64 for every kind.
        for kind in ENCODER_KINDS:
            config = EncoderConfig(kind=kind, layers=2, hidden=4, input_dim=3)
            model = EventModel.initialize(config, seed=7)
            for t_len in range(1, 65):
                trace = forward(model, rng.standard_normal((3, t_len)))
                assert trace.hidden.shape[0] == t_len
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0
        print(f"\n[C2] attention/shape invariants PASS: 1000 random draws + "
              f"exhaustive T=1..64 x 3 kinds, {elapsed:.1f}s < 30s")


class TestC3MetricOracle:
    def test_c3_metric_oracle_equivalence(self):
        rng = np.random.default_rng(97)
        instances = 0
        shift = 0.023
        while instances < 1000:
            n = int(rng.integers(1, 14))
            refs, dets = {}, {}
            for i in range(n):
                uid = f"u{i}"
                if rng.uniform() < 0.65:
                    onset = int(rng.integers(1, 200))
                    refs[uid] = EventAnnotation(onset=(onset - 1) * shift,
                                                offset=(onset + 20) * shift)
                else:
                    refs[uid] = None
                if rng.uniform() < 0.65:
                    onset = int(rng.integers(1, 200))
                    dets[uid] = Detection(present=True, onset=onset,
                                          offset=onset + 10)
                else:
                    dets[uid] = Detection(present=False)
            if not any(r is not None for r in refs.values()):
                continue
            er, f1, counts = evaluate_dataset(refs, dets, frame_shift_s=shift,
                                              collar=0.5)
            # Brute-force per-utterance re-tally, written independently.
            tp = fp = fn = n_ref = 0
            for uid in refs:
                r, d = refs[uid], dets[uid]
                s_onset = (d.onset - 1) * shift if d.present else None
                if r is not None:
                    n_ref += 1
                    if s_onset is None:
                        fn += 1
                    elif abs(s_onset - r.onset) <= 0.5:
                        tp += 1
                    else:
                        fn += 1
                        fp += 1
                elif s_onset is not None:
                    fp += 1
            assert (counts.tp, counts.fp, counts.fn, counts.n_ref) == \
                (tp, fp, fn, n_ref)
            assert er == (fn + fp) / n_ref
            assert f1 == 100.0 * 2 * tp / (2 * tp + fp + fn)
            instances += n

        # Hand-count fixture: N=2 with one TP, one deletion, one insertion.
        counts = MetricCounts()
        counts.add(match_utterance(EventAnnotation(1.0, 2.0),
                                   EventAnnotation(1.2, 2.0), 0.5))
        counts.add(match_utterance(EventAnnotation(4.0, 5.0), None, 0.5))
        counts.add(match_utterance(None, EventAnnotation(9.0, 9.5), 0.5))
        assert error_rate(counts) == 1.0
        assert f1_score(counts) == 50.0
        print(f"\n[C3] metric oracle equivalence PASS: {instances} randomized "
              f"instances exactly matched; hand fixture ER=1.0, F1=50.0")


class TestC4C5DeskTraining:
    def test_c4_desk_training_reaches_target(self, desk_run):
        rows = parse_report(desk_run["report"])
        assert rows, "training wrote no epochs"
        best = next(r for r in rows if r["best"] == "1")
        er, f1 = float(best["dev_er"]), float(best["dev_f1"])
        assert er <= 0.25
        assert f1 >= 85.0
        # Regression bound pinned from the committed-seed measurement
        # (dev ER 0.0, F1 100.0 at epoch 3).
        assert er <= 0.01
        assert f1 >= 99.5
        assert desk_run["train_seconds"] < 600.0
        print(f"\n[C4] desk training PASS: dev ER {er:.3f} <= 0.25, "
              f"F1 {f1:.1f} >= 85, {desk_run['train_seconds']:.0f}s < 600s")

    def test_c5_train_loss_decreases(self, desk_run):
        rows = parse_report(desk_run["report"])
        assert len(rows) >= 5
        first = float(rows[0]["train_loss"])
        fifth = float(rows[4]["train_loss"])
        assert fifth < first
        print(f"\n[C5] optimization sanity PASS: epoch-5 loss {fifth:.4f} < "
              f"epoch-1 loss {first:.4f}")


# sha256 of the desk preset's artefacts at its committed seeds, the same
# at one and at two BLAS threads. A design change must leave them
# byte-identical; a change that moves them re-records them and says why.
DESK_DIGESTS = {
    ("desk_data", "train"): "063cb3cd4183127f502047fd146ac9aedcac76af55f5b367c6571aabd0481f9f",
    ("desk_data", "dev"): "14c98d68140449f4b21c2684a7bbb4e2862dbf1cf7f7e5de4a99cf416ac66500",
    ("desk_data", "dev_ref"): "12b4d9d293be4d94d55932db844c4f686997a59af4e4c49d5207294a27c03f39",
    ("desk_data", "train_ref"): "aeba736650fc31c499c1f9f2a6cba1f440c936860d5f50cfbea152c65262007d",
    ("desk_run", "model"): "25d4e7fc4f1fe9396b04cbf0721118e198637662c4c23ba3ab58aff75d4ef35c",
    ("desk_run", "report"): "ef7eac900aa36c39b1cc72b9b8de7daa1f9edc7fd655605d3a2c5e68e3688e49",
    ("desk_run", "detections"): "565d39e4df5bce69ccf72c6cece31fd7b896e89e686937de9a1960c536a669e1",
}
# (dev_er, dev_f1, best) of each epoch of the desk report; best epoch 3.
DESK_REPORT = ([("0.3389830508474576", "82.45614035087719", "0"),
                ("0.01694915254237288", "99.15966386554622", "0"),
                ("0.0", "100.0", "1")]
               + [("0.0", "100.0", "0")] * 12)


class TestDeskArtefactsPinned:
    def test_desk_artefacts_byte_identical(self, desk_data, desk_run):
        fixtures = {"desk_data": desk_data, "desk_run": desk_run}
        for (fixture, name), want in DESK_DIGESTS.items():
            got = hashlib.sha256(fixtures[fixture][name].read_bytes()).hexdigest()
            assert got == want, name
        rows = parse_report(desk_run["report"])
        assert [(r["dev_er"], r["dev_f1"], r["best"]) for r in rows] == DESK_REPORT
        print(f"\n[pins] desk artefacts PASS: {len(DESK_DIGESTS)} files "
              f"byte-identical, dev ER/F1 of {len(rows)} epochs unchanged")


class TestC6ArchitectureTrend:
    """Qualitative report only; the ordering is documented, not asserted."""

    def test_c6_architecture_trend_report(self, tmp_path):
        # Harder mixing ratio than the desk preset so the architectures
        # can actually separate; desk-scale data otherwise.
        def make(count, start, prefix):
            cfg = SynthConfig(count=count, positive_fraction=0.5, frames=150,
                              dim=16, ebr_db=(0.0,), duration_frames=(20, 40),
                              seed=7)
            # Held in memory: synth_dataset regenerates on every access.
            return list(synth_dataset(cfg, id_prefix=prefix, start_index=start))

        trainset = make(200, 0, "train")
        devset = make(80, 200, "dev")
        lines = ["architecture\tdev_er\tdev_f1\tbest_epoch"]
        results = {}
        for kind in ENCODER_KINDS:
            encoder = EncoderConfig(kind=kind, layers=2, hidden=32,
                                    input_dim=16)
            config = TrainConfig(encoder=encoder, alpha=1.0, batch_size=10,
                                 stepsize=0.002, epochs=12, seed=7)
            report = train(config, trainset, devset)
            stats = report.epochs[report.best_epoch - 1]
            results[kind] = stats
            lines.append(f"{kind}\t{stats.dev_er!r}\t{stats.dev_f1!r}"
                         f"\t{report.best_epoch}")
        table = "\n".join(lines)
        (tmp_path / "architecture_trend.tsv").write_text(table + "\n")
        multires_best = results["multiresolution"].dev_er == min(
            s.dev_er for s in results.values())
        print("\n[C6] architecture trend report (not hard-asserted):")
        print(table)
        print(f"[C6] multi-resolution lowest dev ER on this set: "
              f"{multires_best}")
        for stats in results.values():
            assert np.isfinite(stats.dev_er) and np.isfinite(stats.dev_f1)


class TestC7Determinism:
    def test_c7_rerun_is_byte_identical(self, desk_data, desk_run,
                                        tmp_path_factory):
        rerun = run_desk_pipeline(desk_data,
                                  tmp_path_factory.mktemp("desk_rerun"))
        report_a = desk_run["report"].read_bytes()
        report_b = rerun["report"].read_bytes()
        det_a = desk_run["detections"].read_bytes()
        det_b = rerun["detections"].read_bytes()
        assert report_a == report_b
        assert det_a == det_b
        print(f"\n[C7] determinism PASS: rerun reproduced report.tsv "
              f"({len(report_a)} bytes) and detections.tsv "
              f"({len(det_a)} bytes) byte-identically")


class TestC8LfbeProperties:
    def test_c8_lfbe_properties(self):
        cfg = LfbeConfig()
        feats = lfbe(np.zeros(cfg.frame_length * 2), cfg)
        assert np.all(feats == np.log(1e-10))

        rng = np.random.default_rng(55)
        wave = rng.standard_normal(cfg.frame_length * 3) * 0.2
        base = lfbe(wave, cfg)
        scaled = lfbe(10.0 * wave, cfg)
        unfloored = base > np.log(1e-10)
        assert unfloored.any()
        shift = scaled[unfloored] - base[unfloored]
        assert np.max(np.abs(shift - 2.0 * math.log(10.0))) < 1e-9

        for _ in range(100):
            n = int(rng.integers(cfg.frame_length, cfg.frame_length * 5))
            expected = 1 + (n - cfg.frame_length) // cfg.shift_length
            assert lfbe(np.zeros(n), cfg).shape == (64, expected)
        print("\n[C8] LFBE properties PASS: floor, exact 2*ln(10) gain shift, "
              "frame-count formula over 100 lengths")
