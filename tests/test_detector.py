import hashlib
import math

import numpy as np
import pytest

from conftest import pin_cases, traced_peak
from fdcheck import assert_gradients_match, batch_loss, random_utterance
from oracles import (
    ForwardTrace,
    attention_weights,
    forward,
    frame_loss,
    frame_posteriors,
    total_loss,
    utterance_head,
    utterance_loss,
    utterance_posterior,
)
import raresed.detector as detector_module
from raresed.data import Utterance
from raresed.detector import (
    INFER_BYTES,
    Detection,
    EventModel,
    batch_loss_and_gradients,
    decide_detection,
    frame_window,
    _group_heads,
    _longest_true_run,
    infer,
)
from raresed.recurrent import (
    EncoderConfig,
    encode_bytes,
    encoder_backward,
    encoder_forward,
)
from raresed.train import save_model


def small_model(kind="unidirectional", layers=1, hidden=3, input_dim=4,
                seed=0, mr_bidir=False) -> EventModel:
    cfg = EncoderConfig(kind=kind, layers=layers, hidden=hidden,
                        input_dim=input_dim, multires_bidirectional=mr_bidir)
    return EventModel.initialize(cfg, seed=seed)


def stub_trace(hidden: np.ndarray, posteriors: np.ndarray) -> ForwardTrace:
    return ForwardTrace(hidden=hidden, frame_posteriors=posteriors)


class TestFramePosteriors:
    def test_zero_classifier_gives_half(self):
        model = small_model(seed=1)
        model.w[:] = 0.0
        p, _ = frame_posteriors(model, np.random.default_rng(0).standard_normal((4, 6)))
        assert np.array_equal(p, np.full(6, 0.5))

    def test_zero_encoder_gives_half(self):
        cfg = EncoderConfig(kind="unidirectional", layers=1, hidden=3, input_dim=4)
        model = EventModel(cfg, np.r_[np.zeros(cfg.param_count), 2.0, -1.0, 0.5])
        p, _ = frame_posteriors(model, np.ones((4, 5)))
        assert np.array_equal(p, np.full(5, 0.5))

    def test_log3_logit_gives_three_quarters(self):
        model = small_model(seed=2)
        X = np.random.default_rng(1).standard_normal((4, 3))
        _, trace = frame_posteriors(model, X)
        h1 = trace.hidden[0]
        model.w[:] = math.log(3.0) * h1 / (h1 @ h1)
        p, _ = frame_posteriors(model, X)
        assert p[0] == pytest.approx(0.75, abs=1e-12)

    def test_matches_sigmoid_of_logits(self):
        model = small_model(kind="bidirectional", seed=3)
        X = np.random.default_rng(2).standard_normal((4, 7))
        p, trace = frame_posteriors(model, X)
        expected = 1.0 / (1.0 + np.exp(-(trace.hidden @ model.w)))
        assert np.allclose(p, expected, atol=1e-15, rtol=0)
        assert trace.attention is None  # filled later by utterance_posterior

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            frame_posteriors(small_model(), np.ones((5, 3)))


class TestAttentionWeights:
    def test_uniform(self):
        a = attention_weights(np.full(5, 0.3))
        assert np.allclose(a, 0.2, atol=1e-11, rtol=0)

    def test_already_normalized_pair(self):
        a = attention_weights(np.array([0.9, 0.1]))
        assert np.allclose(a, [0.9, 0.1], atol=1e-11, rtol=0)

    def test_already_normalized_triple(self):
        a = attention_weights(np.array([0.5, 0.25, 0.25]))
        assert np.allclose(a, [0.5, 0.25, 0.25], atol=1e-11, rtol=0)

    def test_all_zero_guarded(self):
        a = attention_weights(np.zeros(4))
        assert np.array_equal(a, np.zeros(4))

    def test_sum_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = rng.uniform(0.0, 1.0, size=rng.integers(1, 40))
            a = attention_weights(p)
            assert np.all(a >= 0.0)
            if p.sum() > 1e-3:
                assert 1.0 - 1e-9 <= a.sum() <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            attention_weights(np.zeros(0))


class TestUtterancePosterior:
    def test_single_frame_matches_frame_posterior(self):
        model = small_model(seed=4)
        X = np.random.default_rng(4).standard_normal((4, 1))
        trace = forward(model, X)
        assert trace.utterance_posterior == pytest.approx(
            trace.frame_posteriors[0], abs=1e-11)

    def test_identical_frames_ignore_attention(self):
        model = small_model(seed=5)
        v = np.array([0.3, -0.2, 0.9])
        hidden = np.tile(v, (6, 1))
        posteriors = 1.0 / (1.0 + np.exp(-(hidden @ model.w)))
        trace = stub_trace(hidden, posteriors)
        p = utterance_posterior(model, trace)
        expected = 1.0 / (1.0 + math.exp(-float(model.w @ v)))
        assert p == pytest.approx(expected, abs=1e-11)

    def test_zero_classifier(self):
        model = small_model(seed=6)
        model.w[:] = 0.0
        trace = forward(model, np.random.default_rng(5).standard_normal((4, 5)))
        assert trace.utterance_posterior == 0.5


class TestLosses:
    def test_frame_loss_zero_for_negatives(self):
        utt = Utterance.negative("n", np.zeros((2, 3)))
        trace = stub_trace(np.zeros((3, 2)), np.array([0.9, 0.9, 0.9]))
        assert frame_loss(trace, utt, range(1, 3)) == 0.0

    def test_frame_loss_perfect_predictions(self):
        utt = Utterance.positive("p", np.zeros((2, 2)), onset=1, offset=1)
        trace = stub_trace(np.zeros((2, 2)),
                           np.array([1.0 - 1e-12, 1e-12]))
        assert frame_loss(trace, utt, range(1, 3)) <= 1e-11

    def test_frame_loss_coin_flip(self):
        utt = Utterance.positive("p", np.zeros((2, 1)), onset=1, offset=1)
        trace = stub_trace(np.zeros((1, 2)), np.array([0.5]))
        assert frame_loss(trace, utt, range(1, 2)) == pytest.approx(
            math.log(2.0), abs=1e-15)

    def test_frame_loss_window_bounds_checked(self):
        utt = Utterance.positive("p", np.zeros((2, 3)), onset=1, offset=2)
        trace = stub_trace(np.zeros((3, 2)), np.full(3, 0.5))
        with pytest.raises(ValueError):
            frame_loss(trace, utt, range(1, 5))
        with pytest.raises(ValueError):
            frame_loss(trace, utt, [0, 1])

    def test_utterance_loss_values(self):
        assert utterance_loss(1.0 - 1e-12, 1) <= 1e-11
        assert utterance_loss(0.5, 0) == pytest.approx(math.log(2.0), abs=1e-15)
        assert utterance_loss(1.0 / math.e, 1) == pytest.approx(1.0, abs=1e-12)

    def test_utterance_loss_clamps_saturation(self):
        assert np.isfinite(utterance_loss(0.0, 1))
        assert np.isfinite(utterance_loss(1.0, 0))


class TestFrameWindow:
    def test_interior(self):
        assert frame_window(100, 150, 50, 300) == range(50, 201)

    def test_left_clip(self):
        assert frame_window(10, 20, 50, 300) == range(1, 71)

    def test_zero_margin(self):
        assert frame_window(30, 40, 0, 100) == range(30, 41)

    def test_bad_boundaries(self):
        with pytest.raises(ValueError):
            frame_window(5, 3, 10, 100)
        with pytest.raises(ValueError):
            frame_window(1, 200, 10, 100)


class TestTotalLoss:
    def test_alpha_zero_is_utterance_loss(self):
        model = small_model(seed=7)
        utt = random_utterance(np.random.default_rng(6), 4, 9, positive=True)
        loss, trace = total_loss(model, utt, alpha=0.0)
        assert loss == utterance_loss(trace.utterance_posterior, 1)

    def test_negative_utterance_has_no_frame_term(self):
        model = small_model(seed=8)
        utt = random_utterance(np.random.default_rng(7), 4, 9, positive=False)
        loss, trace = total_loss(model, utt, alpha=5.0)
        assert loss == utterance_loss(trace.utterance_posterior, 0)

    def test_alpha_one_is_sum_of_components(self):
        model = small_model(seed=9)
        utt = random_utterance(np.random.default_rng(8), 4, 12, positive=True)
        loss, trace = total_loss(model, utt, alpha=1.0, margin=2)
        window = frame_window(utt.onset, utt.offset, 2, 12)
        expected = (utterance_loss(trace.utterance_posterior, 1)
                    + frame_loss(trace, utt, window))
        assert loss == pytest.approx(expected, abs=1e-15)

    def test_alpha_zero_ignores_frame_labels(self):
        model = small_model(seed=10)
        X = np.random.default_rng(9).standard_normal((4, 10))
        a = Utterance.positive("a", X, onset=2, offset=4)
        b = Utterance.positive("b", X, onset=7, offset=9)
        assert total_loss(model, a, 0.0)[0] == total_loss(model, b, 0.0)[0]

    def test_nonnegative(self):
        rng = np.random.default_rng(10)
        model = small_model(kind="multiresolution", layers=2, seed=11)
        for _ in range(25):
            utt = random_utterance(rng, 4, int(rng.integers(1, 20)),
                                   positive=bool(rng.integers(2)))
            loss, _ = total_loss(model, utt, alpha=float(rng.uniform(0, 3)))
            assert loss >= 0.0

    def test_negative_alpha_rejected(self):
        model = small_model(seed=12)
        utt = random_utterance(np.random.default_rng(11), 4, 5, positive=True)
        with pytest.raises(ValueError):
            total_loss(model, utt, alpha=-0.1)


BATCHED_KINDS = [("unidirectional", False), ("bidirectional", False),
                 ("multiresolution", False), ("multiresolution", True)]


class TestGradients:
    def test_perfect_fit_is_stationary(self):
        # Saturate the classifier so p_1 = 1.0 exactly in f64 with
        # y = y_1 = 1: every loss delta is exactly zero.
        cfg = EncoderConfig(kind="unidirectional", layers=1, hidden=1, input_dim=1)
        model = EventModel(cfg, np.zeros(cfg.param_count + 1))
        model.layers[0].fwd.W[2] = 1.0  # candidate row
        model.w[:] = 150.0
        utt = Utterance.positive("p", np.array([[1.0]]), onset=1, offset=1)
        grad = batch_loss_and_gradients(model, [utt], alpha=1.0)[1]
        assert np.linalg.norm(grad) <= 1e-8

    @pytest.mark.parametrize("kind,layers,mr_bidir", [
        ("unidirectional", 1, False),
        ("unidirectional", 2, False),
        ("bidirectional", 1, False),
        ("bidirectional", 2, False),
        ("multiresolution", 2, False),
        ("multiresolution", 2, True),
    ])
    def test_matches_finite_differences(self, kind, layers, mr_bidir):
        for seed in range(5):
            rng = np.random.default_rng(100 * layers + seed)
            model = small_model(kind=kind, layers=layers, hidden=3,
                                input_dim=4, seed=seed, mr_bidir=mr_bidir)
            batch = [random_utterance(rng, 4, int(rng.integers(2, 8)),
                                      positive=seed % 2 == 0)]
            assert_gradients_match(model, batch, alpha=1.0, margin=2)

    @pytest.mark.parametrize("kind,mr_bidir", BATCHED_KINDS)
    def test_mixed_length_batch_matches_single_calls(self, kind, mr_bidir):
        # Odd lengths give the multiresolution pooling a trailing frame;
        # the two T=7 utterances share one recurrence.
        rng = np.random.default_rng(21)
        model = small_model(kind=kind, layers=2, hidden=3, input_dim=4,
                            seed=22, mr_bidir=mr_bidir)
        batch = [random_utterance(rng, 4, t_len, positive=i != 2, id=f"u{i}")
                 for i, t_len in enumerate((7, 16, 7, 9))]
        loss, grad = batch_loss_and_gradients(model, batch, alpha=1.0, margin=2)
        singles = [batch_loss_and_gradients(model, [u], alpha=1.0, margin=2)
                   for u in batch]
        want_loss = np.mean([s_loss for s_loss, _ in singles])
        want_grad = np.mean([s_grad for _, s_grad in singles], axis=0)
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))
        assert batch_loss(model, batch, alpha=1.0, margin=2) == loss

    @pytest.mark.parametrize("kind,mr_bidir", BATCHED_KINDS)
    def test_mixed_length_batch_matches_finite_differences(self, kind, mr_bidir):
        rng = np.random.default_rng(23)
        model = small_model(kind=kind, layers=2, hidden=3, input_dim=4,
                            seed=24, mr_bidir=mr_bidir)
        batch = [random_utterance(rng, 4, t_len, positive=i != 1, id=f"u{i}")
                 for i, t_len in enumerate((7, 5, 7))]
        assert_gradients_match(model, batch, alpha=1.0, margin=2)

    def test_duplicated_utterance_matches_single(self):
        # Equal to rounding only: OpenBLAS runs the one-row products of a
        # batch of one as gemv, which rounds differently from gemm.
        model = small_model(seed=13)
        utt = random_utterance(np.random.default_rng(12), 4, 8, positive=True)
        single = batch_loss_and_gradients(model, [utt], alpha=1.0)[1]
        double = batch_loss_and_gradients(model, [utt, utt], alpha=1.0)[1]
        assert np.max(np.abs(single - double)) <= 1e-12 * np.max(np.abs(single))

    @pytest.mark.parametrize("kind,mr_bidir", BATCHED_KINDS)
    def test_sequence_share_is_the_same_in_every_batch_of_two_or_more(
            self, kind, mr_bidir):
        # No product mixes sequences, and each weight gradient stacks one
        # share per sequence before summing. So where BLAS rounds a row
        # of a gemm alike whatever the row count, as OpenBLAS does at
        # these shapes, a sequence's features and its share of the
        # encoder gradient are the same bits in every batch of two or
        # more. The other sequences get a zero output gradient, so the
        # gradient is that share.
        model = small_model(kind=kind, layers=2, mr_bidir=mr_bidir, seed=13)
        cfg = model.config
        rng = np.random.default_rng(12)
        x = rng.standard_normal((9, cfg.input_dim))
        d_h = rng.standard_normal((9, cfg.output_dim))
        want = None
        for batch in range(2, 12):
            at = int(rng.integers(batch))
            xs = rng.standard_normal((9, batch, cfg.input_dim))
            xs[:, at] = x
            d_hs = np.zeros((9, batch, cfg.output_dim))
            d_hs[:, at] = d_h
            hs, trace = encoder_forward(cfg, model.layers, xs)
            grad = encoder_backward(cfg, model.layers, trace, d_hs)
            got = (hs[:, at].tobytes(), grad.tobytes())
            want = want or got
            assert got == want, batch

    def test_batch_permutation_invariance(self):
        rng = np.random.default_rng(13)
        model = small_model(kind="multiresolution", layers=2, seed=14)
        batch = [random_utterance(rng, 4, 9, positive=i % 2 == 0, id=f"u{i}")
                 for i in range(4)]
        g1 = batch_loss_and_gradients(model, batch, alpha=1.0)[1]
        g2 = batch_loss_and_gradients(
            model, [batch[2], batch[0], batch[3], batch[1]], alpha=1.0)[1]
        assert np.max(np.abs(g1 - g2)) <= 1e-12

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            batch_loss_and_gradients(small_model(), [], alpha=1.0)

    def test_loss_and_grad_agree_with_total_loss(self):
        model = small_model(seed=15)
        rng = np.random.default_rng(14)
        batch = [random_utterance(rng, 4, 6, positive=True, id="a"),
                 random_utterance(rng, 4, 6, positive=False, id="b")]
        loss, _ = batch_loss_and_gradients(model, batch, alpha=1.0)
        expected = np.mean([total_loss(model, u, 1.0)[0] for u in batch])
        assert loss == pytest.approx(expected, abs=1e-15)


# Groups of equal-length utterances as (frames, positive) per utterance,
# each scored with (alpha, margin). A margin of 50 clips every window at
# both ends of its 9-frame clip.
HEAD_CASES = {
    "mixed lengths": ([[(7, True), (7, False), (7, True)], [(16, True), (16, True)],
                       [(9, False), (9, True), (9, True), (9, False)]], 1.0, 2),
    "alpha 0": ([[(7, True), (7, False), (7, True)], [(12, True)]], 0.0, 2),
    "window clipped at both ends": ([[(9, True), (9, True), (9, False)]], 2.5, 50),
    "all negative": ([[(8, False)] * 4], 1.0, 2),
    "batch of one": ([[(11, True)]], 1.0, 3),
}


class TestBatchedHead:
    @pytest.mark.parametrize("case", list(HEAD_CASES))
    @pytest.mark.parametrize("kind,mr_bidir", BATCHED_KINDS)
    def test_matches_per_utterance_oracle(self, kind, mr_bidir, case):
        groups, alpha, margin = HEAD_CASES[case]
        model = small_model(kind=kind, layers=2, hidden=5, mr_bidir=mr_bidir, seed=31)
        rng = np.random.default_rng(31)
        for shape in groups:
            group = [random_utterance(rng, 4, t, positive=pos, id=str(i))
                     for i, (t, pos) in enumerate(shape)]
            loss, _, d_hs, grad_w = _group_heads(model, group, alpha, margin)
            hs = encoder_forward(model.config, model.layers,
                                 detector_module._stack(group))[0]
            want_w = np.zeros_like(model.w)
            for b, utt in enumerate(group):
                want_loss, want_d_hs, d_w = utterance_head(model, hs[:, b], utt,
                                                           alpha, margin)
                want_w += d_w
                assert abs(loss[b] - want_loss) <= 1e-12 * want_loss
                assert np.max(np.abs(d_hs[:, b] - want_d_hs)) <= \
                    1e-12 * np.max(np.abs(want_d_hs))
            assert np.max(np.abs(grad_w - want_w)) <= 1e-12 * np.max(np.abs(want_w))

    @pytest.mark.parametrize("kind,hidden", [("unidirectional", 3),
                                             ("bidirectional", 3),
                                             ("multiresolution", 32)])
    def test_sequence_terms_are_the_same_in_every_batch(self, monkeypatch, kind,
                                                        hidden):
        # The head sums over T within each sequence, so one sequence's loss
        # term and d_hs column do not depend on its batch or its slot.
        model = small_model(kind=kind, layers=2, hidden=hidden, seed=32)
        width = model.config.output_dim
        rng = np.random.default_rng(32)
        h = rng.standard_normal((9, width))
        utt = random_utterance(rng, 4, 9, positive=True)
        want = None
        for batch in range(1, 12):
            at = int(rng.integers(batch))
            hs = rng.standard_normal((9, batch, width))
            hs[:, at] = h
            group = [random_utterance(rng, 4, 9, positive=bool(rng.integers(2)))
                     for _ in range(batch)]
            group[at] = utt
            monkeypatch.setattr(detector_module, "encoder_forward",
                                lambda *args: (hs, None))
            loss, _, d_hs, _ = _group_heads(model, group, 1.0, 2)
            got = (loss[at].tobytes(), d_hs[:, at].tobytes())
            want = want or got
            assert got == want, batch


# (hidden, input_dim, batch as (frames, positive) per utterance) of each
# pin: "small" is a mixed-length batch, "desk" a minibatch of the desk
# preset's size at its hidden width, H = 32.
PIN_SHAPES = {"small": (3, 4, [(7, True), (9, False), (7, True)]),
              "desk": (32, 40, [(150, i % 2 == 0) for i in range(10)])}
# sha256 pins: the .sem bytes of EventModel.initialize(cfg, seed=11), and
# the loss and gradient bytes of one batch. The small .sem pins were
# recorded before the nine per-gate arrays of each cell were stacked into
# W, U and b, the desk ones while each direction ran its own time loop.
# The loss and gradient pins were recorded when one batched head over the
# frame logits replaced the per-utterance head, which forms
# p_utt = sigmoid(sum_t a_t s_t) and d_hs = g w with other roundings than
# sigmoid(w . sum_t a_t h_t) and the embedding's chain rule: against the
# old head, the loss moved by at most 2.2e-16 relative (6 of 8 unchanged)
# and the gradient by at most 5.5e-16 of its largest entry, in 64-81% of
# its values. They are the same at one and at two BLAS threads.
PINS = {
    ("unidirectional", False, "small"): (
        "48e6a924ffd724e636da9f97d92e9208f1522b9ff2f15bc61a60a12c10d4e128",
        "4cade838398c190d9e3164a628f6582eaeb88ea1c7234944fd999a6f0287193d"),
    ("bidirectional", False, "small"): (
        "f8ad84518172a75e515dfad176b22a9fc08d56bef065b78f2a9387876f8e5502",
        "52b7ad4ca8d5b63bbb203707d9cb4be493009051dee6fe269d087dc7ccda23ff"),
    ("multiresolution", False, "small"): (
        "00de2e4452ec29a1f1ccf447a133e5d4b5f029061298588a32de08858507a6fa",
        "27d418f3e643adbf809a9483427180141233065b9259c432e880b6f62c099ccb"),
    ("multiresolution", True, "small"): (
        "8c4782cec8157b4f2d641383d5bc249ca8f4e0d4ef72f3259b6d34104ad78d9e",
        "1e4743c70460628498a975f0c5a59a61311389a6768e6f9b07c8f0963e99fad4"),
    ("unidirectional", False, "desk"): (
        "6a9e51ac936a9193526676a2bad805bdfaec7dce57a6ac89540d475602f20385",
        "35dbbffa6a78b3eaaea38b5361d90bc457fbedb5d9ef9d7172226aeb05595c71"),
    ("bidirectional", False, "desk"): (
        "2f316ba7e6fa2c0e7dc275867f7b6d033147ed31c688d7cde37206c5a93a9608",
        "cf96ee3ab61012dea13527b338dcef0c94c1dca15c57d1b95c8709bc90a95a93"),
    ("multiresolution", False, "desk"): (
        "bad9d42a9064097aaf252458d3e5fb6d3771bf62a495b23a2b0d68ecf94f16dc",
        "2a6876dda736d3ed8d6a06a7c4782e71e91019748d9947fe0ecafcfa6bd4223a"),
    ("multiresolution", True, "desk"): (
        "ad2d5d6bc84ca15be2117f23701ac126ed09d12a4c800fa79ea5adada02c7b02",
        "037f1f2635db966fff547cc64d0293aeadd623b1fbc1018c3a2d1ea9453c03eb"),
}


def param_arrays(model: EventModel) -> list[np.ndarray]:
    return [a for layer in model.layers for cell in (layer.fwd, layer.bwd)
            if cell is not None for a in (cell.W, cell.U, cell.b)] + [model.w]


class TestFlatParameters:
    @pytest.mark.parametrize("kind,mr_bidir", BATCHED_KINDS)
    def test_round_trip_is_lossless(self, kind, mr_bidir):
        model = small_model(kind=kind, layers=2, mr_bidir=mr_bidir, seed=6)
        v = np.random.default_rng(6).standard_normal(model.param_count)
        assert model.with_flat(v).flatten().tobytes() == v.tobytes()
        again = model.with_flat(model.flatten())
        for a, b in zip(param_arrays(again), param_arrays(model), strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_size_mismatch(self):
        model = small_model()
        with pytest.raises(ValueError):
            model.with_flat(np.zeros(model.param_count - 1))
        with pytest.raises(ValueError):
            model.with_flat(np.zeros((1, model.param_count)))

    def test_later_changes_to_the_vector_do_not_reach_the_model(self):
        model = small_model(kind="bidirectional", layers=2, seed=7)
        v = np.random.default_rng(7).standard_normal(model.param_count)
        copy = model.with_flat(v)
        v[:] = 0.0
        assert not np.any(copy.flatten() == 0.0)
        # Every array is a view of the one copy the model owns.
        owner = copy.params
        assert not np.shares_memory(owner, v)
        assert all(a.base is owner for a in param_arrays(copy))

    def test_parameters_cannot_be_reassigned(self):
        model = small_model(seed=8)
        for name in ("params", "layers", "w"):
            with pytest.raises(AttributeError):
                setattr(model, name, getattr(model, name))

    def test_in_place_update_reaches_every_view(self):
        model = small_model(kind="bidirectional", layers=2, seed=9)
        model.params[:] = np.arange(model.param_count, dtype=np.float64)
        got = np.concatenate([a.ravel() for a in param_arrays(model)])
        assert np.array_equal(got, model.params)
        assert not np.shares_memory(model.flatten(), model.params)

    def test_constructor_checks_vector(self):
        cfg = EncoderConfig(kind="unidirectional", layers=1, hidden=2, input_dim=3)
        n = cfg.param_count + cfg.output_dim
        for bad in (np.zeros(n - 1), np.zeros(n + 1), np.zeros(n, dtype=np.float32)):
            with pytest.raises(ValueError):
                EventModel(cfg, bad)

    @pytest.mark.parametrize("kind,mr_bidir,shape", pin_cases(PINS))
    def test_sem_bytes_of_initialized_model_pinned(self, kind, mr_bidir, shape,
                                                   tmp_path):
        hidden, input_dim, _ = PIN_SHAPES[shape]
        model = small_model(kind=kind, layers=2, hidden=hidden,
                            input_dim=input_dim, mr_bidir=mr_bidir, seed=11)
        save_model(tmp_path / "m.sem", model)
        digest = hashlib.sha256((tmp_path / "m.sem").read_bytes()).hexdigest()
        assert digest == PINS[kind, mr_bidir, shape][0]

    @pytest.mark.parametrize("kind,mr_bidir,shape", pin_cases(PINS))
    def test_loss_and_gradient_bytes_pinned(self, kind, mr_bidir, shape):
        hidden, input_dim, clips = PIN_SHAPES[shape]
        model = small_model(kind=kind, layers=2, hidden=hidden,
                            input_dim=input_dim, mr_bidir=mr_bidir, seed=11)
        rng = np.random.default_rng(23)
        batch = [random_utterance(rng, input_dim, t, positive=pos, id=str(i))
                 for i, (t, pos) in enumerate(clips)]
        loss, grad = batch_loss_and_gradients(model, batch, 1.0, 2)
        digest = hashlib.sha256(np.float64(loss).tobytes() + grad.tobytes())
        assert digest.hexdigest() == PINS[kind, mr_bidir, shape][1]


class TestDecision:
    def test_below_utterance_threshold(self):
        det = decide_detection(0.4, np.array([0.9, 0.9]))
        assert det == Detection(present=False)

    def test_longest_run_wins(self):
        det = decide_detection(0.9, np.array([0.9, 0.9, 0.2, 0.9]))
        assert (det.onset, det.offset) == (1, 2)

    def test_earliest_tie_break(self):
        det = decide_detection(0.9, np.array([0.6, 0.2, 0.7]))
        assert (det.onset, det.offset) == (1, 1)

    def test_earliest_among_longer_ties(self):
        p = np.array([0.9, 0.2, 0.9, 0.9, 0.2, 0.9, 0.9])
        det = decide_detection(0.9, p)
        assert (det.onset, det.offset) == (3, 4)

    def test_argmax_fallback(self):
        det = decide_detection(0.9, np.array([0.3, 0.45, 0.2]))
        assert (det.onset, det.offset) == (2, 2)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            decide_detection(0.9, np.array([0.5]), thres0=0.0)
        with pytest.raises(ValueError):
            decide_detection(0.9, np.array([0.5]), thres1=1.0)

    def test_detection_invariants(self):
        with pytest.raises(ValueError):
            Detection(present=True)
        with pytest.raises(ValueError):
            Detection(present=True, onset=5, offset=3)

    def test_infer_monotone_in_thres0(self):
        rng = np.random.default_rng(15)
        for seed in range(30):
            model = small_model(seed=seed + 200)
            X = rng.standard_normal((4, int(rng.integers(1, 15))))
            low = infer(model, [X], thres0=0.2)[0]
            high = infer(model, [X], thres0=0.8)[0]
            if high.present:
                assert low.present

    def test_infer_at_half_with_zero_classifier(self):
        model = small_model(seed=16)
        model.w[:] = 0.0
        det = infer(model, [np.ones((4, 6))])[0]  # p = 0.5 <= thres0
        assert not det.present


def longest_true_run_loop(mask):
    """Reference scan for _longest_true_run: (start, end) 0-based
    inclusive of the longest run of True; earliest wins ties."""
    best = None
    best_len = 0
    start = None
    for i, flag in enumerate(mask):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            if i - start > best_len:
                best, best_len = (start, i - 1), i - start
            start = None
    if start is not None and mask.shape[0] - start > best_len:
        best = (start, mask.shape[0] - 1)
    return best


class TestLongestTrueRun:
    def test_matches_loop_on_random_masks(self):
        rng = np.random.default_rng(40)
        for _ in range(500):
            n = int(rng.integers(1, 60))
            mask = rng.random(n) < rng.random()
            assert _longest_true_run(mask) == longest_true_run_loop(mask)

    @pytest.mark.parametrize("mask,want", [
        ([False] * 5, None),
        ([True] * 5, (0, 4)),
        ([True], (0, 0)),
        ([True, True, False, True, True], (0, 1)),       # tie: earliest
        ([False, True, False, True, True], (3, 4)),      # touches last frame
        ([True, False, False, True, True, True], (3, 5)),
    ])
    def test_edge_cases(self, mask, want):
        mask = np.array(mask)
        assert longest_true_run_loop(mask) == want
        assert _longest_true_run(mask) == want


# (hidden, input_dim, frames per clip) of each detection pin: "small" is a
# mixed-length list, "desk" ten desk-length clips at H = 32.
INFER_SHAPES = {"small": (3, 4, (11, 70, 11, 33, 70, 11, 5, 33)),
                "desk": (32, 40, (150,) * 10)}
INFER_PINS = {
    ("unidirectional", False, "small"):
        [(3, 6), (1, 15), (5, 11), (21, 33), None, (1, 9), (1, 5), None],
    ("bidirectional", False, "small"):
        [None, None, None, (5, 14), (27, 44), None, None, (23, 28)],
    ("multiresolution", False, "small"):
        [None, None, None, (5, 14), (3, 6), None, (5, 5), None],
    ("multiresolution", True, "small"):
        [None, (3, 16), (3, 8), None, (31, 40), None, (1, 2), (15, 24)],
    ("unidirectional", False, "desk"):
        [(76, 92), (75, 87), (117, 131), None, None, None, None, None,
         (16, 28), (33, 45)],
    ("bidirectional", False, "desk"):
        [(47, 67), (36, 66), (70, 87), (3, 23), (118, 130), (65, 88),
         (110, 141), (95, 108), (130, 148), (48, 65)],
    ("multiresolution", False, "desk"):
        [(91, 102), (1, 16), (135, 148), (3, 16), (23, 46), (75, 88),
         (123, 136), (41, 54), (45, 66), (55, 64)],
    ("multiresolution", True, "desk"):
        [(55, 68), (101, 120), (67, 84), (67, 76), (37, 52), (1, 12),
         (129, 150), (85, 102), (1, 14), (57, 70)],
}


@pytest.fixture
def encode_slices(monkeypatch):
    """(T, B) of every batch infer hands to the encoder."""
    slices = []
    encode = detector_module.encode

    def spy(config, layers, xs, w):
        slices.append(xs.shape[:2])
        return encode(config, layers, xs, w)

    monkeypatch.setattr(detector_module, "encode", spy)
    return slices


class TestBatchedInfer:
    @staticmethod
    def traced(model, x):
        trace = forward(model, x)
        return decide_detection(trace.utterance_posterior,
                                trace.frame_posteriors)

    def test_mixed_lengths_in_input_order(self, monkeypatch, encode_slices):
        model = small_model(kind="bidirectional", layers=2, seed=41)
        rng = np.random.default_rng(41)
        # Twelve 11-frame clips, at most five to a slice, interleaved with
        # three 70-frame clips, at most two to a slice: each group is cut
        # into the fewest slices, whose sizes differ by at most one.
        budget = 5 * encode_bytes(model.config, 11)
        assert 2 * encode_bytes(model.config, 70) <= budget < 3 * encode_bytes(model.config, 70)
        lengths = [11, 70, 11, 11, 11, 11, 70, 11, 11, 11, 11, 11, 11, 11, 70]
        clips = [3.0 * rng.standard_normal((4, t)) for t in lengths]
        monkeypatch.setattr(detector_module, "INFER_BYTES", budget)
        got = infer(model, clips)
        assert encode_slices == [(11, 4), (11, 4), (11, 4), (70, 1), (70, 2)]
        single = [infer(model, [x])[0] for x in clips]
        assert got == single
        assert got == [self.traced(model, x) for x in clips]
        assert any(d.present for d in got) and not all(d.present for d in got)

    def test_clip_longer_than_budget_runs_alone(self, monkeypatch, encode_slices):
        model = small_model(seed=42)
        rng = np.random.default_rng(42)
        clips = [rng.standard_normal((4, 300)) for _ in range(2)]
        monkeypatch.setattr(detector_module, "INFER_BYTES",
                            encode_bytes(model.config, 300) - 1)
        assert infer(model, clips) == [self.traced(model, x) for x in clips]
        assert encode_slices == [(300, 1), (300, 1)]

    @pytest.mark.parametrize("kind,mr_bidir,shape", pin_cases(INFER_PINS))
    def test_mixed_length_detections_pinned(self, kind, mr_bidir, shape):
        # (onset, offset) per clip, None for no event; the small pins were
        # recorded while encode had a layer loop of its own, the desk pins
        # while each direction ran its own time loop.
        hidden, input_dim, lengths = INFER_SHAPES[shape]
        model = small_model(kind=kind, layers=2, hidden=hidden,
                            input_dim=input_dim, seed=44, mr_bidir=mr_bidir)
        rng = np.random.default_rng(44)
        clips = [3.0 * rng.standard_normal((input_dim, t)) for t in lengths]
        got = [(d.onset, d.offset) if d.present else None
               for d in infer(model, clips)]
        assert got == INFER_PINS[kind, mr_bidir, shape]

    def test_empty_and_bad_shapes(self):
        model = small_model(seed=43)
        assert infer(model, []) == []
        with pytest.raises(ValueError):
            infer(model, [np.ones((5, 3))])
        with pytest.raises(ValueError):
            infer(model, [np.ones((4, 0))])


# An infer call's arrays that do not grow with its slices, over the
# INFER_BYTES a slice may hold: the stacked recurrent maps, the initial
# states, the detections and one clip's head.
INFER_SLACK = 2**18
# tracemalloc peaks in bytes of infer with a depth-2, H 32 model on
# d = 16 clips, recorded while infer encoded INFER_FRAMES = 8192 frames
# at a time into features, with the slices INFER_BYTES cuts: the desk dev
# set (100 clips of 150 frames) and the long-infer clips (40 of 1304
# frames). A peak may not rise above its pin.
INFER_MEMORY_PINS = {
    ("multiresolution", 100, 150): (6_639_712, [(150, 50)] * 2),
    ("bidirectional", 100, 150): (12_290_664, [(150, 50)] * 2),
    ("bidirectional", 40, 1304): (9_421_656, [(1304, 10)] * 4),
}


def infer_peak(model, clips) -> int:
    infer(model, clips[:1])  # first calls may allocate once-only state
    return traced_peak(lambda: infer(model, clips))


class TestInferMemory:
    @pytest.mark.parametrize("frames", [150, 1304])
    @pytest.mark.parametrize("kind,mr_bidir", [("unidirectional", False),
                                               ("bidirectional", False),
                                               ("multiresolution", False),
                                               ("multiresolution", True)])
    def test_full_slice_stays_in_budget(self, kind, mr_bidir, frames):
        model = small_model(kind=kind, layers=2, hidden=32, input_dim=16,
                            mr_bidir=mr_bidir)
        count = INFER_BYTES // encode_bytes(model.config, frames)
        rng = np.random.default_rng(45)
        clips = [rng.standard_normal((16, frames)) for _ in range(count)]
        assert infer_peak(model, clips) <= INFER_BYTES + INFER_SLACK

    @pytest.mark.parametrize("kind,count,frames", list(INFER_MEMORY_PINS))
    def test_peak_at_most_its_pin(self, kind, count, frames, encode_slices):
        model = small_model(kind=kind, layers=2, hidden=32, input_dim=16)
        rng = np.random.default_rng(46)
        clips = [rng.standard_normal((16, frames)) for _ in range(count)]
        peak = infer_peak(model, clips)
        pin, slices = INFER_MEMORY_PINS[kind, count, frames]
        assert peak <= pin, peak
        assert encode_slices[1:] == slices
