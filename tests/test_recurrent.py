import hashlib
import math

import numpy as np
import pytest

from conftest import pin_cases, traced_peak
from oracles import (
    gru_cell_step,
    run_bidirectional,
    run_unidirectional,
    upsample_replicate,
)
from raresed.recurrent import (
    EncoderConfig,
    EncoderLayer,
    GruLayerParams,
    _upsample_k_backward,
    draw_encoder,
    encode,
    encoder_backward,
    encoder_forward,
    layer_views,
    subsample2,
)

GATES = "zrh"  # row blocks of W, U and b: update, reset, candidate


def gate(p: GruLayerParams, name: str) -> np.ndarray:
    """One gate's block of a stacked map, by name: "w_z" is W's update rows."""
    stacked = {"w": p.W, "u": p.U, "b": p.b}[name[0]]
    i, h = GATES.index(name[2]), p.hidden
    return stacked[i * h:(i + 1) * h]


def zero_layers(cfg: EncoderConfig) -> list[EncoderLayer]:
    return layer_views(cfg, np.zeros(cfg.param_count))


def random_layers(cfg: EncoderConfig, rng) -> list[EncoderLayer]:
    layers = layer_views(cfg, np.empty(cfg.param_count))
    draw_encoder(layers, rng)
    return layers


def one_cell_config(hidden, input_dim) -> EncoderConfig:
    return EncoderConfig(kind="unidirectional", layers=1, hidden=hidden,
                         input_dim=input_dim)


def zero_cell(hidden, input_dim) -> GruLayerParams:
    return zero_layers(one_cell_config(hidden, input_dim))[0].fwd


def random_cell(rng, hidden, input_dim) -> GruLayerParams:
    return random_layers(one_cell_config(hidden, input_dim), rng)[0].fwd


def scalar_cell(hidden=1, **values) -> GruLayerParams:
    p = zero_cell(hidden, 1)
    for name, v in values.items():
        gate(p, name)[:] = v
    return p


# Plain-Python oracle for the scalar cell; the production values below
# were computed with it and frozen.
def oracle_cell(wz, uz, bz, wr, ur, br, wh, uh, bh, x, h):
    z = 1.0 / (1.0 + math.exp(-(wz * x + uz * h + bz)))
    r = 1.0 / (1.0 + math.exp(-(wr * x + ur * h + br)))
    c = math.tanh(wh * x + uh * (r * h) + bh)
    return (1.0 - z) * h + z * c


class TestGruCellStep:
    def test_all_zero(self):
        p = zero_cell(3, 2)
        out = gru_cell_step(p, np.array([5.0, -1.0]), np.zeros(3))
        assert np.array_equal(out, np.zeros(3))

    def test_zero_candidate_path(self):
        rng = np.random.default_rng(2)
        p = random_cell(rng, 4, 3)
        gate(p, "w_h")[:] = 0.0
        gate(p, "b_h")[:] = 0.0
        out = gru_cell_step(p, rng.standard_normal(3), np.zeros(4))
        # h_prev = 0 and candidate = tanh(0) = 0, so the blend vanishes.
        assert np.array_equal(out, np.zeros(4))

    def test_scalar_hand_value(self):
        p = scalar_cell(w_h=1.0)
        out = gru_cell_step(p, np.array([1.0]), np.array([0.0]))
        # 0.5 * tanh(1), frozen from the plain-Python oracle.
        assert out[0] == pytest.approx(0.3807970779778824, abs=1e-15)

    def test_dimension_mismatch(self):
        p = zero_cell(3, 2)
        with pytest.raises(ValueError):
            gru_cell_step(p, np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            gru_cell_step(p, np.zeros(2), np.zeros(2))

    def test_bounded_output(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = random_cell(rng, 5, 4)
            h_prev = rng.uniform(-1.0, 1.0, size=5)
            out = gru_cell_step(p, rng.standard_normal(4) * 3.0, h_prev)
            assert np.all(np.abs(out) < 1.0)


class TestRunUnidirectional:
    def test_single_frame_equals_cell(self):
        rng = np.random.default_rng(4)
        p = random_cell(rng, 4, 3)
        x = rng.standard_normal((1, 3))
        out = run_unidirectional(p, x)
        assert np.allclose(out[0], gru_cell_step(p, x[0], np.zeros(4)),
                           atol=1e-14, rtol=0)

    def test_zero_params_zero_output(self):
        p = zero_cell(3, 2)
        out = run_unidirectional(p, np.random.default_rng(0).standard_normal((6, 2)))
        assert np.array_equal(out, np.zeros((6, 3)))

    def test_three_step_hand_sequence(self):
        p = scalar_cell(w_h=1.0)
        out = run_unidirectional(p, np.ones((3, 1)))
        # Frozen from iterating the oracle over x = (1, 1, 1).
        expected = [0.3807970779778824, 0.5711956169668236, 0.6663948864612943]
        assert np.allclose(out[:, 0], expected, atol=1e-14, rtol=0)

    def test_matches_cell_iteration(self):
        rng = np.random.default_rng(5)
        p = random_cell(rng, 4, 3)
        xs = rng.standard_normal((9, 3))
        out = run_unidirectional(p, xs)
        h = np.zeros(4)
        for t in range(9):
            h = gru_cell_step(p, xs[t], h)
            assert np.allclose(out[t], h, atol=1e-12, rtol=0)
            h = out[t]  # stay on the batched path's trajectory


class TestRunBidirectional:
    def test_palindrome_symmetry(self):
        rng = np.random.default_rng(6)
        p = random_cell(rng, 4, 2)
        half = rng.standard_normal((3, 2))
        xs = np.vstack([half, half[::-1]])  # palindromic in time
        out = run_bidirectional(p, p, xs)
        t_len = xs.shape[0]
        for t in range(t_len):
            assert np.allclose(out[t, :4], out[t_len - 1 - t, 4:], atol=1e-12,
                               rtol=0)

    def test_single_frame(self):
        rng = np.random.default_rng(7)
        f, b = random_cell(rng, 3, 2), random_cell(rng, 3, 2)
        x = rng.standard_normal((1, 2))
        out = run_bidirectional(f, b, x)
        assert np.allclose(out[0, :3], gru_cell_step(f, x[0], np.zeros(3)),
                           atol=1e-14, rtol=0)
        assert np.allclose(out[0, 3:], gru_cell_step(b, x[0], np.zeros(3)),
                           atol=1e-14, rtol=0)

    def test_zero_params(self):
        f = zero_cell(3, 2)
        out = run_bidirectional(f, zero_cell(3, 2),
                                np.ones((4, 2)))
        assert out.shape == (4, 6)
        assert np.array_equal(out, np.zeros((4, 6)))

    def test_zero_backward_is_padded_unidirectional(self):
        rng = np.random.default_rng(8)
        f = random_cell(rng, 4, 3)
        xs = rng.standard_normal((7, 3))
        out = run_bidirectional(f, zero_cell(4, 3), xs)
        assert np.array_equal(out[:, :4], run_unidirectional(f, xs))
        assert np.array_equal(out[:, 4:], np.zeros((7, 4)))


class TestSubsample:
    def test_pairwise_mean(self):
        assert np.array_equal(subsample2(np.array([[1.0], [3.0]])), [[2.0]])

    def test_constant_sequence(self):
        seq = np.full((8, 3), 2.5)
        out = subsample2(seq)
        assert out.shape == (4, 3)
        assert np.array_equal(out, np.full((4, 3), 2.5))

    def test_odd_tail_passes_through(self):
        out = subsample2(np.array([[1.0], [3.0], [5.0]]))
        assert np.array_equal(out, [[2.0], [5.0]])

    def test_even_mean_preserved(self):
        rng = np.random.default_rng(9)
        for t_len in (2, 4, 10, 64):
            seq = rng.standard_normal((t_len, 5))
            assert abs(subsample2(seq).mean() - seq.mean()) < 1e-12


class TestUpsample:
    def test_single_frame_replicated(self):
        out = upsample_replicate(np.array([[5.0]]), 4)
        assert np.array_equal(out, [[5.0]] * 4)

    def test_identity(self):
        seq = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(upsample_replicate(seq, 3), seq)

    def test_partial_last_span(self):
        out = upsample_replicate(np.array([[1.0], [2.0]]), 3)
        assert np.array_equal(out, [[1.0], [1.0], [2.0]])

    def test_target_too_small(self):
        with pytest.raises(ValueError):
            upsample_replicate(np.zeros((4, 1)), 3)

    def test_constant_round_trip(self):
        seq = np.full((11, 2), -1.25)
        assert np.array_equal(upsample_replicate(subsample2(seq), 11), seq)


class TestUpsampleBackward:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8])
    def test_same_bits_as_reduceat(self, k):
        # Spans of 2, 4 and 8 frames add one term after another; 16 and 32
        # take numpy's eight partial sums and 256 its halving. Magnitudes
        # spread over 1e-17..1e17 and signed zeros make any other order
        # of additions show.
        rng = np.random.default_rng(40 + k)
        span = 2 ** k
        for t_len in sorted(set(range(1, 41)) | {2 * span - 1, 2 * span, 3 * span - 1}):
            d_out = rng.standard_normal((t_len, 2, 3)) * 10.0 ** rng.integers(-17, 18, (t_len, 2, 3))
            d_out[rng.random(d_out.shape) < 0.1] = -0.0
            source_t = -(-t_len // span)
            want = np.add.reduceat(d_out, np.arange(source_t) * span, axis=0)
            got = _upsample_k_backward(d_out, source_t, k)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (span, t_len)


def multires_config(layers, hidden, input_dim, bidir=False):
    return EncoderConfig(kind="multiresolution", layers=layers, hidden=hidden,
                         input_dim=input_dim, multires_bidirectional=bidir)


class TestMultiresForward:
    def test_single_layer_degenerate(self):
        rng = np.random.default_rng(10)
        cfg = multires_config(1, 4, 3)
        layers = random_layers(cfg, rng)
        xs = rng.standard_normal((6, 3))
        out, _ = encoder_forward(cfg, layers, xs[:, None, :])
        direct = upsample_replicate(subsample2(run_unidirectional(layers[0].fwd, xs)), 6)
        assert np.array_equal(out[:, 0], direct)

    def test_zero_params(self):
        cfg = multires_config(3, 4, 2)
        out, _ = encoder_forward(cfg, zero_layers(cfg), np.ones((5, 1, 2)))
        assert np.array_equal(out, np.zeros((5, 1, 4)))

    def test_two_layer_scalar_hand_value(self):
        cfg = multires_config(2, 1, 1)
        l1 = scalar_cell(w_z=0.3, u_z=-0.2, b_z=0.1, w_h=1.0, u_h=0.5)
        l2 = scalar_cell(w_r=0.2, u_z=0.1, w_h=0.8, u_h=-0.3, b_h=0.1)
        xs = np.array([[0.5], [-0.5], [1.0], [-1.0]])
        out, _ = encoder_forward(cfg, [EncoderLayer(fwd=l1), EncoderLayer(fwd=l2)],
                                 xs[:, None, :])
        # Frozen from composing the cell/subsample/upsample oracles.
        expected = [0.22593802257581586, 0.22593802257581586,
                    0.3109909397435989, 0.3109909397435989]
        assert np.allclose(out[:, 0, 0], expected, atol=1e-14, rtol=0)

    def test_oracle_composition_random(self):
        # The stack must equal the explicit run/pool/replicate pipeline.
        rng = np.random.default_rng(11)
        cfg = multires_config(3, 4, 2)
        layers = random_layers(cfg, rng)
        xs = rng.standard_normal((13, 2))
        out, _ = encoder_forward(cfg, layers, xs[:, None, :])
        out = out[:, 0]
        total = np.zeros((13, 4))
        seq = xs
        for depth, layer in enumerate(layers):
            sub = subsample2(run_unidirectional(layer.fwd, seq))
            total += upsample_replicate(sub, 13)
            seq = sub
        assert np.allclose(out, total, atol=1e-13, rtol=0)


class TestEncoderShapes:
    @pytest.mark.parametrize("kind", ["unidirectional", "bidirectional",
                                      "multiresolution"])
    def test_output_length_matches_input(self, kind):
        rng = np.random.default_rng(12)
        cfg = EncoderConfig(kind=kind, layers=2, hidden=3, input_dim=2)
        layers = random_layers(cfg, rng)
        for t_len in (1, 2, 3, 5, 8, 13, 33, 64):
            out, _ = encoder_forward(cfg, layers, rng.standard_normal((t_len, 3, 2)))
            assert out.shape == (t_len, 3, cfg.output_dim)

    def test_bidirectional_multires_option(self):
        rng = np.random.default_rng(13)
        cfg = multires_config(2, 3, 2, bidir=True)
        layers = random_layers(cfg, rng)
        out, _ = encoder_forward(cfg, layers, rng.standard_normal((9, 2, 2)))
        assert out.shape == (9, 2, 6)

    def test_layer_count_checked(self):
        cfg = EncoderConfig(kind="unidirectional", layers=2, hidden=3, input_dim=2)
        with pytest.raises(ValueError):
            encoder_forward(cfg, zero_layers(cfg)[:1], np.ones((3, 1, 2)))

    def test_input_dim_checked(self):
        cfg = EncoderConfig(kind="unidirectional", layers=1, hidden=3, input_dim=2)
        with pytest.raises(ValueError):
            encoder_forward(cfg, zero_layers(cfg), np.ones((3, 1, 4)))


# (hidden, input_dim, frames, batch) of each encode pin: "small" spans
# nine projection blocks, "desk" is a desk-size batch at the desk preset's
# hidden width and "long" one inference slice of 1304-frame clips at the
# desk preset's input width (see detector.INFER_BYTES).
ENCODE_SHAPES = {"small": (4, 3, 131, 3), "desk": (32, 40, 150, 10),
                 "long": (32, 16, 1304, 10)}
ENCODE_PINS = {
    ("unidirectional", False, "small"):
        "3312d9fffc2c3e4cd8c711da21977ec0b1f4be727a83b4737992433e5231a38a",
    ("bidirectional", False, "small"):
        "c47132dbf2295461ad9ca03cdc3526b4c3017da5c4e65c159ea656312ddff768",
    ("multiresolution", False, "small"):
        "78d8292d830d5cc520530f14ff60f0a4931a0c47137a742fceac46b36679d301",
    ("multiresolution", True, "small"):
        "5b3e4a9b32ba8bcb5a750bba20b5dfffdc65cc9fd453f624e80166a3a21523a4",
    ("unidirectional", False, "desk"):
        "64965ba2905b861ccc8325f6e6b049969aab50f48ba16ae9071c68861eea4a77",
    ("bidirectional", False, "desk"):
        "16a6d498a8260ec9412cdd621cbab3ae347a3b1054324c93294af381bb16ee5f",
    ("multiresolution", False, "desk"):
        "4847e71faf0d5f984dc90441861467927c8b4ccb4be8ef838e02d6cbf2507a9e",
    ("multiresolution", True, "desk"):
        "6dd3e257b30ff1610bd9b79a9d1bb5686e4a23fa680e9697f2392ff9c2aa85f9",
    ("bidirectional", False, "long"):
        "b8fe97e2e41ab17d9ce16edf8432a05a59e0e35de374f5c13538cb25a466bac6",
}


class TestEncode:
    """The forward-only logits against the traced features."""

    @pytest.mark.parametrize("kind,bidir", [("unidirectional", False),
                                            ("bidirectional", False),
                                            ("multiresolution", False),
                                            ("multiresolution", True)])
    def test_matches_encoder_forward(self, kind, bidir):
        rng = np.random.default_rng(21)
        cfg = EncoderConfig(kind=kind, layers=2, hidden=4, input_dim=3,
                            multires_bidirectional=bidir)
        layers = random_layers(cfg, rng)
        w = rng.uniform(-1.0, 1.0, cfg.output_dim)
        # Odd lengths give the pooling a trailing frame; 131 spans three
        # projection blocks.
        for t_len in (1, 7, 13, 131):
            xs = rng.standard_normal((t_len, 3, 3))
            want, _ = encoder_forward(cfg, layers, xs)
            got = encode(cfg, layers, xs, w)
            assert got.shape == (t_len, 3)
            np.testing.assert_allclose(got, want @ w, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind,bidir,shape", pin_cases(ENCODE_PINS))
    def test_output_bytes_pinned(self, kind, bidir, shape):
        # sha256 of the logits of a depth-2 batch, recorded when encode
        # came to return logits in place of features.
        hidden, input_dim, frames, batch = ENCODE_SHAPES[shape]
        rng = np.random.default_rng(31)
        cfg = EncoderConfig(kind=kind, layers=2, hidden=hidden,
                            input_dim=input_dim, multires_bidirectional=bidir)
        layers = random_layers(cfg, rng)
        xs = rng.standard_normal((frames, batch, input_dim))
        w = rng.uniform(-1.0, 1.0, cfg.output_dim)
        digest = hashlib.sha256(encode(cfg, layers, xs, w).tobytes()).hexdigest()
        assert digest == ENCODE_PINS[kind, bidir, shape]

    def test_checks_like_encoder_forward(self):
        cfg = EncoderConfig(kind="unidirectional", layers=2, hidden=3, input_dim=2)
        layers, w = zero_layers(cfg), np.ones(3)
        with pytest.raises(ValueError):
            encode(cfg, layers[:1], np.ones((3, 1, 2)), w)
        with pytest.raises(ValueError):
            encode(cfg, layers, np.ones((3, 1, 4)), w)
        with pytest.raises(ValueError):
            encode(cfg, layers, np.ones((3, 1, 2)), np.ones(4))


def held_arrays(obj) -> list[np.ndarray]:
    """Every array a trace holds, through its lists and nested objects."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, list):
        return [a for item in obj for a in held_arrays(item)]
    if hasattr(obj, "__dict__"):
        return [a for value in vars(obj).values() for a in held_arrays(value)]
    return []


def owner(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


# numpy 2 moved byte_bounds into np.lib.array_utils.
byte_bounds = getattr(np.lib, "array_utils", np).byte_bounds


class TestTrace:
    @pytest.mark.parametrize("kind,bidir", [("unidirectional", False),
                                            ("bidirectional", False),
                                            ("multiresolution", False),
                                            ("multiresolution", True)])
    def test_keeps_alive_only_what_it_holds(self, kind, bidir):
        # The arrays that own the memory behind the trace's arrays hold no
        # more bytes than the trace's arrays do, so no trace array is a
        # view that keeps a wider buffer, such as a whole layer output,
        # alive. Views of the same bytes (a sequence and its time
        # reversal) count once.
        rng = np.random.default_rng(51)
        cfg = EncoderConfig(kind=kind, layers=2, hidden=4, input_dim=3,
                            multires_bidirectional=bidir)
        layers = random_layers(cfg, rng)
        _, trace = encoder_forward(cfg, layers, rng.standard_normal((9, 2, 3)))
        arrays = held_arrays(trace)
        assert arrays
        held = {byte_bounds(a): a.nbytes for a in arrays}
        behind = {id(o): o.nbytes for o in map(owner, arrays)}
        assert sum(behind.values()) <= sum(held.values())


# tracemalloc peaks in bytes of a depth-2, H 32 encoder on a (300, 10, 16)
# batch, inputs and output gradient made before tracing starts: a traced
# forward pass plus BPTT, and a forward-only encode. Recorded when each
# layer's gates were one interleaved (..., B, 3H) buffer and encode
# returned the features, not the logits; a peak may rise by at most
# MEMORY_SLACK over its pin.
MEMORY_PINS = {
    ("unidirectional", False): (9_324_336, 1_819_952),
    ("bidirectional", False): (21_874_128, 3_588_144),
    ("multiresolution", False): (7_019_608, 1_921_112),
    ("multiresolution", True): (14_961_656, 3_588_256),
}
MEMORY_SLACK = 1.05


class TestMemory:
    @pytest.mark.parametrize("kind,bidir", list(MEMORY_PINS))
    def test_peaks_stay_at_their_pins(self, kind, bidir):
        rng = np.random.default_rng(61)
        cfg = EncoderConfig(kind=kind, layers=2, hidden=32, input_dim=16,
                            multires_bidirectional=bidir)
        layers = random_layers(cfg, rng)
        xs = rng.standard_normal((300, 10, 16))
        d_hs = rng.standard_normal((300, 10, cfg.output_dim))

        def train():
            encoder_backward(cfg, layers, encoder_forward(cfg, layers, xs)[1], d_hs)

        def infer():
            encode(cfg, layers, xs, np.ones(cfg.output_dim))

        train()  # first calls may allocate once-only state
        infer()
        peaks = (traced_peak(train), traced_peak(infer))
        for peak, pin in zip(peaks, MEMORY_PINS[kind, bidir]):
            assert peak <= MEMORY_SLACK * pin, (peaks, MEMORY_PINS[kind, bidir])


class TestConfigValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            EncoderConfig(kind="quadridirectional", layers=1, hidden=2, input_dim=2)

    def test_positive_sizes(self):
        with pytest.raises(ValueError):
            EncoderConfig(kind="unidirectional", layers=0, hidden=2, input_dim=2)
        with pytest.raises(ValueError):
            EncoderConfig(kind="unidirectional", layers=1, hidden=0, input_dim=2)

    def test_sizes_must_be_integers(self):
        for bad in (dict(layers=2.0), dict(layers=True), dict(hidden=3.0),
                    dict(input_dim=np.float64(2)), dict(multires_bidirectional=1)):
            with pytest.raises(TypeError):
                EncoderConfig(**{"kind": "multiresolution", "layers": 1,
                                 "hidden": 2, "input_dim": 2, **bad})
        cfg = EncoderConfig(kind="unidirectional", layers=np.int64(2),
                            hidden=np.int32(3), input_dim=np.uint8(4))
        assert cfg.param_count == 135

    @pytest.mark.parametrize("kind,bidir", [("unidirectional", False),
                                            ("bidirectional", False),
                                            ("multiresolution", False),
                                            ("multiresolution", True)])
    def test_param_count_matches_layer_views(self, kind, bidir):
        for layers in (1, 2, 5):
            cfg = EncoderConfig(kind=kind, layers=layers, hidden=3, input_dim=7,
                                multires_bidirectional=bidir)
            cells = [c for layer in zero_layers(cfg) for c in (layer.fwd, layer.bwd)
                     if c is not None]
            assert sum(a.size for c in cells for a in (c.W, c.U, c.b)) == cfg.param_count
