"""Reference forms the tests compare the package against: the GRU cell
equations one step at a time, one layer run over a single (T, D_in)
sequence, the replicating upsample of a pooled sequence, and the
detector's forward pass and loss for one utterance.

The package runs batches through one encoder loop and never calls these;
each is written in the most direct form its tests need.
"""

from __future__ import annotations

import numpy as np

from raresed.detector import (
    DEFAULT_WINDOW_MARGIN,
    EventModel,
    ForwardTrace,
    _trace_loss,
    utterance_posterior,
)
from raresed.numerics import as_f64, sigmoid
from raresed.recurrent import (
    EncoderConfig,
    EncoderLayer,
    GruLayerParams,
    _add_upsampled,
    encoder_forward,
)


def gru_cell_step(params: GruLayerParams, x_t: np.ndarray,
                  h_prev: np.ndarray) -> np.ndarray:
    """One GRU step; reference form of the cell equations."""
    x_t = as_f64(x_t)
    h_prev = as_f64(h_prev)
    if x_t.shape != (params.input_dim,) or h_prev.shape != (params.hidden,):
        raise ValueError(
            f"gru_cell_step dimension mismatch: x {x_t.shape}, h {h_prev.shape}, "
            f"cell expects ({params.input_dim},) and ({params.hidden},)"
        )
    (w_z, w_r, w_h), (u_z, u_r, u_h), (b_z, b_r, b_h) = (
        np.split(a, 3) for a in (params.W, params.U, params.b))
    z = sigmoid(w_z @ x_t + u_z @ h_prev + b_z)
    r = sigmoid(w_r @ x_t + u_r @ h_prev + b_r)
    c = np.tanh(w_h @ x_t + u_h @ (r * h_prev) + b_h)
    return (1.0 - z) * h_prev + z * c


def _one_layer(kind: str, layer: EncoderLayer, xs: np.ndarray) -> np.ndarray:
    """A one-layer encoder of ``kind`` over one (T, D_in) sequence."""
    xs = as_f64(xs)
    cell = layer.fwd
    if xs.ndim != 2 or xs.shape[1] != cell.input_dim:
        raise ValueError(
            f"sequence has shape {xs.shape}, layer expects (*, {cell.input_dim})"
        )
    cfg = EncoderConfig(kind=kind, layers=1, hidden=cell.hidden,
                        input_dim=cell.input_dim)
    return encoder_forward(cfg, [layer], xs[:, None, :])[0][:, 0]


def run_unidirectional(params: GruLayerParams, xs: np.ndarray) -> np.ndarray:
    """Hidden sequence of a forward run over a (T, D_in) sequence (zero
    initial state)."""
    return _one_layer("unidirectional", EncoderLayer(fwd=params), xs)


def run_bidirectional(fwd: GruLayerParams, bwd: GruLayerParams,
                      xs: np.ndarray) -> np.ndarray:
    """Per-frame concatenation (forward_t || backward_t).

    The backward half runs over the time-reversed input and is
    re-reversed, so backward_t summarizes frames t..T.
    """
    if fwd.input_dim != bwd.input_dim or fwd.hidden != bwd.hidden:
        raise ValueError("forward/backward cells must share dimensions")
    return _one_layer("bidirectional", EncoderLayer(fwd=fwd, bwd=bwd), xs)


def upsample_replicate(seq: np.ndarray, target_t: int) -> np.ndarray:
    """Replicate pooled frames back over the spans they summarized.

    ``seq`` must come from repeated subsample2 of a length-target_t
    sequence; each frame is copied 2^k times (final partial span covered
    by the last frame).
    """
    seq = as_f64(seq)
    m = seq.shape[0]
    n, k = target_t, 0
    while n > m:
        n = (n + 1) // 2
        k += 1
    if n != m:
        raise ValueError(
            f"cannot upsample {m} frames to {target_t}: no whole number of "
            f"halvings connects the lengths"
        )
    out = np.zeros((target_t,) + seq.shape[1:])
    _add_upsampled(out, seq, k)
    return out


def frame_posteriors(model: EventModel,
                     features: np.ndarray) -> tuple[np.ndarray, ForwardTrace]:
    """p_t = sigmoid(w . h_t) for every frame of a (d, T) feature matrix.

    No bias term on the classifier at either level.
    """
    features = as_f64(features)
    if features.ndim != 2 or features.shape[0] != model.config.input_dim:
        raise ValueError(
            f"features have shape {features.shape}, model expects "
            f"({model.config.input_dim}, T)"
        )
    hs, _ = encoder_forward(model.config, model.layers, features.T[:, None, :])
    p = sigmoid(hs[:, 0] @ model.w)
    return p, ForwardTrace(hidden=hs[:, 0], frame_posteriors=p)


def forward(model: EventModel, features: np.ndarray) -> ForwardTrace:
    """Full forward pass: posteriors, attention, embedding, p."""
    _, trace = frame_posteriors(model, features)
    utterance_posterior(model, trace)
    return trace


def total_loss(model: EventModel, utt, alpha: float,
               margin: int = DEFAULT_WINDOW_MARGIN) -> tuple[float, ForwardTrace]:
    """utterance_loss + alpha * frame_loss with the standard event window."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    trace = forward(model, utt.features)
    return _trace_loss(trace, utt, alpha, margin), trace
