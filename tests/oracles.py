"""Reference forms the tests compare the package against: the GRU cell
equations one step at a time, one layer run over a single (T, D_in)
sequence, a layer's input projection made through a scratch buffer, the
replicating upsample of a pooled sequence, and the
detector's head for one utterance: its forward pass, its loss and their
exact gradient, with the utterance embedding formed explicitly.

The package runs batches through one encoder loop and never calls these;
each is written in the most direct form its tests need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from raresed.detector import (
    ATTENTION_EPS,
    DEFAULT_WINDOW_MARGIN,
    PROB_FLOOR,
    EventModel,
    frame_window,
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


def project(w_in: np.ndarray, b_in: np.ndarray, xs: np.ndarray, t0: int,
            zr: np.ndarray, c: np.ndarray, scratch: np.ndarray) -> None:
    """recurrent._project in its direct form: per direction one (n*B, 3H)
    gemm of the cell's own map over its input block in run time order,
    then the cell's bias, the copy-out into ``zr`` and ``c``, and a
    halving pass over ``zr``. The cell's map and bias are ``w_in`` and
    ``b_in`` with their halved update/reset rows doubled, which is exact.
    ``scratch`` is not used."""
    n_dir, n, batch, zr_cols = zr.shape
    rows = n * batch
    unhalve = np.where(np.arange(b_in.shape[1]) < zr_cols, 2.0, 1.0)
    for k in range(n_dir):
        block = (xs if k == 0 else xs[::-1])[t0:t0 + n]
        projected = block.reshape(rows, -1) @ (w_in[k] * unhalve[:, None]).T
        projected += b_in[k] * unhalve
        projected = projected.reshape(n, batch, -1)
        zr[k] = projected[..., :zr_cols]
        c[k] = projected[..., zr_cols:]
    zr *= 0.5


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


@dataclass
class ForwardTrace:
    """Cached activations of one utterance forward pass.

    Filled in stages: frame_posteriors stores the encoder outputs and
    p_t; utterance_posterior adds attention, embedding, and p.
    """

    hidden: np.ndarray            # (T, h)
    frame_posteriors: np.ndarray  # (T,)
    attention: Optional[np.ndarray] = None
    embedding: Optional[np.ndarray] = None
    utterance_posterior: Optional[float] = None


def attention_weights(p: np.ndarray) -> np.ndarray:
    """Frame posteriors normalized over the utterance.

    a_t = p_t / (sum_s p_s + eps); the guard keeps the weights defined
    for all-zero posteriors and the sum strictly within [0, 1].
    """
    p = as_f64(p)
    if p.ndim != 1 or p.shape[0] < 1:
        raise ValueError("attention_weights expects a nonempty vector")
    return p / (p.sum() + ATTENTION_EPS)


def utterance_posterior(model: EventModel, trace: ForwardTrace) -> float:
    """Pool frames with attention and classify the embedding with w.

    Stores attention, embedding, and the posterior on the trace.
    """
    if trace.attention is None:
        trace.attention = attention_weights(trace.frame_posteriors)
    trace.embedding = trace.attention @ trace.hidden
    trace.utterance_posterior = sigmoid(float(model.w @ trace.embedding))
    return trace.utterance_posterior


def _clamped_log(p: np.ndarray) -> np.ndarray:
    return np.log(np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR))


def utterance_loss(p: float, y: int) -> float:
    """Cross-entropy of the utterance posterior against the binary label."""
    p = np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)
    return float(-(y * np.log(p) + (1 - y) * np.log(1.0 - p)))


def event_labels(utt, frames: np.ndarray) -> np.ndarray:
    """1.0 at each 1-based frame of ``frames`` inside the utterance's
    event onset..offset, 0.0 elsewhere."""
    return ((frames >= utt.onset) & (frames <= utt.offset)).astype(np.float64)


def frame_loss(trace: ForwardTrace, utt, window: Iterable[int]) -> float:
    """Mean frame cross-entropy over the window; 0 for negative utterances.

    Frame labels are meaningless when no event occurs, so the frame term
    is only measured on positives.
    """
    if utt.y == 0:
        return 0.0
    idx = np.fromiter(window, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("frame_loss needs a nonempty window for positives")
    t_len = trace.frame_posteriors.shape[0]
    if idx.min() < 1 or idx.max() > t_len:
        raise ValueError(
            f"window touches frames outside [1, {t_len}]: "
            f"{idx.min()}..{idx.max()}"
        )
    p = trace.frame_posteriors[idx - 1]
    y = event_labels(utt, idx)
    ll = y * _clamped_log(p) + (1.0 - y) * _clamped_log(1.0 - p)
    return float(-np.mean(ll))


def trace_loss(trace: ForwardTrace, utt, alpha: float, margin: int) -> float:
    """utterance_loss + alpha * frame_loss of a trace whose utterance
    posterior is filled in."""
    loss = utterance_loss(trace.utterance_posterior, utt.y)
    if utt.y == 1:
        window = frame_window(utt.onset, utt.offset, margin,
                              trace.frame_posteriors.shape[0])
        loss += alpha * frame_loss(trace, utt, window)
    return loss


def head_backward(model: EventModel, trace: ForwardTrace, utt, alpha: float,
                  margin: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradient of one utterance's total loss on its encoder output
    (T, h) and on the classifier w, through the embedding."""
    hs = trace.hidden
    p = trace.frame_posteriors
    a = trace.attention
    t_len = p.shape[0]

    # Utterance branch. d(loss)/d(logit) of a sigmoid cross-entropy is
    # posterior - label, so the clamp never enters the gradient path.
    gu = trace.utterance_posterior - utt.y
    grad_w = gu * trace.embedding
    d_embed = gu * model.w

    # Pooling h_bar = sum_t a_t h_t.
    d_a = hs @ d_embed
    d_hs = np.outer(a, d_embed)

    # Attention normalization a_t = p_t / (sum p + eps), quotient rule.
    denom = p.sum() + ATTENTION_EPS
    d_p = d_a / denom - (d_a @ p) / (denom * denom)

    # Frame logits receive the attention chain plus the frame loss.
    d_s = d_p * (p * (1.0 - p))
    if utt.y == 1:
        window = frame_window(utt.onset, utt.offset, margin, t_len)
        idx = np.arange(window.start - 1, window.stop - 1)
        labels = event_labels(utt, idx + 1)
        d_s[idx] += alpha * (p[idx] - labels) / idx.size

    grad_w = grad_w + hs.T @ d_s
    d_hs += np.outer(d_s, model.w)
    return d_hs, grad_w


def utterance_head(model: EventModel, hidden: np.ndarray, utt, alpha: float,
                   margin: int) -> tuple[float, np.ndarray, np.ndarray]:
    """One utterance's loss and its gradients on its (T, h) encoder output
    and on w, from a trace of that output."""
    h = np.ascontiguousarray(hidden)
    trace = ForwardTrace(hidden=h, frame_posteriors=sigmoid(h @ model.w))
    utterance_posterior(model, trace)
    loss = trace_loss(trace, utt, alpha, margin)
    return (loss, *head_backward(model, trace, utt, alpha, margin))


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
    return trace_loss(trace, utt, alpha, margin), trace
