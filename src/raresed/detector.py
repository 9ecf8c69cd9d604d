"""The event detector: frame posteriors, attention pooling, utterance
posterior, the combined loss, its exact gradients, and inference.

One classifier vector w serves both prediction levels. Per frame,
p_t = sigmoid(w . h_t) scores frame t; the p_t normalized over the
utterance become attention weights that pool the frame features into an
utterance embedding, scored again by w. Training minimizes

    loss = utterance_loss + alpha * frame_loss,

where the frame term is a mean cross-entropy over a window around the
labeled event (only for positive utterances), and the utterance term is
the cross-entropy of the pooled posterior.

Gradients are fully analytic: backpropagation through both uses of w,
through the attention normalization (quotient rule), and through the
recurrent encoder (BPTT, including the pooling of the multi-resolution
stack). The test suite checks them against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, TYPE_CHECKING

import numpy as np

from .numerics import as_f64, sigmoid
from .recurrent import (
    EncoderConfig,
    EncoderLayer,
    draw_encoder,
    encode,
    encode_bytes,
    encoder_backward,
    encoder_forward,
    layer_views,
)

if TYPE_CHECKING:  # pragma: no cover
    from .data import Utterance

# Attention denominator guard: keeps weights defined when every frame
# posterior underflows to zero, and keeps sum(a) strictly <= 1.
ATTENTION_EPS = 1e-12
# Posteriors are clamped to [PROB_FLOOR, 1 - PROB_FLOOR] before logs.
PROB_FLOOR = 1e-12

DEFAULT_WINDOW_MARGIN = 50


@dataclass(frozen=True, eq=False)
class EventModel:
    """Encoder parameters plus the shared event classifier vector w.

    The model owns one float64 vector ``params``: the encoder in
    layer_views order, then w. ``layers`` and ``w`` are views of it, so
    an in-place update of ``params`` updates the model; no attribute can
    be reassigned.
    """

    config: EncoderConfig
    params: np.ndarray
    layers: list[EncoderLayer] = field(init=False, repr=False)
    w: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n_enc = self.config.param_count
        if (self.params.dtype != np.float64
                or self.params.shape != (n_enc + self.config.output_dim,)):
            raise ValueError(
                f"parameter vector is {self.params.dtype} {self.params.shape}, "
                f"model needs float64 ({self.param_count},)"
            )
        object.__setattr__(self, "layers", layer_views(self.config, self.params))
        object.__setattr__(self, "w", self.params[n_enc:])

    @classmethod
    def initialize(cls, config: EncoderConfig, seed: int) -> "EventModel":
        """Deterministic init: weights uniform +-1/sqrt(fan-in), zero
        biases; the encoder is drawn first, then w."""
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        model = cls(config, np.empty(config.param_count + config.output_dim))
        draw_encoder(model.layers, rng)
        s = 1.0 / np.sqrt(config.output_dim)
        model.w[:] = rng.uniform(-s, s, size=config.output_dim)
        return model

    def flatten(self) -> np.ndarray:
        """A copy of the parameter vector."""
        return self.params.copy()

    @property
    def param_count(self) -> int:
        return self.config.param_count + self.config.output_dim

    def with_flat(self, vec: np.ndarray) -> "EventModel":
        """New model owning a float64 copy of the flat vector ``vec``
        (lossless), so later changes to ``vec`` do not reach it."""
        return EventModel(self.config, np.array(vec, dtype=np.float64))


@dataclass
class ForwardTrace:
    """Cached activations of one utterance forward pass.

    Filled in stages: the training head stores the encoder outputs and
    p_t; utterance_posterior adds attention, embedding, and p.
    """

    hidden: np.ndarray            # (T, h)
    frame_posteriors: np.ndarray  # (T,)
    attention: Optional[np.ndarray] = None
    embedding: Optional[np.ndarray] = None
    utterance_posterior: Optional[float] = None


@dataclass(frozen=True)
class Detection:
    """Inference outcome; onset/offset are 1-based inclusive frame indices."""

    present: bool
    onset: Optional[int] = None
    offset: Optional[int] = None

    def __post_init__(self) -> None:
        if self.present:
            if self.onset is None or self.offset is None:
                raise ValueError("present detection needs onset and offset")
            if not 1 <= self.onset <= self.offset:
                raise ValueError(f"bad boundary {self.onset}..{self.offset}")


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


def frame_window(onset: int, offset: int, margin: int, t_len: int) -> range:
    """1-based inclusive window [onset - margin, offset + margin] clipped
    to the utterance."""
    if not 1 <= onset <= offset <= t_len:
        raise ValueError(f"bad event boundaries {onset}..{offset} for T={t_len}")
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    return range(max(1, onset - margin), min(t_len, offset + margin) + 1)


def frame_loss(trace: ForwardTrace, utt: "Utterance",
               window: Iterable[int]) -> float:
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
    y = as_f64(utt.frame_labels)[idx - 1]
    ll = y * _clamped_log(p) + (1.0 - y) * _clamped_log(1.0 - p)
    return float(-np.mean(ll))


def _trace_loss(trace: ForwardTrace, utt: "Utterance", alpha: float,
                margin: int) -> float:
    loss = utterance_loss(trace.utterance_posterior, utt.y)
    if utt.y == 1:
        window = frame_window(utt.onset, utt.offset, margin,
                              trace.frame_posteriors.shape[0])
        loss += alpha * frame_loss(trace, utt, window)
    return loss


def _head_backward(model: EventModel, trace: ForwardTrace, utt: "Utterance",
                   alpha: float, margin: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradient of one utterance's total loss on its encoder output
    (T, h) and on the classifier w."""
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
        labels = as_f64(utt.frame_labels)[idx]
        d_s[idx] += alpha * (p[idx] - labels) / idx.size

    grad_w = grad_w + hs.T @ d_s
    d_hs += np.outer(d_s, model.w)
    return d_hs, grad_w


def _length_groups(lengths: Iterable[int]) -> list[list[int]]:
    """Indices grouped by equal length, in the order the lengths first
    appear; indices keep their order within a group."""
    groups: dict[int, list[int]] = {}
    for i, n in enumerate(lengths):
        groups.setdefault(n, []).append(i)
    return list(groups.values())


def _clip_shape(clip) -> tuple[int, ...]:
    """Shape of a clip's features: a clip is a (d, T) array, or an
    utterance or stored record, whose shape is known without reading."""
    if isinstance(clip, np.ndarray):
        return clip.shape
    return clip.dim, clip.n_frames


def _stack(clips: Sequence) -> np.ndarray:
    """The (T, B, d) stack of equal-length clips. Each clip's features
    are copied into their slot as they are read, so a stored record's
    features are held only for that copy."""
    dim, t_len = _clip_shape(clips[0])
    xs = np.empty((t_len, len(clips), dim))
    for b, clip in enumerate(clips):
        xs[:, b] = (clip if isinstance(clip, np.ndarray) else clip.features).T
    return xs


def _utterance_groups(batch: Sequence["Utterance"]) -> list[list["Utterance"]]:
    """Split a batch into groups of equal frame count (see _length_groups)."""
    if not batch:
        raise ValueError("batch must be nonempty")
    return [[batch[i] for i in group]
            for group in _length_groups(utt.n_frames for utt in batch)]


def _group_heads(model: EventModel, group: Sequence["Utterance"], alpha: float,
                 margin: int):
    """One recurrence over equal-length utterances, then each utterance's
    head. Returns the group's summed loss, the encoder trace,
    d(loss)/d(encoder output) (T, B, h) and d(loss)/dw.

    Each head reads a contiguous copy of its (T, h) slice: that gives it
    the memory layout of a batch of one, so its sums do not depend on its
    batch. The encoder features it reads are the same bits in every
    batch of two or more only where BLAS rounds a row of a product alike
    whatever the row count, and equal only to rounding in a batch of one
    (see recurrent._layer_bptt).
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    hs, enc_trace = encoder_forward(model.config, model.layers, _stack(group))
    d_hs = np.empty_like(hs)
    grad_w = np.zeros_like(model.w)
    loss = 0.0
    for b, utt in enumerate(group):
        h = np.ascontiguousarray(hs[:, b])
        trace = ForwardTrace(hidden=h, frame_posteriors=sigmoid(h @ model.w))
        utterance_posterior(model, trace)
        loss += _trace_loss(trace, utt, alpha, margin)
        d_hs[:, b], d_w = _head_backward(model, trace, utt, alpha, margin)
        grad_w += d_w
    return loss, enc_trace, d_hs, grad_w


def batch_loss_and_gradients(model: EventModel, batch: Sequence["Utterance"],
                             alpha: float,
                             margin: int = DEFAULT_WINDOW_MARGIN) -> tuple[float, np.ndarray]:
    """Mean total loss over the batch and its gradient, laid out like
    model.params.

    Each group of equal-length utterances runs one batched recurrence
    forward and one BPTT; group gradients are added in group order.
    """
    total = 0.0
    n_enc = model.config.param_count
    grad = np.zeros(model.param_count)
    for group in _utterance_groups(batch):
        loss, enc_trace, d_hs, grad_w = _group_heads(model, group, alpha, margin)
        total += loss
        grad[:n_enc] += encoder_backward(model.config, model.layers, enc_trace, d_hs)
        grad[n_enc:] += grad_w
    n = len(batch)
    return total / n, grad / n


def _longest_true_run(mask: np.ndarray) -> Optional[tuple[int, int]]:
    """(start, end) 0-based inclusive of the longest run; earliest wins ties."""
    padded = np.zeros(mask.shape[0] + 2, dtype=np.int8)
    padded[1:-1] = mask
    edges = np.diff(padded)
    starts = np.flatnonzero(edges == 1)
    if starts.size == 0:
        return None
    ends = np.flatnonzero(edges == -1)  # one past each run
    k = int(np.argmax(ends - starts))
    return int(starts[k]), int(ends[k]) - 1


def decide_detection(p_utt: float, frame_p: np.ndarray, thres0: float = 0.5,
                     thres1: float = 0.5) -> Detection:
    """Two-level thresholding rule on already-computed posteriors.

    No event when the utterance posterior is <= thres0. Otherwise the
    frame posteriors are binarized at thres1 and the longest run of 1's
    (earliest on ties) gives the boundaries; if no frame clears thres1
    the single highest-posterior frame is returned.
    """
    if not (0.0 < thres0 < 1.0 and 0.0 < thres1 < 1.0):
        raise ValueError("thresholds must lie strictly inside (0, 1)")
    frame_p = as_f64(frame_p)
    if p_utt <= thres0:
        return Detection(present=False)
    run = _longest_true_run(frame_p > thres1)
    if run is None:
        t = int(np.argmax(frame_p))
        return Detection(present=True, onset=t + 1, offset=t + 1)
    return Detection(present=True, onset=run[0] + 1, offset=run[1] + 1)


# Bytes of encoder arrays one slice of infer may hold, as
# recurrent.encode_bytes counts them: each equal-length group of clips is
# cut into the fewest slices of at most max(1, INFER_BYTES //
# encode_bytes(config, T)) clips, with sizes that differ by at most one.
# 9 MiB holds 10 bidirectional 2x32 clips of 1304 frames (d = 16, 0.90 MB
# each): measured with infer on 40 of them, one BLAS thread, 2-core VM,
# slices of 6 / 10 / 20 / 40 clips cost 8.8 / 7.0 / 5.5 / 5.0 ms per clip
# and peak at 5.5 / 9.1 / 18.1 / 36.0 MB of numpy arrays. The desk
# preset's dev set (100 clips of 150 frames) runs in two slices of 50 and
# peaks at 4.5 MB (multiresolution) or 7.6 MB (bidirectional); a desk
# training minibatch peaks at 4.2 or 11.6 MB.
INFER_BYTES = 9 * 2**20


def infer(model: EventModel, clips: Sequence, thres0: float = 0.5,
          thres1: float = 0.5) -> list[Detection]:
    """Detections for a sequence of clips, in input order. A clip is a
    (d, T) feature array, or an utterance; a stored record's features
    are read from its file only while its slice is stacked.

    Clips of equal frame count are run together, in slices of at most
    INFER_BYTES, through the forward-only encoder, which returns only
    the frame logits s_t = w . h_t. Each clip then gets the attention
    head from a contiguous copy of its logits, p_t = sigmoid(s_t),
    a = p / (sum(p) + eps) and p_utt = sigmoid(a . s), which equal the
    training head's posteriors to rounding, and the two-level
    thresholding rule.
    """
    shapes = [_clip_shape(x) for x in clips]
    for shape in shapes:
        if len(shape) != 2 or shape[0] != model.config.input_dim or shape[1] < 1:
            raise ValueError(
                f"features have shape {shape}, model expects "
                f"({model.config.input_dim}, T) with T >= 1"
            )
    detections: list[Optional[Detection]] = [None] * len(clips)
    for group in _length_groups(shape[1] for shape in shapes):
        most = max(1, INFER_BYTES // encode_bytes(model.config, shapes[group[0]][1]))
        count = -(-len(group) // most)
        for k in range(count):
            part = group[k * len(group) // count:(k + 1) * len(group) // count]
            logits = encode(model.config, model.layers,
                            _stack([clips[i] for i in part]), model.w)
            for b, i in enumerate(part):
                s = np.ascontiguousarray(logits[:, b])
                p = sigmoid(s)
                p_utt = sigmoid(float(attention_weights(p) @ s))
                detections[i] = decide_detection(p_utt, p, thres0, thres1)
            del logits  # not held while the next slice is encoded
    return detections  # type: ignore[return-value]
