"""The event detector: frame posteriors, attention pooling, utterance
posterior, the combined loss, its exact gradients, and inference.

One classifier vector w serves both prediction levels. Per frame,
p_t = sigmoid(w . h_t) scores frame t; the p_t normalized over the
utterance become attention weights a_t that pool the frame features into
an utterance embedding, scored again by w. Both posteriors are sigmoids
of the frame logits s_t = w . h_t: p_t = sigmoid(s_t), and, since
w . sum_t a_t h_t = sum_t a_t s_t, p_utt = sigmoid(sum_t a_t s_t). So one
head over a batch's (B, T) logits serves training and inference.
Training minimizes

    loss = utterance term + alpha * frame term,

where the frame term is a mean cross-entropy over a window around the
labeled event (only for positive utterances), and the utterance term is
the cross-entropy of the pooled posterior.

Gradients are fully analytic. The head's gradient on the logits, g_t,
gives d(loss)/dh_t = g_t w and d(loss)/dw = sum_t g_t h_t; BPTT carries
it, as the factors (g, w), through the recurrent encoder, including the
pooling of the multi-resolution stack. The test suite checks them
against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, TYPE_CHECKING

import numpy as np

from .errors import DataMismatchError
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
DEFAULT_THRESHOLD = 0.5


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


def frame_window(onset: int, offset: int, margin: int, t_len: int) -> range:
    """1-based inclusive window [onset - margin, offset + margin] clipped
    to the utterance."""
    if not 1 <= onset <= offset <= t_len:
        raise ValueError(f"bad event boundaries {onset}..{offset} for T={t_len}")
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    return range(max(1, onset - margin), min(t_len, offset + margin) + 1)


def _length_groups(lengths: Iterable[int]) -> list[list[int]]:
    """Indices grouped by equal length, in the order the lengths first
    appear; indices keep their order within a group."""
    groups: dict[int, list[int]] = {}
    for i, n in enumerate(lengths):
        groups.setdefault(n, []).append(i)
    return list(groups.values())


def _stack(clips: Sequence) -> np.ndarray:
    """The (T, B, d) stack of equal-length clips. Each clip's features
    are copied into their slot as they are read, so a stored record's
    features are held only for that copy."""
    xs = np.empty((clips[0].n_frames, len(clips), clips[0].dim))
    for b, clip in enumerate(clips):
        xs[:, b] = clip.features.T
    return xs


def attend(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                         np.ndarray]:
    """The forward half of the head over (B, T) frame logits, each row
    one sequence: frame posteriors p = sigmoid(s), the utterance
    posteriors sigmoid(sum_t a_t s_t) (B,), the attention weights
    a = p / denom and the denominators denom = sum_t p_t + eps (B,).

    Every sum runs along a row, so a sequence gets the same bits in
    every batch, and the same as a batch of one.
    """
    p = sigmoid(logits)
    denom = np.add.reduce(p, 1) + ATTENTION_EPS
    a = p / denom[:, None]
    p_utt = sigmoid((a[:, None] @ logits[:, :, None])[:, 0, 0])
    return p, p_utt, a, denom


def head(logits: np.ndarray, y: np.ndarray, scale: np.ndarray,
         labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each sequence's loss (B,) and its gradient g (B, T) on the frame
    logits (B, T), for utterance labels y (B,), frame-term weights
    ``scale`` (B, T) and frame labels (B, T).

    The loss is the cross-entropy of the utterance posterior plus the
    frame cross-entropies weighted by ``scale``: alpha / |window| over a
    positive's event window, 0 elsewhere. With u = sum_t a_t s_t,
    dL/du = p_utt - y, and the attention normalization gives
    du/ds_t = a_t + (s_t - u) p_t (1 - p_t) / denom, so
    g = (p_utt - y) (a + (s - u) p (1 - p) / denom) + scale (p - labels).
    The clamp before the logs never enters the gradient.
    """
    p, p_utt, a, denom = attend(logits)
    u = np.add.reduce(a * logits, 1)
    q_utt = np.minimum(np.maximum(p_utt, PROB_FLOOR), 1.0 - PROB_FLOOR)
    q = np.minimum(np.maximum(p, PROB_FLOOR), 1.0 - PROB_FLOOR)
    loss = -(y * np.log(q_utt) + (1.0 - y) * np.log(1.0 - q_utt))
    loss -= np.add.reduce(scale * (labels * np.log(q)
                                   + (1.0 - labels) * np.log(1.0 - q)), 1)
    g = ((p_utt - y)[:, None] * (a + (logits - u[:, None]) * (p * (1.0 - p))
                                 / denom[:, None])
         + scale * (p - labels))
    return loss, g


def _group_heads(model: EventModel, group: Sequence["Utterance"], alpha: float,
                 margin: int):
    """One recurrence over equal-length utterances, then the head over
    their logits s = h . w. Returns each utterance's loss (B,), the
    encoder trace, the head's gradient g (B, T) on the logits and
    d(loss)/dw.

    The head's gradient is rank one: d(loss)/dh_t = g_t w, which
    encoder_backward takes as the factors (g, w) in place of the dense
    (T, B, h) array it also accepts, and d(loss)/dw = sum_t g_t h_t,
    which stacks one share per sequence before summing over the batch,
    as encoder_backward does. So no product or sum mixes sequences
    before that batch sum.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    hs, enc_trace = encoder_forward(model.config, model.layers, _stack(group))
    t_len, count = hs.shape[:2]
    seqs = hs.transpose(1, 0, 2)  # (B, T, h) view
    y = np.array([utt.y for utt in group], dtype=np.float64)
    scale = np.zeros((count, t_len))
    labels = np.zeros((count, t_len))
    for b, utt in enumerate(group):
        if utt.y == 1:
            window = frame_window(utt.onset, utt.offset, margin, t_len)
            scale[b, window.start - 1:window.stop - 1] = alpha / len(window)
            labels[b, utt.onset - 1:utt.offset] = 1.0
    loss, g = head(seqs @ model.w, y, scale, labels)
    grad_w = np.add.reduce((g[:, None] @ seqs)[:, 0], 0)
    return loss, enc_trace, g, grad_w


def batch_loss_and_gradients(model: EventModel, batch: Sequence["Utterance"],
                             alpha: float,
                             margin: int = DEFAULT_WINDOW_MARGIN) -> tuple[float, np.ndarray]:
    """Mean total loss over the batch and its gradient, laid out like
    model.params.

    Each group of equal-length utterances (see _length_groups) runs one
    batched recurrence forward and one BPTT; group gradients are added
    in group order.
    """
    if not batch:
        raise ValueError("batch must be nonempty")
    total = 0.0
    n_enc = model.config.param_count
    grad = np.zeros(model.param_count)
    for group in _length_groups(utt.n_frames for utt in batch):
        loss, enc_trace, g, grad_w = _group_heads(
            model, [batch[i] for i in group], alpha, margin)
        total += float(loss.sum())
        grad[:n_enc] += encoder_backward(model.config, model.layers, enc_trace,
                                         (g, model.w))
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


def decide_detection(p_utt: float, frame_p: np.ndarray,
                     thres0: float = DEFAULT_THRESHOLD,
                     thres1: float = DEFAULT_THRESHOLD) -> Detection:
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


def check_dims(clips: Sequence, input_dim: int, what: str) -> None:
    """DataMismatchError naming the first clip, as ``what <id>``, whose
    feature dimension is not ``input_dim``."""
    for clip in clips:
        if clip.dim != input_dim:
            raise DataMismatchError(f"{what} {clip.id} has {clip.dim}-dim "
                                    f"features, model expects {input_dim}")


# Bytes of encoder arrays one slice of infer may hold, as
# recurrent.encode_bytes counts them: each equal-length group of clips is
# cut into the fewest slices of at most max(1, INFER_BYTES //
# encode_bytes(config, T)) clips, with sizes that differ by at most one.
# 9 MiB holds 10 bidirectional 2x32 clips of 1304 frames (d = 16, 0.89 MB
# each), and the desk dev set in two slices; doubling a slice doubles its
# peak but saves far less of the time a clip takes. The measured trade is
# in README "Performance", under "Inference".
INFER_BYTES = 9 * 2**20


def infer(model: EventModel, clips: Sequence, thres0: float = DEFAULT_THRESHOLD,
          thres1: float = DEFAULT_THRESHOLD) -> list[Detection]:
    """Detections for a sequence of clips, in input order. A clip is an
    utterance or a stored record: anything with ``id``, ``dim``,
    ``n_frames`` and ``features``. A record's features are read from its
    file only while its slice is stacked. A clip whose dimension is not
    the model's raises DataMismatchError before any is encoded.

    Clips of equal frame count are run together, in slices of at most
    INFER_BYTES, through the forward-only encoder, which returns only
    the frame logits s_t = w . h_t. The forward half of the training
    head (attend) gives each slice's posteriors, and each clip gets the
    two-level thresholding rule.
    """
    check_dims(clips, model.config.input_dim, "utterance")
    detections: list[Optional[Detection]] = [None] * len(clips)
    for group in _length_groups(clip.n_frames for clip in clips):
        most = max(1, INFER_BYTES // encode_bytes(model.config,
                                                   clips[group[0]].n_frames))
        count = -(-len(group) // most)
        for k in range(count):
            part = group[k * len(group) // count:(k + 1) * len(group) // count]
            logits = encode(model.config, model.layers,
                            _stack([clips[i] for i in part]), model.w)
            p, p_utt = attend(np.ascontiguousarray(logits.T))[:2]
            for b, i in enumerate(part):
                detections[i] = decide_detection(float(p_utt[b]), p[b],
                                                 thres0, thres1)
            del logits, p  # not held while the next slice is encoded
    return detections  # type: ignore[return-value]
