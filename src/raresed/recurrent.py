"""GRU layers and the sequence encoders built from them.

Three encoder kinds produce one hidden vector per input frame:

* ``unidirectional``: L stacked forward GRU layers.
* ``bidirectional``: L stacked layers, each the concatenation of a
  forward run and a backward run (2H outputs per frame).
* ``multiresolution``: after each layer the output sequence is
  average-pooled by 2 along time and fed to the next layer, so higher
  layers see coarser time scales; every layer's pooled output is
  replicated back to full length and the streams are summed.

Cell convention (fixed here for reproducibility):

    z_t = sigmoid(W_z x_t + U_z h_{t-1} + b_z)
    r_t = sigmoid(W_r x_t + U_r h_{t-1} + b_r)
    c_t = tanh(W_h x_t + U_h (r_t * h_{t-1}) + b_h)
    h_t = (1 - z_t) * h_{t-1} + z_t * c_t

Sequences run time-major in batches: the encoder takes (T, B, d) arrays
of B equal-length sequences and runs one recurrence per layer and
direction over a (B, H) state. Training and inference share one forward
pass, which takes an optional trace:

* ``encoder_forward`` runs it with a trace, which keeps every activation
  that exact backpropagation through time needs; ``encoder_backward``
  consumes it and returns the parameter gradients, summed over the
  batch, as one flat vector laid out like the parameters (see
  ``layer_views``).
* ``encode`` runs it without one, for inference: the same features to
  rounding, with the input projections made a block of steps at a time
  and nothing kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .numerics import as_f64

ENCODER_KINDS = ("unidirectional", "bidirectional", "multiresolution")


@dataclass
class GruLayerParams:
    """One GRU direction. The rows of each map are stacked in gate order
    (update, reset, candidate): W (3H, D_in), U (3H, H) and b (3H,)."""

    W: np.ndarray
    U: np.ndarray
    b: np.ndarray

    @property
    def hidden(self) -> int:
        return self.U.shape[1]

    @property
    def input_dim(self) -> int:
        return self.W.shape[1]


@dataclass
class EncoderLayer:
    """Parameters of one encoder layer: forward cell, optional backward cell."""

    fwd: GruLayerParams
    bwd: Optional[GruLayerParams] = None


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture of the frame encoder."""

    kind: str
    layers: int
    hidden: int
    input_dim: int
    multires_bidirectional: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ENCODER_KINDS:
            raise ValueError(f"unknown encoder kind {self.kind!r}")
        for name in ("layers", "hidden", "input_dim"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, not {value!r}")
        if not isinstance(self.multires_bidirectional, bool):
            raise TypeError(f"multires_bidirectional must be a bool, not "
                            f"{self.multires_bidirectional!r}")
        if self.layers < 1:
            raise ValueError("need at least one layer")
        if self.hidden < 1 or self.input_dim < 1:
            raise ValueError("hidden size and input dim must be positive")

    @property
    def directions(self) -> int:
        if self.kind == "bidirectional":
            return 2
        if self.kind == "multiresolution" and self.multires_bidirectional:
            return 2
        return 1

    @property
    def output_dim(self) -> int:
        """Per-frame output width; identical for every layer of a stack."""
        return self.hidden * self.directions

    def layer_input_dim(self, index: int) -> int:
        return self.input_dim if index == 0 else self.output_dim

    @property
    def param_count(self) -> int:
        """Encoder parameters: 3H (D_in + H + 1) per cell, where D_in is
        the input dim for the first layer and the output dim for the rest."""
        dirs, h = self.directions, int(self.hidden)
        return dirs * 3 * h * ((int(self.input_dim) + h + 1)
                               + (int(self.layers) - 1) * (dirs * h + h + 1))


def layer_views(config: EncoderConfig, vec: np.ndarray) -> list[EncoderLayer]:
    """Layers whose parameters are views of the first config.param_count
    entries of the vector ``vec``, laid out as layers in order, forward
    cell before backward, and W, U, b of each cell row-major."""
    g, h_dim = 3 * config.hidden, config.hidden
    layers, pos = [], 0
    for i in range(config.layers):
        d_in = config.layer_input_dim(i)
        cells = []
        for _ in range(config.directions):
            u_at, b_at = pos + g * d_in, pos + g * (d_in + h_dim)
            cells.append(GruLayerParams(W=vec[pos:u_at].reshape(g, d_in),
                                        U=vec[u_at:b_at].reshape(g, h_dim),
                                        b=vec[b_at:b_at + g]))
            pos = b_at + g
        layers.append(EncoderLayer(*cells))
    return layers


def draw_encoder(layers: list[EncoderLayer], rng: np.random.Generator) -> None:
    """Initialize ``layers`` in place: weights uniform in [-s, s] with
    s = 1/sqrt(fan-in), zero biases.

    Cells are drawn in layer_views order, W before U, row-major, so a
    fixed seed pins every parameter.
    """
    for layer in layers:
        for cell in (layer.fwd, layer.bwd):
            if cell is None:
                continue
            s_in, s_h = 1.0 / np.sqrt(cell.input_dim), 1.0 / np.sqrt(cell.hidden)
            cell.W[:] = rng.uniform(-s_in, s_in, size=cell.W.shape)
            cell.U[:] = rng.uniform(-s_h, s_h, size=cell.U.shape)
            cell.b[:] = 0.0


# ---------------------------------------------------------------------------
# Directional runs over a batch
# ---------------------------------------------------------------------------

@dataclass
class GruRunTrace:
    """Activations of one directional run over a batch, time-major and in
    the run's own time order."""

    inputs: np.ndarray  # (T, B, D_in)
    hs: np.ndarray      # (T, B, H)
    gates: np.ndarray   # (T, B, 3H): update gate, reset gate, candidate


def _gru_steps(params: GruLayerParams, gates: np.ndarray, h: np.ndarray,
               hs: np.ndarray) -> np.ndarray:
    """Step the cell through ``gates`` (T, B, 3H), which holds the input
    projections plus biases, from the (B, H) state ``h``.

    Step t overwrites its row of ``gates`` with the gate activations and
    writes its state to ``hs[t]``; returns the last state. Each step does
    one (B, 2H) gate product and one (B, H) candidate product. The stable
    sigmoid of numerics.sigmoid is inlined as
    where(a >= 0, 1, e) / (1 + e) with e = exp(-|a|).
    """
    h_dim = params.hidden
    u_zr_t, u_h_t = params.U[:2 * h_dim].T, params.U[2 * h_dim:].T
    # Per-step views, sliced once.
    zr, zs = gates[:, :, :2 * h_dim], gates[:, :, :h_dim]
    rs, cs = gates[:, :, h_dim:2 * h_dim], gates[:, :, 2 * h_dim:]
    for t in range(gates.shape[0]):
        a = zr[t] + h @ u_zr_t
        e = np.exp(-np.abs(a))
        np.divide(np.where(a >= 0.0, 1.0, e), 1.0 + e, out=zr[t])
        z = zs[t]
        c = np.tanh(cs[t] + (rs[t] * h) @ u_h_t, out=cs[t])
        h = np.add((1.0 - z) * h, z * c, out=hs[t])
    return h


# Time steps whose input projections a trace-free run computes at once,
# so it never holds a whole-sequence (T, B, 3H) buffer.
PROJECTION_BLOCK = 16


def _gru_run(params: GruLayerParams, xs: np.ndarray, out: np.ndarray,
             keep: bool) -> Optional[GruRunTrace]:
    """Run the cell over a (T, B, D_in) batch of equal-length float64
    sequences, each from a zero initial state, writing the hidden states
    into ``out`` (T, B, H), which may be a strided view.

    With ``keep``, the input projections of every step are one matmul,
    the gate activations overwrite them in place, and the trace is
    returned. BPTT's weight-gradient matmuls need positive strides, so a
    run that writes through a time-reversed view keeps its states
    contiguous and in run order, and copies them out. Without ``keep``,
    projections are made PROJECTION_BLOCK steps at a time and nothing is
    kept.
    """
    t_len, batch, d_in = xs.shape
    h = np.zeros((batch, params.hidden))
    if keep:
        gates = (xs.reshape(t_len * batch, d_in) @ params.W.T + params.b).reshape(
            t_len, batch, -1)
        hs = out if out.strides[0] > 0 else np.empty(out.shape)
        _gru_steps(params, gates, h, hs)
        if hs is not out:
            out[...] = hs
        return GruRunTrace(inputs=xs, hs=hs, gates=gates)
    buffer = np.empty((min(t_len, PROJECTION_BLOCK) * batch, params.W.shape[0]))
    for t0 in range(0, t_len, PROJECTION_BLOCK):
        block = xs[t0:t0 + PROJECTION_BLOCK]
        gates = np.matmul(block.reshape(-1, d_in), params.W.T,
                          out=buffer[:block.shape[0] * batch])
        gates += params.b
        h = _gru_steps(params, gates.reshape(block.shape[0], batch, -1), h,
                       out[t0:t0 + PROJECTION_BLOCK])
    return None


def _gru_bptt(params: GruLayerParams, trace: GruRunTrace, d_out: np.ndarray,
              need_dx: bool, grads: GruLayerParams) -> Optional[np.ndarray]:
    """BPTT through one directional run over a batch.

    ``d_out`` is the loss gradient on every hidden output (T, B, H).
    Writes the parameter gradients, summed over the batch, into the
    arrays of ``grads`` and returns the gradient on the input sequences
    when requested. Consumes the trace: it overwrites the candidate rows.
    """
    t_len, batch, h_dim = trace.hs.shape
    u_zr, u_h = params.U[:2 * h_dim], params.U[2 * h_dim:]
    hs = trace.hs
    zero_h = np.zeros((batch, h_dim))
    zs = trace.gates[:, :, :h_dim]
    rs = trace.gates[:, :, h_dim:2 * h_dim]
    cs = trace.gates[:, :, 2 * h_dim:]

    # Gradients on the gate pre-activations: update, reset, candidate.
    d_a = np.empty((t_len, batch, 3 * h_dim))
    d_az, d_ar = d_a[:, :, :h_dim], d_a[:, :, h_dim:2 * h_dim]
    d_azr, d_ac = d_a[:, :, :2 * h_dim], d_a[:, :, 2 * h_dim:]
    # The factors that do not depend on the carry, once over the whole
    # run; each is bit for bit its per-step expression. d_a holds
    # z(1 - z), r(1 - r) and 1 - c^2 until each step scales its row into
    # the gradient, and the candidate rows of the trace become c - h_prev
    # (row 0 keeps c: h_prev is zero there).
    one_minus_z = np.subtract(1.0, zs)
    np.multiply(zs, one_minus_z, out=d_az)
    np.subtract(1.0, rs, out=d_ar)
    d_ar *= rs
    np.multiply(cs, cs, out=d_ac)
    np.subtract(1.0, d_ac, out=d_ac)
    np.subtract(cs[1:], hs[:-1], out=cs[1:])
    carry = np.zeros((batch, h_dim))
    for t in range(t_len - 1, -1, -1):
        h_prev = hs[t - 1] if t > 0 else zero_h
        dh = d_out[t] + carry
        dac = np.multiply(dh * zs[t], d_ac[t], out=d_ac[t])
        drh = dac @ u_h
        np.multiply(dh * cs[t], d_az[t], out=d_az[t])
        np.multiply(drh * h_prev, d_ar[t], out=d_ar[t])
        carry = dh * one_minus_z[t] + drh * rs[t] + d_azr[t] @ u_zr

    # Each weight gradient is one matmul over all T*B rows, stacked by
    # sequence and then summed over the batch, so a sequence's share does
    # not depend on which others share its batch. The recurrent maps skip
    # step 0, whose previous state is zero.
    d_seq = d_a.transpose(1, 2, 0)  # (B, 3H, T)
    # r_t * h_{t-1} goes into the spent 1 - z buffer.
    r_h_prev = np.multiply(rs[1:], hs[:-1], out=one_minus_z[1:])
    np.sum(d_seq[:, 2 * h_dim:, 1:] @ r_h_prev.transpose(1, 0, 2), axis=0,
           out=grads.U[2 * h_dim:])
    del r_h_prev, one_minus_z
    np.sum(d_seq[:, :2 * h_dim, 1:] @ hs[:-1].transpose(1, 0, 2), axis=0,
           out=grads.U[:2 * h_dim])
    # The backward direction's inputs are a time-reversed view; BLAS needs
    # positive strides.
    inputs = np.ascontiguousarray(trace.inputs)
    np.sum(d_seq @ inputs.transpose(1, 0, 2), axis=0, out=grads.W)
    np.sum(d_a.sum(axis=0), axis=0, out=grads.b)
    if not need_dx:
        return None
    return (d_a.reshape(t_len * batch, 3 * h_dim) @ params.W).reshape(
        t_len, batch, -1)


# ---------------------------------------------------------------------------
# Time-axis pooling
# ---------------------------------------------------------------------------

def subsample2(seq: np.ndarray) -> np.ndarray:
    """Average neighboring frame pairs; an odd trailing frame passes through.

    Output length is ceil(T/2).
    """
    seq = as_f64(seq)
    t_len = seq.shape[0]
    if t_len < 1:
        raise ValueError("subsample2 needs at least one frame")
    pairs = t_len // 2
    head = 0.5 * (seq[0:2 * pairs:2] + seq[1:2 * pairs:2])
    if t_len % 2:
        return np.concatenate([head, seq[-1:]], axis=0)
    return head


def _subsample2_backward(d_out: np.ndarray, t_len: int) -> np.ndarray:
    pairs = t_len // 2
    d_in = np.zeros((t_len,) + d_out.shape[1:])
    d_in[: 2 * pairs] = np.repeat(0.5 * d_out[:pairs], 2, axis=0)
    if t_len % 2:
        d_in[-1] += d_out[-1]
    return d_in


def _add_upsampled(total: np.ndarray, seq: np.ndarray, k: int) -> None:
    """total += seq with each frame of seq replicated over the 2^k frames
    of total it summarizes, in place and without a full-length copy.

    ``total`` must be C-contiguous: the spans are a reshaped view of it.
    """
    span = 2 ** k
    whole = total.shape[0] // span
    spans = total[:whole * span].reshape((whole, span) + total.shape[1:])
    spans += seq[:whole, None]
    if total.shape[0] % span:
        total[whole * span:] += seq[whole]


def _upsample_k_backward(d_out: np.ndarray, source_t: int, k: int) -> np.ndarray:
    bounds = np.arange(source_t) * (2 ** k)
    return np.add.reduceat(d_out, bounds, axis=0)


# ---------------------------------------------------------------------------
# Full encoder
# ---------------------------------------------------------------------------

@dataclass
class LayerTrace:
    fwd: GruRunTrace
    bwd: Optional[GruRunTrace] = None


@dataclass
class EncoderTrace:
    """Everything the encoder backward pass needs."""

    input_length: int
    layer_traces: list[LayerTrace] = field(default_factory=list)


def _layer_backward(layer: EncoderLayer, trace: LayerTrace, d_out: np.ndarray,
                    need_dx: bool, grads: EncoderLayer) -> Optional[np.ndarray]:
    if layer.bwd is None:
        return _gru_bptt(layer.fwd, trace.fwd, d_out, need_dx, grads.fwd)
    h_dim = layer.fwd.hidden
    dxf = _gru_bptt(layer.fwd, trace.fwd, d_out[:, :, :h_dim], need_dx, grads.fwd)
    dxb = _gru_bptt(layer.bwd, trace.bwd, d_out[::-1, :, h_dim:], need_dx,
                    grads.bwd)
    if need_dx:
        dxf += dxb[::-1]
    return dxf


def _check_batch(config: EncoderConfig, layers: list[EncoderLayer],
                 xs: np.ndarray) -> np.ndarray:
    xs = as_f64(xs)
    if len(layers) != config.layers:
        raise ValueError(f"expected {config.layers} layers, got {len(layers)}")
    if xs.ndim != 3 or xs.shape[2] != config.input_dim:
        raise ValueError(
            f"input has shape {xs.shape}, encoder expects (T, B, {config.input_dim})"
        )
    if xs.shape[0] < 1 or xs.shape[1] < 1:
        raise ValueError("need at least one frame and one sequence")
    return xs


def _run_encoder(config: EncoderConfig, layers: list[EncoderLayer],
                 xs: np.ndarray, trace: Optional[EncoderTrace]) -> np.ndarray:
    """The encoder's layer loop over a checked (T, B, d) batch; appends
    each layer's trace to ``trace`` when one is given.

    Each directional run writes its states into its half of the layer
    output (the backward run through a time-reversed view), and each
    layer's input is dropped once its output is built, unless the trace
    holds it.
    """
    t_len, batch = xs.shape[:2]
    h_dim = config.hidden
    keep = trace is not None
    total = None
    seq = xs
    for depth, layer in enumerate(layers):
        out = np.empty((seq.shape[0], batch, config.output_dim))
        fwd = _gru_run(layer.fwd, seq, out[:, :, :h_dim], keep)
        bwd = None if layer.bwd is None else _gru_run(
            layer.bwd, seq[::-1], out[::-1, :, h_dim:], keep)
        if keep:
            trace.layer_traces.append(LayerTrace(fwd, bwd))
        if config.kind == "multiresolution":
            out = subsample2(out)
            if total is None:  # not before the first full-length output is freed
                total = np.zeros((t_len, batch, config.output_dim))
            # Layer at this depth has been pooled depth+1 times in total.
            _add_upsampled(total, out, depth + 1)
        seq = out
    return seq if total is None else total


def encoder_forward(config: EncoderConfig, layers: list[EncoderLayer],
                    xs: np.ndarray) -> tuple[np.ndarray, EncoderTrace]:
    """Encode a time-major (T, B, d) batch of equal-length sequences into
    (T, B, output_dim) frame features with one recurrence per layer and
    direction, keeping the trace that encoder_backward needs."""
    xs = _check_batch(config, layers, xs)
    trace = EncoderTrace(input_length=xs.shape[0])
    return _run_encoder(config, layers, xs, trace), trace


def encode(config: EncoderConfig, layers: list[EncoderLayer],
           xs: np.ndarray) -> np.ndarray:
    """Forward-only encoder_forward: the same (T, B, output_dim) features
    of a (T, B, d) batch, with no trace."""
    return _run_encoder(config, layers, _check_batch(config, layers, xs), None)


def encoder_backward(config: EncoderConfig, layers: list[EncoderLayer],
                     trace: EncoderTrace, d_hs: np.ndarray) -> np.ndarray:
    """Gradient of all layer parameters given d(loss)/d(encoder output)
    of shape (T, B, output_dim), summed over the batch, as one
    (config.param_count,) vector in layer_views order.

    Consumes the trace: each layer's activations are released as soon as
    its BPTT is done, so a batch never holds the deeper layers'
    activations while the first layer runs.
    """
    grad = np.empty(config.param_count)
    grads = layer_views(config, grad)
    d = d_hs  # on the top layer's output, then on each layer's input
    for i in range(len(layers) - 1, -1, -1):
        ltr = trace.layer_traces.pop()
        if config.kind == "multiresolution":
            # The layer's pooled output feeds the sum and the next layer.
            t_layer = ltr.fwd.hs.shape[0]
            d_sub = _upsample_k_backward(d_hs, (t_layer + 1) // 2, i + 1)
            if i < len(layers) - 1:
                d_sub += d
            d = _subsample2_backward(d_sub, t_layer)
        d = _layer_backward(layers[i], ltr, d, i > 0, grads[i])
    return grad
