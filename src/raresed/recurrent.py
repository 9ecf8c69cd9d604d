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

The steps compute sigmoid(a) as tanh(a / 2) / 2 + 1/2, where a / 2 is
made exactly from halved update/reset projections and maps, and the
state update as h_t = h_{t-1} + z_t * (c_t - h_{t-1}); both round
differently from the forms above, within a few units in the last place.

Sequences run time-major in batches: the encoder takes (T, B, d) arrays
of B equal-length sequences. Each layer is one run of its D directions
(D = 2 in a bidirectional encoder and in a multiresolution one with
``multires_bidirectional``, else 1) stepped together in one time
loop over a stacked (D, B, H) state: direction 1 runs over the
time-reversed input, and each step does one matmul per recurrent
product over the stacked (D, H, 2H) and (D, H, H) maps, which numpy runs
as one gemm per direction, so each direction keeps its own sums. A
unidirectional layer runs the same code with the direction axis dropped.

A layer keeps its gates in two dense buffers, update/reset rows
(..., B, 2H) and candidate rows (..., B, H), so that the gate rows a
time step reads and writes, forward and in BPTT, are contiguous blocks;
only the update and reset halves of a (B, 2H) row are strided views.
Each direction's input projection is one (rows, 3H) gemm, made into a
scratch buffer and copied out into the two. A traced run keeps each
direction's buffers side by side in one row of T*B*3H values, where
BPTT, once its carry loop is done, writes the (T, B, 3H) gradient rows
that the input-side gradients read. A trace-free run keeps its buffers
step-major, (n, D, B, .), so that one step of all D directions is one
dense block.

Training and inference share one forward pass, which takes an optional
trace:

* ``encoder_forward`` runs it with a trace, which keeps every activation
  that exact backpropagation through time needs; ``encoder_backward``
  consumes it, stepping each layer's directions back in one loop, and
  returns the parameter gradients, summed over the batch, as one flat
  vector laid out like the parameters (see ``layer_views``).
* ``encode`` runs it without one, for inference, and returns only the
  frame logits w . h_t for the classifier w, which is all the detector's
  head reads: both its posteriors are sigmoids of logits. The input
  projections are made a block of steps at a time and nothing is kept;
  a unidirectional or bidirectional top layer reduces each block of
  states with w and never holds its output, and a multiresolution
  encoder sums the upsampled logits of each layer's pooled output.
  ``encode_bytes`` gives the bytes one sequence adds to such a pass.
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

    @property
    def cells(self) -> tuple[GruLayerParams, ...]:
        """The layer's cells in direction order: forward, then backward."""
        return (self.fwd,) if self.bwd is None else (self.fwd, self.bwd)


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
        for cell in layer.cells:
            s_in, s_h = 1.0 / np.sqrt(cell.input_dim), 1.0 / np.sqrt(cell.hidden)
            cell.W[:] = rng.uniform(-s_in, s_in, size=cell.W.shape)
            cell.U[:] = rng.uniform(-s_h, s_h, size=cell.U.shape)
            cell.b[:] = 0.0


# ---------------------------------------------------------------------------
# Layer runs: the D directions of a layer step together
# ---------------------------------------------------------------------------

@dataclass
class LayerTrace:
    """Activations of one layer run over a batch, time-major. Direction k
    of the layer's D directions is in its own time order: direction 1 runs
    over reversed time.

    Row k of ``gates`` holds direction k's gate activations as two dense
    blocks (see _gate_views): its update/reset rows (T, B, 2H), then its
    candidate rows (T, B, H). BPTT reuses the row for the direction's
    (T, B, 3H) gradient rows once it no longer needs the activations.
    """

    inputs: np.ndarray  # (T, B, D_in), in input time order
    hs: np.ndarray      # (D, T, B, H)
    gates: np.ndarray   # (D, T*B*3H)


def _gate_views(block: np.ndarray, t_len: int, batch: int,
                h_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The update/reset (D, T, B, 2H) and candidate (D, T, B, H) views of
    a (D, T*B*3H) gate block: each direction's row holds its update/reset
    rows, then its candidate rows."""
    n_dir, split = block.shape[0], t_len * batch * 2 * h_dim
    return (block[:, :split].reshape(n_dir, t_len, batch, 2 * h_dim),
            block[:, split:].reshape(n_dir, t_len, batch, h_dim))


def _stack_maps(maps: list[np.ndarray]) -> np.ndarray:
    """One map per cell as one C-contiguous array: stacked (D, m, n) when
    D = 2, and the cell's own (m, n) map when D = 1, so that a one-cell
    layer steps plain (B, H) arrays. Both give the same bits: each
    direction's product runs on the same contiguous operands."""
    return np.ascontiguousarray(maps[0] if len(maps) == 1 else np.stack(maps))


def _steps(a: np.ndarray) -> np.ndarray:
    """A (D, T, ...) array as views indexed by time step: (T, D, ...), or
    (T, ...) when D = 1, matching the maps of _stack_maps."""
    return a[0] if a.shape[0] == 1 else a.swapaxes(0, 1)


def _matmul(state: np.ndarray):
    """The product a step loop uses on ``state``: np.dot for a plain
    (B, H) state, where it costs less per call than np.matmul, which a
    stacked (D, B, H) state needs."""
    return np.dot if state.ndim == 2 else np.matmul


def _gru_steps(maps: tuple[np.ndarray, np.ndarray], zr: np.ndarray,
               c: np.ndarray, h: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """Step a layer's cells, with ``maps`` their transposed recurrent
    maps (see _stack_maps), the (D, H, 2H) update/reset one halved and
    the (D, H, H) candidate one, from the state ``h``. ``zr`` (D, n, B, 2H)
    and ``c`` (D, n, B, H) hold the input projections plus biases, the
    update/reset ones halved (see _project).

    Step t overwrites its rows of ``zr`` and ``c`` with the gate
    activations and writes its states to ``hs[:, t]`` (``hs`` is
    (D, n, B, H)); returns the last state. Each step does one (B, 2H)
    gate product and one (B, H) candidate product per direction, each one
    call over the stacked directions, and twelve numpy calls in all: the
    gates are sigmoid(a) = tanh(a / 2) / 2 + 1/2 of the halved
    pre-activation, and the state is h + z (c - h).
    """
    u_zr, u_h = maps
    h_dim = u_h.shape[-1]
    mm = _matmul(h)
    zr, c, hs = _steps(zr), _steps(c), _steps(hs)
    for zr_t, z, r, c_t, h_out in zip(zr, zr[..., :h_dim], zr[..., h_dim:], c, hs):
        a = zr_t + mm(h, u_zr)
        np.tanh(a, out=a)
        a *= 0.5
        np.add(a, 0.5, out=zr_t)
        np.tanh(c_t + mm(r * h, u_h), out=c_t)
        h = np.add(h, z * (c_t - h), out=h_out)
    return h


def _project(cells: tuple[GruLayerParams, ...], xs: np.ndarray, t0: int,
             zr: np.ndarray, c: np.ndarray, scratch: np.ndarray) -> None:
    """Fill ``zr`` (D, n, B, 2H) and ``c`` (D, n, B, H) with the input
    projections plus biases of run steps t0..t0+n-1, the update and reset
    ones halved for _gru_steps: direction 0 reads ``xs`` forward in time,
    direction 1 backward. Each direction's projection is one (n*B, 3H)
    gemm into ``scratch``, whose columns are then copied into the two
    buffers. Halving is exact, so the halved pre-activation is bit for
    bit half of the whole one."""
    n, batch = zr.shape[1:3]
    rows, zr_cols = n * batch, zr.shape[3]
    for k, cell in enumerate(cells):
        block = (xs if k == 0 else xs[::-1])[t0:t0 + n]
        projected = np.matmul(block.reshape(rows, -1), cell.W.T, out=scratch[:rows])
        projected += cell.b
        projected = projected.reshape(n, batch, -1)
        zr[k] = projected[..., :zr_cols]
        c[k] = projected[..., zr_cols:]
    zr *= 0.5


# Time steps whose input projections a trace-free run computes at once,
# so it never holds a whole-sequence (D, T, B, 3H) buffer.
PROJECTION_BLOCK = 16


def _layer_run(cells: tuple[GruLayerParams, ...], xs: np.ndarray, keep: bool,
               w: Optional[np.ndarray] = None) -> tuple[np.ndarray, Optional[LayerTrace]]:
    """Run a layer's D cells over a (T, B, D_in) batch of equal-length
    float64 sequences, each from a zero initial state, in one time loop.
    Returns the (T, B, D*H) layer output, with direction 1's half in
    input time order, and with ``keep`` the layer's trace.

    With ``keep``, the input projections of every step are made at once
    and the gate activations overwrite them in place, in the trace's
    direction-major gate block. For D = 1 the states are the output; for
    D = 2 they are kept contiguous and in run order, as BPTT's
    weight-gradient matmuls need, and copied into the two halves of the
    output. Without ``keep``, projections are made PROJECTION_BLOCK steps
    at a time into step-major buffers, where one step of the D directions
    is one dense (D, B, .) block, and nothing is kept. Given the
    classifier ``w`` (D*H,) as well, it returns the (T, B) logits
    h_t . w in place of the output, which it never allocates: each
    block's states are reduced with their direction's half of ``w``.
    """
    t_len, batch, _ = xs.shape
    n_dir, h_dim = len(cells), cells[0].hidden
    maps = (_stack_maps([0.5 * cell.U[:2 * h_dim].T for cell in cells]),
            _stack_maps([cell.U[2 * h_dim:].T for cell in cells]))
    h = np.zeros(maps[1].shape[:-2] + (batch, h_dim))
    if keep:
        out = np.empty((t_len, batch, n_dir * h_dim))
        gates = np.empty((n_dir, t_len * batch * 3 * h_dim))
        zr, c = _gate_views(gates, t_len, batch, h_dim)
        _project(cells, xs, 0, zr, c, np.empty((t_len * batch, 3 * h_dim)))
        hs = out[None] if n_dir == 1 else np.empty((n_dir, t_len, batch, h_dim))
        _gru_steps(maps, zr, c, h, hs)
        if n_dir == 2:
            out[:, :, :h_dim] = hs[0]
            out[:, :, h_dim:] = hs[1, ::-1]
        return out, LayerTrace(inputs=xs, hs=hs, gates=gates)
    size = min(t_len, PROJECTION_BLOCK)
    zr, c, states = (np.empty((size, n_dir, batch, width)).swapaxes(0, 1)
                     for width in (2 * h_dim, h_dim, h_dim))
    scratch = np.empty((size * batch, 3 * h_dim))
    out = np.empty((t_len, batch, n_dir * h_dim)) if w is None else np.zeros((t_len, batch))
    for t0 in range(0, t_len, PROJECTION_BLOCK):
        n = min(PROJECTION_BLOCK, t_len - t0)
        _project(cells, xs, t0, zr[:, :n], c[:, :n], scratch)
        # h is the previous block's last row of ``states``; step 0 reads
        # it before it writes row 0.
        h = _gru_steps(maps, zr[:, :n], c[:, :n], h, states[:, :n])
        for k in range(n_dir):
            # Direction 1's block holds input steps T-t0-n..T-t0-1, reversed.
            at = slice(t0, t0 + n) if k == 0 else slice(t_len - t0 - n, t_len - t0)
            rows = states[k, :n] if k == 0 else states[k, :n][::-1]
            if w is None:
                out[at, :, k * h_dim:(k + 1) * h_dim] = rows
            else:
                # Both directions add into zeros: s0 + s1 in either order.
                out[at] += rows @ w[k * h_dim:(k + 1) * h_dim]
    return out, None


def _gate_gradients(cells: tuple[GruLayerParams, ...], trace: LayerTrace,
                    d_out: np.ndarray,
                    grads: tuple[GruLayerParams, ...]) -> np.ndarray:
    """BPTT's time loop: writes the recurrent-map gradients into ``grads``
    and returns the gradients on the gate pre-activations as (D, T, B, 3H)
    rows in the trace's spent gate block. Its own buffers are freed on
    return, before the input-side gradients are made."""
    n_dir, t_len, batch, h_dim = trace.hs.shape
    u_zr = _stack_maps([cell.U[:2 * h_dim] for cell in cells])
    u_h = _stack_maps([cell.U[2 * h_dim:] for cell in cells])
    hs = trace.hs
    zr, cs = _gate_views(trace.gates, t_len, batch, h_dim)
    zs, rs = zr[..., :h_dim], zr[..., h_dim:]

    # Gradients on the update/reset and candidate pre-activations, laid
    # out like the trace's gates. The factors that do not depend on the
    # carry come first, once over the whole run: d_zr and d_c hold
    # (c - h_prev) z(1 - z), h_prev r(1 - r) and z(1 - c^2) until each
    # step scales its row into the gradient (h_prev is zero at step 0).
    # The trace's candidate rows end as r h_prev, which the gradient of
    # U_h reads, and its update rows as 1 - z, so that its update/reset
    # rows hold the direct carry factors [1 - z | r].
    d_zr, d_c = np.empty(zr.shape), np.empty(cs.shape)
    d_az, d_ar = d_zr[..., :h_dim], d_zr[..., h_dim:]
    np.multiply(cs, cs, out=d_c)
    np.subtract(1.0, d_c, out=d_c)
    d_c *= zs
    np.subtract(1.0, zr, out=d_zr)
    d_az *= zs
    np.subtract(cs[:, 1:], hs[:, :-1], out=cs[:, 1:])
    d_az *= cs
    r_h_prev = np.multiply(hs[:, :-1], rs[:, 1:], out=cs[:, 1:])
    d_ar[:, 1:] *= r_h_prev
    d_ar[:, 0] = 0.0
    np.subtract(1.0, zs, out=zs)
    # Per-step views; each direction's output gradient in its run's time
    # order. dh and the reset path's d(r h_prev) sit side by side in dhr,
    # so that one multiply scales both gate rows and one the direct
    # carry terms: eight numpy calls a step. np.dot cannot write into the
    # strided half of dhr, so that product is always np.matmul.
    d_runs = d_out if n_dir == 1 else np.stack(
        [d_out[:, :, :h_dim], d_out[::-1, :, h_dim:]], axis=1)
    steps = zip(*(_steps(a)[::-1] for a in (zr, d_zr, d_c)), d_runs[::-1])
    dhr, direct = np.empty((2,) + u_h.shape[:-2] + (batch, 2 * h_dim))
    dh, drh = dhr[..., :h_dim], dhr[..., h_dim:]
    via_z, via_r = direct[..., :h_dim], direct[..., h_dim:]
    carry = np.zeros(dh.shape)
    mm = _matmul(carry)
    for zr_t, d_zr_t, d_c_t, d_run in steps:
        np.add(d_run, carry, out=dh)
        np.matmul(np.multiply(dh, d_c_t, out=d_c_t), u_h, out=drh)
        np.multiply(dhr, zr_t, out=direct)
        carry = np.add(via_z, via_r)
        carry += mm(np.multiply(dhr, d_zr_t, out=d_zr_t), u_zr)

    # One matmul over all T*B rows per map, stacked by sequence and then
    # summed over the batch, so no sum mixes sequences before the batch
    # sum. The maps skip step 0, whose previous state is zero.
    for k, grad in enumerate(grads):
        np.sum(d_c[k].transpose(1, 2, 0)[..., 1:] @ r_h_prev[k].transpose(1, 0, 2),
               axis=0, out=grad.U[2 * h_dim:])
        np.sum(d_zr[k].transpose(1, 2, 0)[..., 1:] @ hs[k, :-1].transpose(1, 0, 2),
               axis=0, out=grad.U[:2 * h_dim])
    # The activations are spent: the gradient rows take their place, in
    # the (T, B, 3H) rows the input-side gradients read.
    d_a = trace.gates.reshape(n_dir, t_len, batch, 3 * h_dim)
    d_a[..., :2 * h_dim] = d_zr
    d_a[..., 2 * h_dim:] = d_c
    return d_a


def _layer_bptt(cells: tuple[GruLayerParams, ...], trace: LayerTrace,
                d_out: np.ndarray, need_dx: bool,
                grads: tuple[GruLayerParams, ...]) -> Optional[np.ndarray]:
    """BPTT through one layer run over a batch, its D directions in one
    time loop.

    ``d_out`` is the loss gradient on the layer output (T, B, D*H).
    Writes the parameter gradients, summed over the batch, into the
    arrays of ``grads`` and returns the gradient on the layer input when
    requested. Consumes the trace: it overwrites the gate block.

    No product or sum mixes sequences before the batch sum, so a
    sequence's share is the same bits in every batch of two or more
    wherever BLAS rounds a row of a product alike whatever the row
    count: OpenBLAS does at small widths, but may switch gemm kernels
    with the matrix size, and runs the one-row products of a batch of
    one as gemv, which rounds differently.
    """
    d_a = _gate_gradients(cells, trace, d_out, grads)
    n_dir, t_len, batch, g = d_a.shape
    # Each input-side gradient is one matmul over all T*B gradient rows of
    # a direction, as each direction's input projection was one gemm.
    for k, grad in enumerate(grads):
        # Direction 1 ran over reversed time; BLAS needs positive strides.
        inputs = np.ascontiguousarray(trace.inputs[::1 if k == 0 else -1])
        np.sum(d_a[k].transpose(1, 2, 0) @ inputs.transpose(1, 0, 2), axis=0,
               out=grad.W)
        np.sum(d_a[k].sum(axis=0), axis=0, out=grad.b)
    if not need_dx:
        return None
    rows = t_len * batch
    dx = (d_a[0].reshape(rows, g) @ cells[0].W).reshape(t_len, batch, -1)
    if n_dir == 2:
        # Direction 1's share goes into the spent d_a of direction 0: above
        # the first layer D_in = 2H, which fits in its 3H columns.
        spent = d_a[0].reshape(-1)[:dx.size].reshape(rows, -1)
        dxb = np.matmul(d_a[1].reshape(rows, g), cells[1].W, out=spent)
        dx += dxb.reshape(t_len, batch, -1)[::-1]
    return dx


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


def _pairwise_sum(a: np.ndarray) -> np.ndarray:
    """The sum over axis 1 of an (N, m, ...) array, m >= 1, in the order
    numpy's pairwise summation adds m terms: one after another below 8
    terms, in 8 interleaved partial sums up to 128, by halves beyond."""
    m = a.shape[1]
    if m < 8:
        total = a[:, 0] if m == 1 else a[:, 0] + a[:, 1]
        for i in range(2, m):
            total += a[:, i]
        return total
    if m <= 128:
        whole = m - m % 8
        p = a[:, :8].copy()
        for i in range(8, whole, 8):
            p += a[:, i:i + 8]
        total = ((p[:, 0] + p[:, 1]) + (p[:, 2] + p[:, 3])) + ((p[:, 4] + p[:, 5])
                                                               + (p[:, 6] + p[:, 7]))
        for i in range(whole, m):
            total += a[:, i]
        return total
    half = m // 2 - m // 2 % 8
    return _pairwise_sum(a[:, :half]) + _pairwise_sum(a[:, half:])


def _upsample_k_backward(d_out: np.ndarray, source_t: int, k: int) -> np.ndarray:
    """The gradient of _add_upsampled: d_out summed over each 2^k-frame
    span, the last span possibly shorter. Each span adds its first frame
    to the pairwise sum of the rest, as np.add.reduceat does, so the sums
    are its bits, with whole spans summed as one reshaped view."""
    span = 2 ** k
    whole = d_out.shape[0] // span
    d_in = np.empty((source_t,) + d_out.shape[1:])
    spans = d_out[:whole * span].reshape((whole, span) + d_out.shape[1:])
    np.add(spans[:, 0], _pairwise_sum(spans[:, 1:]), out=d_in[:whole])
    if source_t > whole:
        tail = d_out[whole * span:]
        d_in[whole] = tail[0] if len(tail) == 1 else tail[0] + _pairwise_sum(tail[None, 1:])[0]
    return d_in


# ---------------------------------------------------------------------------
# Full encoder
# ---------------------------------------------------------------------------

@dataclass
class EncoderTrace:
    """Everything the encoder backward pass needs."""

    input_length: int
    layer_traces: list[LayerTrace] = field(default_factory=list)


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
                 xs: np.ndarray, trace: Optional[EncoderTrace],
                 w: Optional[np.ndarray] = None) -> np.ndarray:
    """The encoder's layer loop over a checked (T, B, d) batch. With a
    trace, appends each layer's trace to it and returns the
    (T, B, output_dim) features; without one, returns the (T, B) frame
    logits of the classifier ``w``.

    Each layer is one run of its stacked directions, and each layer's
    input is dropped once its output is built, unless the trace holds it.
    """
    t_len, batch = xs.shape[:2]
    multires = config.kind == "multiresolution"
    total = None
    seq = xs
    for depth, layer in enumerate(layers):
        top = trace is None and not multires and depth == len(layers) - 1
        out, layer_trace = _layer_run(layer.cells, seq, trace is not None,
                                      w if top else None)
        if trace is not None:
            trace.layer_traces.append(layer_trace)
        if multires:
            out = subsample2(out)
            stream = out if trace is not None else out @ w
            if total is None:  # not before the first full-length output is freed
                total = np.zeros((t_len,) + stream.shape[1:])
            # Layer at this depth has been pooled depth+1 times in total.
            _add_upsampled(total, stream, depth + 1)
        seq = out
    return seq if total is None else total


def encoder_forward(config: EncoderConfig, layers: list[EncoderLayer],
                    xs: np.ndarray) -> tuple[np.ndarray, EncoderTrace]:
    """Encode a time-major (T, B, d) batch of equal-length sequences into
    (T, B, output_dim) frame features with one recurrence per layer,
    keeping the trace that encoder_backward needs."""
    xs = _check_batch(config, layers, xs)
    trace = EncoderTrace(input_length=xs.shape[0])
    return _run_encoder(config, layers, xs, trace), trace


def encode(config: EncoderConfig, layers: list[EncoderLayer], xs: np.ndarray,
           w: np.ndarray) -> np.ndarray:
    """The (T, B) frame logits h_t . w of a (T, B, d) batch, for the
    encoder_forward features h_t and the classifier ``w``
    (output_dim,), equal to rounding; forward only, with no trace."""
    w = as_f64(w)
    if w.shape != (config.output_dim,):
        raise ValueError(f"classifier has shape {w.shape}, encoder output "
                         f"needs ({config.output_dim},)")
    return _run_encoder(config, layers, _check_batch(config, layers, xs), None, w)


def encode_bytes(config: EncoderConfig, t_len: int) -> int:
    """The bytes one sequence of ``t_len`` frames adds to an encode batch:
    its input frames, the layer outputs live at once (a layer's input and
    output in a stack of three or more; the first layer's output and its
    pooled output in a multiresolution stack), its logits, and its share
    of a layer run's PROJECTION_BLOCK-step buffers and of one step's
    temporaries."""
    h_dim, dirs, width = config.hidden, config.directions, config.output_dim
    if config.kind == "multiresolution":
        outputs = (t_len + (t_len + 1) // 2) * width
    else:
        outputs = min(config.layers - 1, 2) * t_len * width
    widest_input = max(config.input_dim, width if config.layers > 1 else 0)
    # A block step: update/reset, candidate and state rows per direction,
    # one direction's projection scratch, direction 1's time-reversed copy
    # of its input and the block's logits. Per direction, up to 6H values
    # of the products of two steps: a step makes its gate sums before the
    # last step's are dropped.
    blocks = (min(t_len, PROJECTION_BLOCK)
              * (4 * dirs * h_dim + 3 * h_dim + (dirs - 1) * widest_input + 1)
              + 6 * dirs * h_dim)
    return 8 * (t_len * config.input_dim + outputs + t_len + blocks)


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
            t_layer = ltr.inputs.shape[0]
            d_sub = _upsample_k_backward(d_hs, (t_layer + 1) // 2, i + 1)
            if i < len(layers) - 1:
                d_sub += d
            d = _subsample2_backward(d_sub, t_layer)
            del d_sub  # not held through the layer's BPTT
        d = _layer_bptt(layers[i].cells, ltr, d, i > 0, grads[i].cells)
    return grad
