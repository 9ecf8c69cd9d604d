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

A layer run, traced or not, is one time loop over blocks of
PROJECTION_BLOCK steps. A block's input projections plus biases go into
two dense gate buffers, update/reset rows (..., B, 2H) and candidate
rows (..., B, H), so that the gate rows a time step reads and writes,
forward and in BPTT, are contiguous blocks; only the update and reset
halves of a (B, 2H) row are strided views. The block's states go into a
block buffer and from there into the layer output. A traced run keeps
each direction's gates side by side in one row of T*B*3H values. BPTT's
carry loop writes each step's update/reset gradient row over the
update/reset row it has just read, and once the recurrent-map gradients
are made, interleaves those rows in place with the candidate gradients
into the (T, B, 3H) rows that the input-side gradients read. So the one
whole-run buffer BPTT adds to a direction is its candidate gradient
plane, H values a step. A traced run keeps its states once, as the layer
output, which is also the next layer's input. BPTT runs a layer's
directions one after another, so that only one direction's candidate
gradient plane exists at a time; it reads direction 1's states and
output gradient as time-reversed views and writes into neither. A
trace-free run's gate buffers hold one block, step-major, (n, D, B, .),
so that one step of all D directions is one dense block.

Training and inference share one forward pass, which takes an optional
trace:

* ``encoder_forward`` runs it with a trace, which keeps every activation
  that exact backpropagation through time needs; ``encoder_backward``
  consumes it, stepping each layer's directions back one at a time, and
  returns the parameter gradients, summed over the batch, as one flat
  vector laid out like the parameters (see ``layer_views``). It takes
  the loss gradient on the encoder output in either of two forms: a
  dense (T, B, output_dim) array, or the factors (g, w) of the rank-one
  gradient g_t w that the detector's head gives, whose products a top
  layer forms a block of steps at a time where its BPTT reads them.
* ``encode`` runs it without one, for inference, and returns only the
  frame logits w . h_t for the classifier w, which is all the detector's
  head reads: both its posteriors are sigmoids of logits. Nothing is
  kept: a unidirectional or bidirectional top layer reduces each block of
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
            object.__setattr__(self, name, int(value))  # a plain int, which JSON can write
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
        dirs, h = self.directions, self.hidden
        return dirs * 3 * h * ((self.input_dim + h + 1)
                               + (self.layers - 1) * (dirs * h + h + 1))


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

    The states are kept once, as the layer output ``out``, which is also
    the next layer's ``inputs``: direction k's states are its k-th
    H-column half, in input time order, so BPTT reads direction 1's
    as a time-reversed view.

    Row k of ``gates`` holds direction k's gate activations as two dense
    blocks (see _gate_views): its update/reset rows (T, B, 2H), then its
    candidate rows (T, B, H), filled a block of steps at a time. BPTT
    writes each step's update/reset gradients over the step's
    update/reset row once it has read it, and then rebuilds the whole row
    in place as the direction's (T, B, 3H) gradient rows (see
    _gate_gradients).
    """

    inputs: np.ndarray  # (T, B, D_in), in input time order
    out: np.ndarray     # (T, B, D*H), in input time order
    gates: np.ndarray   # (D, T*B*3H)


def _gate_views(block: np.ndarray, t_len: int, batch: int,
                h_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The update/reset (..., T, B, 2H) and candidate (..., T, B, H) views
    of a (..., T*B*3H) gate block, a (D, .) block or one direction's row:
    each row holds its update/reset rows, then its candidate rows."""
    lead, split = block.shape[:-1], t_len * batch * 2 * h_dim
    return (block[..., :split].reshape(lead + (t_len, batch, 2 * h_dim)),
            block[..., split:].reshape(lead + (t_len, batch, h_dim)))


def _stack_maps(maps: list[np.ndarray]) -> np.ndarray:
    """One map per cell as one C-contiguous array: stacked (D, m, n) when
    D = 2, and the cell's own (m, n) map when D = 1, so that a one-cell
    layer steps plain (B, H) arrays. Both give the same bits: each
    direction's product runs on the same contiguous operands."""
    return np.ascontiguousarray(maps[0] if len(maps) == 1 else np.stack(maps))


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
    pre-activation, and the state is h + z (c - h). The ufuncs are bound
    to locals and write their temporaries into three buffers made once,
    with ``out`` passed positionally, which costs less per call. A
    one-cell layer steps plain (B, H) arrays with np.dot, which costs
    less per call than the np.matmul a stacked (D, B, H) state needs.
    """
    u_zr, u_h = maps
    h_dim = u_h.shape[-1]
    mm, add, multiply, subtract, tanh = (np.dot if h.ndim == 2 else np.matmul, np.add,
                                         np.multiply, np.subtract, np.tanh)
    # Views indexed by time step: (n, D, ...), or (n, ...) when D = 1.
    zr, c, hs = (a[0] if len(a) == 1 else a.swapaxes(0, 1) for a in (zr, c, hs))
    a, rh, ch = np.empty(zr.shape[1:]), np.empty(h.shape), np.empty(h.shape)
    for zr_t, z, r, c_t, h_out in zip(zr, zr[..., :h_dim], zr[..., h_dim:], c, hs):
        add(zr_t, mm(h, u_zr, a), a)
        tanh(a, a)
        multiply(a, 0.5, a)
        add(a, 0.5, zr_t)
        tanh(add(c_t, mm(multiply(r, h, rh), u_h, ch), ch), c_t)
        h = add(h, multiply(z, subtract(c_t, h, ch), ch), h_out)
    return h


# Time steps whose input projections a layer run makes at once, traced or
# not: no run holds a whole-run projection, and training projects as inference does.
PROJECTION_BLOCK = 16


def _project(w_in: np.ndarray, b_in: np.ndarray, xs: np.ndarray, t0: int,
             zr: np.ndarray, c: np.ndarray, scratch: np.ndarray) -> None:
    """Fill ``zr`` (D, n, B, 2H) and ``c`` (D, n, B, H) with the input
    projections plus biases of run steps t0..t0+n-1, for the stacked
    input maps ``w_in`` (D, 3H, D_in) and biases ``b_in`` (D, 3H) with
    their update/reset rows halved: direction 0 reads ``xs`` forward in
    time, direction 1 backward. Per direction, one gemm into ``scratch``
    projects the PROJECTION_BLOCK run steps that end at step t0+n-1 (or
    the whole run, if shorter), so that a short last block has a full
    block's rows: OpenBLAS rounds a row differently in a product of few
    rows (gemv for one; with D_in >= 32 a small-matrix kernel up to 1200
    outputs) or in one split by gate block. The biases are added in
    place and the block's rows copied out, direction 1's reversed."""
    n_dir, n, batch, zr_cols = zr.shape
    t_len = xs.shape[0]
    start = max(0, min(t0, t_len - PROJECTION_BLOCK))
    rows = (t0 + n - start) * batch
    for k in range(n_dir):
        # Direction 1's steps start..t0+n-1 are input steps T-t0-n..T-start-1, reversed.
        steps = xs[start:t0 + n] if k == 0 else xs[t_len - t0 - n:t_len - start]
        projected = np.matmul(steps.reshape(rows, -1), w_in[k].T, out=scratch[:rows])
        projected += b_in[k]
        projected = projected.reshape(-1, batch, w_in.shape[1])
        if k == 1:
            projected = projected[::-1]
        zr[k] = projected[t0 - start:, :, :zr_cols]
        c[k] = projected[t0 - start:, :, zr_cols:]


def _layer_run(cells: tuple[GruLayerParams, ...], xs: np.ndarray, keep: bool,
               w: Optional[np.ndarray] = None) -> tuple[np.ndarray, Optional[LayerTrace]]:
    """Run a layer's D cells over a (T, B, D_in) batch of equal-length
    float64 sequences, each from a zero initial state, in one time loop
    over blocks of PROJECTION_BLOCK steps. Returns the (T, B, D*H) layer
    output, with direction 1's half in input time order, and with
    ``keep`` the layer's trace.

    A block's gate activations overwrite its input projections: with
    ``keep`` in the block's rows of the trace's gate block, else in
    step-major block buffers. Its states are copied into each
    direction's half of the output. Given the classifier ``w`` (D*H,) as
    well, they are reduced with their direction's half of ``w`` into the
    (T, B) logits h_t . w, returned in place of the output, which is
    never allocated.
    """
    t_len, batch, _ = xs.shape
    n_dir, h_dim = len(cells), cells[0].hidden
    # The update/reset rows of the input maps and biases are halved once,
    # so that their projections are the halved pre-activations _gru_steps
    # takes; halving is exact, so each is bit for bit half the whole one.
    w_in = np.array([cell.W for cell in cells])
    b_in = np.array([cell.b for cell in cells])
    w_in[:, :2 * h_dim] *= 0.5
    b_in[:, :2 * h_dim] *= 0.5
    maps = (_stack_maps([0.5 * cell.U[:2 * h_dim].T for cell in cells]),
            _stack_maps([cell.U[2 * h_dim:].T for cell in cells]))
    h = np.zeros(maps[1].shape[:-2] + (batch, h_dim))
    size = min(t_len, PROJECTION_BLOCK)
    if keep:
        gates = np.empty((n_dir, t_len * batch * 3 * h_dim))
        zr, c = _gate_views(gates, t_len, batch, h_dim)
    else:
        zr, c = (np.empty((size, n_dir, batch, width)).swapaxes(0, 1)
                 for width in (2 * h_dim, h_dim))
    states = np.empty((size, n_dir, batch, h_dim)).swapaxes(0, 1)
    scratch = np.empty((size * batch, 3 * h_dim))
    out = np.empty((t_len, batch, n_dir * h_dim)) if w is None else np.zeros((t_len, batch))
    for t0 in range(0, t_len, PROJECTION_BLOCK):
        n = min(PROJECTION_BLOCK, t_len - t0)
        steps = slice(t0, t0 + n) if keep else slice(n)
        _project(w_in, b_in, xs, t0, zr[:, steps], c[:, steps], scratch)
        # h is the previous block's last row of ``states``; step 0 reads
        # it before it writes row 0.
        h = _gru_steps(maps, zr[:, steps], c[:, steps], h, states[:, :n])
        for k in range(n_dir):
            # Direction 1's block holds input steps T-t0-n..T-t0-1, reversed.
            at = slice(t0, t0 + n) if k == 0 else slice(t_len - t0 - n, t_len - t0)
            rows = states[k, :n] if k == 0 else states[k, :n][::-1]
            if w is None:
                out[at, :, k * h_dim:(k + 1) * h_dim] = rows
            else:
                # Both directions add into zeros: s0 + s1 in either order.
                out[at] += rows @ w[k * h_dim:(k + 1) * h_dim]
    return out, LayerTrace(inputs=xs, out=out, gates=gates) if keep else None


def _gate_gradients(cell: GruLayerParams, gates: np.ndarray, hs: np.ndarray,
                    d_run, grad: GruLayerParams) -> np.ndarray:
    """BPTT's time loop for one direction of a layer run: ``gates`` is
    its row of the trace's gate block, and ``hs`` its states (T, B, H)
    in its run's time order (for direction 1, a time-reversed view of
    the layer output). ``d_run``, only read, is its output gradient in
    the same order: a (T, B, H) array, or the factors (g (T, B), w (H,))
    of the rank-one gradient g_t w, whose products the carry loop forms
    PROJECTION_BLOCK steps at a time. Writes the recurrent-map gradients
    into ``grad`` and returns the gradients on the gate pre-activations
    as (T, B, 3H) rows in the spent gate row. Its one whole-run buffer,
    the candidate gradient plane (T, B, H), and its block-sized scratch
    are freed on return, before the input-side gradients are made."""
    t_len, batch, h_dim = hs.shape
    u_zr = np.ascontiguousarray(cell.U[:2 * h_dim])
    u_h = np.ascontiguousarray(cell.U[2 * h_dim:])
    zr, cs = _gate_views(gates, t_len, batch, h_dim)
    zs, rs = zr[..., :h_dim], zr[..., h_dim:]

    # The factors that do not depend on the carry come first. d_c holds
    # z(1 - c^2) over the whole run until each step scales its row into
    # the candidate gradient. A block's update/reset factors
    # (c - h_prev) z(1 - z) and h_prev r(1 - r) go into ``zr_block`` just
    # before its steps (h_prev is zero at step 0). The block's candidate
    # rows end as r h_prev, which the gradient of U_h reads, and its
    # update rows as 1 - z, so that its update/reset rows hold the direct
    # carry factors [1 - z | r] that each step reads before it writes its
    # update/reset gradient row there.
    d_c = np.empty(cs.shape)
    np.multiply(cs, cs, out=d_c)
    np.subtract(1.0, d_c, out=d_c)
    d_c *= zs
    size = min(t_len, PROJECTION_BLOCK)
    zr_block = np.empty((size, batch, 2 * h_dim))
    # Per-step views. dh and the reset path's d(r h_prev) sit side by side
    # in dhr, so that one multiply scales both gate rows and one the
    # direct carry terms: eight numpy calls a step. np.dot cannot write
    # into the strided half of dhr, so that product is np.matmul.
    # The ufuncs are bound to locals and take ``out`` positionally, and
    # the carry and its recurrent product have buffers of their own.
    dhr, direct = np.empty((2, batch, 2 * h_dim))
    dh, drh = dhr[:, :h_dim], dhr[:, h_dim:]
    via_z, via_r = direct[:, :h_dim], direct[:, h_dim:]
    carry, via_u = np.zeros(dh.shape), np.empty(dh.shape)
    add, multiply, subtract, matmul, dot = (np.add, np.multiply, np.subtract,
                                            np.matmul, np.dot)
    factors = isinstance(d_run, tuple)
    if factors:
        g_run, w_run = d_run
        d_rows = np.empty((size, batch, h_dim))
    for t0 in reversed(range(0, t_len, PROJECTION_BLOCK)):
        n = min(PROJECTION_BLOCK, t_len - t0)
        steps = slice(t0, t0 + n)
        # Step t's previous state is hs[t - 1]; step 0 has none, so the
        # rows from ``skip`` on are those of steps with one.
        skip = 0 if t0 else 1
        prev, f, z, c = hs[t0 + skip - 1:t0 + n - 1], zr_block[:n], zs[steps], cs[steps]
        f_z, f_r, c_prev = f[..., :h_dim], f[..., h_dim:], c[skip:]
        subtract(1.0, zr[steps], f)
        multiply(f_z, z, f_z)
        subtract(c_prev, prev, c_prev)
        multiply(f_z, c, f_z)
        multiply(prev, rs[t0 + skip:t0 + n], c_prev)
        multiply(f_r[skip:], c_prev, f_r[skip:])
        if skip:
            f_r[0] = 0.0
        subtract(1.0, z, z)
        if factors:
            # The products g_t w_j, one rounding each, as a dense gradient holds them.
            d_steps = multiply(g_run[steps, :, None], w_run, d_rows[:n])
        else:
            d_steps = d_run[steps]
        for zr_t, f_t, d_c_t, d_run_t in zip(zr[steps][::-1], f[::-1],
                                             d_c[steps][::-1], d_steps[::-1]):
            add(d_run_t, carry, dh)
            matmul(multiply(dh, d_c_t, d_c_t), u_h, drh)
            multiply(dhr, zr_t, direct)
            add(via_z, via_r, carry)
            add(carry, dot(multiply(dhr, f_t, zr_t), u_zr, via_u), carry)

    # One matmul over all T*B rows per map, stacked by sequence and then
    # summed over the batch, so no sum mixes sequences before the batch
    # sum. The maps skip step 0, whose previous state is zero.
    np.add.reduce(d_c.transpose(1, 2, 0)[..., 1:] @ cs[1:].transpose(1, 0, 2),
                  0, out=grad.U[2 * h_dim:])
    states = hs[:-1]
    if states.strides[0] < 0:
        # BLAS needs positive strides: direction 1's states go into its
        # candidate rows, spent once the gradient of U_h has read them.
        cs[:-1] = states
        states = cs[:-1]
    np.add.reduce(zr.transpose(1, 2, 0)[..., 1:] @ states.transpose(1, 0, 2),
                  0, out=grad.U[:2 * h_dim])
    # The gradient rows take the place of the spent gates, interleaved
    # into the (T, B, 3H) rows the input-side gradients read. Row t moves
    # from value 2tBH to 3tBH, so, taken from the last block back, no row
    # is overwritten before it has moved; a block of n rows from step t0
    # overlaps its own destination when t0 < 2n, and moves through the
    # scratch.
    d_a = gates.reshape(t_len, batch, 3 * h_dim)
    for t0 in reversed(range(0, t_len, PROJECTION_BLOCK)):
        steps = slice(t0, t0 + PROJECTION_BLOCK)
        rows = zr[steps]
        if t0 < 2 * len(rows):
            zr_block[:len(rows)] = rows
            rows = zr_block[:len(rows)]
        d_a[steps, :, :2 * h_dim] = rows
        d_a[steps, :, 2 * h_dim:] = d_c[steps]
    return d_a


def _layer_bptt(cells: tuple[GruLayerParams, ...], trace: LayerTrace,
                d_out, need_dx: bool,
                grads: tuple[GruLayerParams, ...]) -> Optional[np.ndarray]:
    """BPTT through one layer run over a batch, one direction at a time,
    so that only one direction's candidate gradient plane exists at once.

    ``d_out`` is the loss gradient on the layer output, which is only
    read: a (T, B, D*H) array, or the factors (g (B, T), w (D*H,)) of the
    rank-one gradient g_t w (see encoder_backward). Writes the parameter
    gradients, summed over the batch, into the arrays of ``grads`` and
    returns the gradient on the layer input when requested. Consumes the
    trace: it overwrites the gate block.

    No product or sum mixes sequences before the batch sum, so a
    sequence's share is the same bits in every batch of two or more
    wherever BLAS rounds a row of a product alike whatever the row
    count: OpenBLAS does at small widths, but may switch gemm kernels
    with the matrix size, and runs the one-row products of a batch of
    one as gemv, which rounds differently.
    """
    t_len, batch = trace.inputs.shape[:2]
    h_dim = cells[0].hidden
    d_as = []
    for k, (cell, grad) in enumerate(zip(cells, grads)):
        # Direction k's run order: direction 1 ran over reversed time.
        run, cols = slice(None, None, 1 if k == 0 else -1), slice(k * h_dim, (k + 1) * h_dim)
        if isinstance(d_out, tuple):
            g, w = d_out
            d_run = (g.T[run], w[cols])
        else:
            d_run = d_out[run, :, cols]
        d_a = _gate_gradients(cell, trace.gates[k], trace.out[run, :, cols], d_run, grad)
        # The input map's gradient: one gemm per sequence, added in
        # sequence order onto zeros, as np.sum over a stack of them adds.
        # BLAS needs positive strides: each of direction 1's sequences is
        # copied in run order, one at a time.
        inputs, product = trace.inputs[run], np.empty(grad.W.shape)
        grad.W[:] = 0.0
        for b in range(batch):
            x = inputs[:, b] if k == 0 else np.ascontiguousarray(inputs[:, b])
            grad.W += np.matmul(d_a[:, b].T, x, out=product)
        np.add.reduce(np.add.reduce(d_a, 0), 0, out=grad.b)
        d_as.append(d_a)
    if not need_dx:
        return None
    rows, g = t_len * batch, 3 * h_dim
    dx = (d_as[0].reshape(rows, g) @ cells[0].W).reshape(t_len, batch, -1)
    if len(cells) == 2:
        # Direction 1's share goes into the spent d_a of direction 0: above
        # the first layer D_in = 2H, which fits in its 3H columns.
        spent = d_as[0].reshape(-1)[:dx.size].reshape(rows, -1)
        dxb = np.matmul(d_as[1].reshape(rows, g), cells[1].W, out=spent)
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
    """The gradient of subsample2: half of each pooled frame's gradient to
    both frames of its pair, written through a (pairs, 2, ...) view."""
    pairs = t_len // 2
    d_in = np.empty((t_len,) + d_out.shape[1:])
    np.multiply(d_out[:pairs, None], 0.5,
                out=d_in[:2 * pairs].reshape((pairs, 2) + d_out.shape[1:]))
    if t_len % 2:
        # 0.0 + g, as a zero-filled d_in took it: a -0.0 gradient turns to 0.0.
        np.add(d_out[-1], 0.0, out=d_in[-1])
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


def _upsample_k_backward(d_out: np.ndarray, source_t: int, k: int,
                         out: Optional[np.ndarray] = None) -> np.ndarray:
    """The gradient of _add_upsampled: d_out summed over each 2^k-frame
    span, the last span possibly shorter, into ``out`` if given. Each span
    adds its first frame to the pairwise sum of the rest, as
    np.add.reduceat does, so the sums are its bits, with whole spans
    summed as one reshaped view."""
    span = 2 ** k
    whole = d_out.shape[0] // span
    d_in = np.empty((source_t,) + d_out.shape[1:]) if out is None else out
    spans = d_out[:whole * span].reshape((whole, span) + d_out.shape[1:])
    np.add(spans[:, 0], _pairwise_sum(spans[:, 1:]), out=d_in[:whole])
    if source_t > whole:
        tail = d_out[whole * span:]
        d_in[whole] = tail[0] if len(tail) == 1 else tail[0] + _pairwise_sum(tail[None, 1:])[0]
    return d_in


def _stream_backward(d_hs, source_t: int, k: int) -> np.ndarray:
    """The gradient on a multiresolution layer's pooled output, of
    ``source_t`` frames, from the encoder output gradient ``d_hs`` in
    either form (see encoder_backward): its sum over each 2^k-frame span.
    From the factors, the products g_t w are formed PROJECTION_BLOCK
    spans at a time; spans are summed independently, so the blocks keep
    the bits of one whole-run sum."""
    if not isinstance(d_hs, tuple):
        return _upsample_k_backward(d_hs, source_t, k)
    g, w = d_hs[0].T, d_hs[1]
    span = 2 ** k
    products = np.empty((min(len(g), PROJECTION_BLOCK * span),) + g.shape[1:] + w.shape)
    d_in = np.empty((source_t,) + products.shape[1:])
    for s0 in range(0, source_t, PROJECTION_BLOCK):
        rows, block = g[s0 * span:(s0 + PROJECTION_BLOCK) * span], d_in[s0:s0 + PROJECTION_BLOCK]
        # The products g_t w_j, one rounding each, as a dense gradient holds them.
        part = np.multiply(rows[:, :, None], w, out=products[:len(rows)])
        _upsample_k_backward(part, len(block), k, block)
    return d_in


# ---------------------------------------------------------------------------
# Full encoder
# ---------------------------------------------------------------------------

@dataclass
class EncoderTrace:
    """Everything the encoder backward pass needs, and the input length,
    which the benchmark's flop count reads (``bench/layers.py``)."""

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
    # A block step: update/reset, candidate and state rows per direction,
    # one direction's projection scratch and the block's logits. Per
    # direction, up to 6H values of the products of two steps: a step
    # makes its gate sums before the last step's are dropped.
    blocks = (min(t_len, PROJECTION_BLOCK) * (4 * dirs * h_dim + 3 * h_dim + 1)
              + 6 * dirs * h_dim)
    return 8 * (t_len * config.input_dim + outputs + t_len + blocks)


def encoder_backward(config: EncoderConfig, layers: list[EncoderLayer],
                     trace: EncoderTrace, d_hs) -> np.ndarray:
    """Gradient of all layer parameters given d(loss)/d(encoder output),
    summed over the batch, as one (config.param_count,) vector in
    layer_views order.

    ``d_hs``, which is only read, takes one of two forms: a dense
    (T, B, output_dim) array, or the factors (g, w) of the rank-one
    gradient d(loss)/dh_t = g_t w that the detector's head gives, g
    (B, T) and w (output_dim,). From the factors, a unidirectional or
    bidirectional top layer forms the products g_t w where its BPTT
    reads them, a block of steps at a time, and a multiresolution
    encoder forms them a block of each layer's spans at a time, to sum
    the spans (see _stream_backward). Either way each entry is the one
    product g_t w_j, so both forms give the same bits.

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
            d_sub = _stream_backward(d_hs, (t_layer + 1) // 2, i + 1)
            if i < len(layers) - 1:
                d_sub += d
            d = _subsample2_backward(d_sub, t_layer)
            del d_sub  # not held through the layer's BPTT
        d = _layer_bptt(layers[i].cells, ltr, d, i > 0, grads[i].cells)
    return grad
