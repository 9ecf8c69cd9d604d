"""Which program functions the traced run wraps, and the per-layer
metrics computed from their spans.

Spans are installed on the module attribute each caller looks the
function up by (``from .x import f`` binds ``f`` in the importing
module). Figures with a ``_s`` suffix are self times, except the
``cli.<command>_s`` figures, which are whole command times;
``cli.self_s`` is what the commands spend outside every other span
(configuration, manifests and atomic writes).

Set-up figures (``data.synth_s``, ``data.sed_write_s``,
``data.sed_bytes_written``, ``cli.synth_s``) cover one set-up; every
other figure is the mean over the traced rounds.
"""

from __future__ import annotations

import math
import os

from spans import Tracer


def _gru_dims(config, t_len: int):
    """(frames, input width) seen by each layer of the encoder."""
    for i in range(config.layers):
        yield t_len, config.layer_input_dim(i)
        if config.kind == "multiresolution":
            t_len = math.ceil(t_len / 2)


def gru_flops(config, t_len: int, backward: bool) -> int:
    """Matmul flops of one encoder pass over ``t_len`` frames, computed
    from the shapes (2 flops per multiply-add).

    Forward, per layer and direction: the input projection (T, D) x
    (D, 3H) and the recurrent products (3H x H per step). Backward: the
    recurrent products again, the weight gradients of W and U, and the
    input gradient for every layer but the first.
    """
    h = config.hidden
    total = 0
    for i, (t, d) in enumerate(_gru_dims(config, t_len)):
        if backward:
            per_dir = 2 * t * 3 * h * h + 2 * t * 3 * h * (d + h) + (2 * t * 3 * h * d if i else 0)
        else:
            per_dir = 2 * t * 3 * h * d + 2 * t * 3 * h * h
        total += config.directions * per_dir
    return total


def _count_forward(counts, result, config, layers, xs):
    counts["frames"] += xs.shape[0]
    counts["flops"] += gru_flops(config, xs.shape[0], backward=False)


def _count_backward(counts, result, config, layers, trace, d_hs):
    counts["flops"] += gru_flops(config, trace.input_length, backward=True)


def _count_with_flat(counts, result, model, vec):
    counts["bytes"] += 8 * len(vec)


def _count_file(counts, result, path, *rest):
    counts["bytes"] += os.path.getsize(path)


# (module, attribute, span, counter)
SPANS = [
    ("raresed.detector", "encoder_forward", "recurrent.forward", _count_forward),
    ("raresed.detector", "encoder_backward", "recurrent.backward", _count_backward),
    ("raresed.detector", "decide_detection", "detector.decide", None),
    ("raresed.detector", "batch_loss_and_gradients", "detector.loss_grad", None),
    ("raresed.detector", "EventModel.with_flat", "detector.with_flat", _count_with_flat),
    ("raresed.train", "batch_loss_and_gradients", "detector.loss_grad", None),
    ("raresed.train", "adam_step", "numerics.adam", None),
    ("raresed.train", "infer", "detector.infer", None),
    ("raresed.train", "evaluate_model", "train.dev_eval", None),
    ("raresed.cli", "infer", "detector.infer", None),
    ("raresed.cli", "train", "train.loop", None),
    ("raresed.cli", "synth_dataset", "data.synth", None),
    ("raresed.cli", "save_dataset", "data.sed_write", _count_file),
    ("raresed.cli", "load_dataset", "data.sed_read", _count_file),
    ("raresed.cli", "save_model", "train.model_io", None),
    ("raresed.cli", "load_model", "train.model_io", None),
    ("raresed.cli", "read_annotations", "metrics.eval", None),
    ("raresed.cli", "evaluate_annotations", "metrics.eval", None),
] + [("raresed.cli", f"cmd_{c}", f"cli.{c}", None) for c in ("synth", "train", "infer", "eval")]

# (metric, span, snapshot key, unit)
ROUND_METRICS = [
    ("recurrent.forward_s", "recurrent.forward", "self_s", "s"),
    ("recurrent.forward.calls", "recurrent.forward", "calls", "count"),
    ("recurrent.forward.frames", "recurrent.forward", "frames", "count"),
    ("recurrent.backward_s", "recurrent.backward", "self_s", "s"),
    ("recurrent.backward.calls", "recurrent.backward", "calls", "count"),
    ("detector.loss_grad.calls", "detector.loss_grad", "calls", "count"),
    ("detector.with_flat_s", "detector.with_flat", "self_s", "s"),
    ("detector.with_flat.calls", "detector.with_flat", "calls", "count"),
    ("detector.with_flat.bytes", "detector.with_flat", "bytes", "B"),
    ("detector.decide_s", "detector.decide", "self_s", "s"),
    ("detector.decide.calls", "detector.decide", "calls", "count"),
    ("numerics.adam_s", "numerics.adam", "self_s", "s"),
    ("numerics.adam.calls", "numerics.adam", "calls", "count"),
    ("train.dev_eval_s", "train.dev_eval", "self_s", "s"),
    ("train.loop_s", "train.loop", "self_s", "s"),
    ("train.model_io_s", "train.model_io", "self_s", "s"),
    ("data.sed_read_s", "data.sed_read", "self_s", "s"),
    ("data.sed_bytes_read", "data.sed_read", "bytes", "B"),
    ("metrics.eval_s", "metrics.eval", "self_s", "s"),
    ("cli.train_s", "cli.train", "total_s", "s"),
    ("cli.infer_s", "cli.infer", "total_s", "s"),
    ("cli.eval_s", "cli.eval", "total_s", "s"),
]
SETUP_METRICS = [
    ("data.synth_s", "data.synth", "self_s", "s"),
    ("data.sed_write_s", "data.sed_write", "self_s", "s"),
    ("data.sed_bytes_written", "data.sed_write", "bytes", "B"),
    ("cli.synth_s", "cli.synth", "total_s", "s"),
]


def install(tracer: Tracer | None = None) -> Tracer:
    tracer = tracer or Tracer()
    for module, attr, span, count in SPANS:
        tracer.wrap(module, attr, span, count)
    return tracer


def per_layer(setup: dict, final: dict, rounds: int) -> dict:
    """Per-layer metrics from the snapshots taken after set-up and at the
    end of a traced run with ``rounds`` traced rounds."""
    def at(snapshot: dict, span: str, key: str) -> float:
        return snapshot.get(span, {}).get(key, 0)

    def per_round(span: str, key: str) -> float:
        value = (at(final, span, key) - at(setup, span, key)) / rounds
        # Counts of identical rounds divide exactly.
        return int(value) if not key.endswith("_s") and value.is_integer() else value

    out = {name: {"value": at(setup, span, key), "unit": unit}
           for name, span, key, unit in SETUP_METRICS}
    out.update({name: {"value": per_round(span, key), "unit": unit}
                for name, span, key, unit in ROUND_METRICS})

    fwd_s = per_round("recurrent.forward", "self_s")
    gru_s = fwd_s + per_round("recurrent.backward", "self_s")
    frames = per_round("recurrent.forward", "frames")
    flops = per_round("recurrent.forward", "flops") + per_round("recurrent.backward", "flops")
    out["recurrent.forward.us_per_frame"] = {
        "value": 1e6 * fwd_s / frames if frames else 0.0, "unit": "us"}
    out["recurrent.gflop_per_s"] = {
        "value": flops / gru_s / 1e9 if gru_s else 0.0, "unit": "GFLOP/s"}
    out["detector.head_s"] = {
        "value": per_round("detector.loss_grad", "self_s")
        + per_round("detector.infer", "self_s"), "unit": "s"}
    out["cli.self_s"] = {
        "value": sum(per_round(f"cli.{c}", "self_s") for c in ("train", "infer", "eval")),
        "unit": "s"}
    return out
