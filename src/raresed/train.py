"""Training loop: minibatched ADAM over the combined loss, per-epoch
development scoring, early stopping on dev error rate, and alpha sweeps.

Determinism contract: identical (config, data) yields a bit-identical
report. Initialization and epoch shuffling use separate substreams of
the config seed; the last partial minibatch is kept.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .data import Utterance
from .detector import (DEFAULT_WINDOW_MARGIN, Detection, EventModel,
                       batch_loss_and_gradients, infer)
from .errors import DataMismatchError, InputError, ParseError, open_input, write_atomic
from .metrics import (
    DEFAULT_COLLAR_S,
    DEFAULT_FRAME_SHIFT_S,
    EventAnnotation,
    MetricCounts,
    check_seconds,
    detection_to_annotation,
    evaluate_dataset,
)
from .numerics import AdamState, adam_step
from .recurrent import EncoderConfig

MODEL_MAGIC = b"RSEM"
MODEL_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    encoder: EncoderConfig
    alpha: float = 1.0
    batch_size: int = 10
    stepsize: float = 1e-4
    epochs: int = 15
    seed: int = 0
    thres0: float = 0.5
    thres1: float = 0.5
    margin: int = DEFAULT_WINDOW_MARGIN
    collar_s: float = DEFAULT_COLLAR_S
    frame_shift_s: float = DEFAULT_FRAME_SHIFT_S

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise InputError(f"alpha must be finite and nonnegative, "
                             f"got {self.alpha!r}")
        if not (math.isfinite(self.stepsize) and self.stepsize > 0):
            raise InputError(f"stepsize must be finite and positive, "
                             f"got {self.stepsize!r}")
        if self.batch_size < 1:
            raise InputError("minibatch size must be at least 1")
        if self.encoder.param_count >= 2**32:
            raise InputError(f"an encoder of {self.encoder.param_count} "
                             f"parameters is too large (2**32 or more)")
        if self.seed < 0:
            raise InputError(f"seed must be nonnegative, got {self.seed!r}")
        if self.margin < 0:
            raise InputError("frame-window margin must be nonnegative")
        if self.epochs < 0:
            raise InputError("epoch budget must be nonnegative")
        if not (0.0 < self.thres0 < 1.0 and 0.0 < self.thres1 < 1.0):
            raise InputError("thresholds thres0 and thres1 must lie strictly "
                             "inside (0, 1)")
        check_seconds(self.collar_s, "collar")
        check_seconds(self.frame_shift_s, "frame shift")


@dataclass(frozen=True)
class EpochStats:
    train_loss: float
    dev_er: float
    dev_f1: float


@dataclass
class TrainReport:
    config: TrainConfig
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0  # 1-based; 0 when no epoch ran
    best_params: Optional[np.ndarray] = None


def reference_annotations(dataset: Sequence[Utterance],
                          frame_shift_s: float = DEFAULT_FRAME_SHIFT_S) -> dict[str, Optional[EventAnnotation]]:
    """Per-utterance reference events in seconds, from the event
    boundaries, converted as detections are."""
    return {utt.id: detection_to_annotation(
                Detection(utt.y == 1, utt.onset, utt.offset), frame_shift_s)
            for utt in dataset}


def evaluate_model(model: EventModel, dataset: Sequence[Utterance],
                   thres0: float, thres1: float,
                   frame_shift_s: float = DEFAULT_FRAME_SHIFT_S,
                   collar_s: float = DEFAULT_COLLAR_S) -> tuple[float, float, MetricCounts]:
    """Run inference over a dataset and score against its own labels."""
    detections = dict(zip((utt.id for utt in dataset),
                          infer(model, dataset, thres0, thres1)))
    refs = reference_annotations(dataset, frame_shift_s)
    return evaluate_dataset(refs, detections, frame_shift_s, collar_s)


def train(config: TrainConfig, trainset: Sequence[Utterance],
          devset: Sequence[Utterance]) -> TrainReport:
    """Minibatched ADAM with per-epoch dev scoring and early stopping.

    The returned snapshot is from the epoch with the lowest dev ER
    (earliest on ties); with an epoch budget of 0 it is the initialized
    model. From a loaded `.sed`, features are read one minibatch, or one
    dev slice, at a time.
    """
    if not trainset or not devset:
        raise InputError("train and dev sets must be nonempty")
    if not any(utt.y == 1 for utt in devset):
        raise InputError("dev set holds no positive utterances, so its error "
                         "rate is undefined")
    _check_dims(config.encoder, trainset, "train")
    _check_dims(config.encoder, devset, "dev")

    model = EventModel.initialize(config.encoder,
                                  _substream_seed(config.seed, 0))
    adam = AdamState.fresh(model.param_count, stepsize=config.stepsize)
    shuffle_rng = np.random.default_rng(
        np.random.SeedSequence(config.seed, spawn_key=(1,)))

    report = TrainReport(config=config, best_params=model.flatten())
    best_er = np.inf
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(len(trainset))
        loss_sum = 0.0
        for b_start in range(0, len(order), config.batch_size):
            batch = [trainset[i] for i in order[b_start:b_start + config.batch_size]]
            loss, grad = batch_loss_and_gradients(model, batch, config.alpha,
                                                  config.margin)
            if not np.isfinite(loss):
                raise InputError(
                    f"non-finite loss at epoch {epoch}, batch "
                    f"{b_start // config.batch_size + 1}: training diverged; "
                    f"check train.stepsize ({config.stepsize!r}), train.alpha "
                    f"({config.alpha!r}) and the input features")
            loss_sum += loss * len(batch)
            adam_step(model.params, grad, adam)
        dev_er, dev_f1, _ = evaluate_model(model, devset, config.thres0,
                                           config.thres1, config.frame_shift_s,
                                           config.collar_s)
        report.epochs.append(EpochStats(train_loss=loss_sum / len(trainset),
                                        dev_er=dev_er, dev_f1=dev_f1))
        if dev_er < best_er:
            best_er = dev_er
            report.best_epoch = epoch
            report.best_params = model.flatten()
    return report


def best_model(report: TrainReport) -> EventModel:
    return EventModel(report.config.encoder, report.best_params.copy())


def alpha_sweep(config: TrainConfig, grid: Sequence[float],
                trainset: Sequence[Utterance],
                devset: Sequence[Utterance]) -> list[dict]:
    """Train one model per alpha from identical initialization.

    Returns rows {alpha, best_epoch, dev_er, dev_f1} sorted by alpha.
    """
    if not grid:
        raise InputError("alpha grid must be nonempty")
    # Every setting is checked before the first model trains.
    configs = [replace(config, alpha=float(alpha)) for alpha in sorted(grid)]
    rows = []
    for cfg in configs:
        report = train(cfg, trainset, devset)
        stats = report.epochs[report.best_epoch - 1]
        rows.append({"alpha": cfg.alpha, "best_epoch": report.best_epoch,
                     "dev_er": stats.dev_er, "dev_f1": stats.dev_f1})
    return rows


def _substream_seed(seed: int, key: int) -> int:
    # EventModel.initialize takes a plain seed; derive one per purpose.
    return int(np.random.SeedSequence(seed, spawn_key=(key,)).generate_state(1)[0])


def _check_dims(encoder: EncoderConfig, dataset: Sequence[Utterance],
                name: str) -> None:
    for utt in dataset:
        if utt.dim != encoder.input_dim:
            raise DataMismatchError(
                f"{name} utterance {utt.id} has {utt.dim}-dim features, "
                f"encoder expects {encoder.input_dim}"
            )


# ---------------------------------------------------------------------------
# Model snapshots.
#
# Byte layout: magic "RSEM" | u32 version | u32 header length | header
# (UTF-8 JSON: encoder config, seed, training hyperparameters) |
# u64 parameter count | EventModel.params as float64 little-endian.
# ---------------------------------------------------------------------------

def save_model(path, model: EventModel, config: Optional[TrainConfig] = None) -> None:
    header = {
        "encoder": {
            "kind": model.config.kind,
            "layers": model.config.layers,
            "hidden": model.config.hidden,
            "input_dim": model.config.input_dim,
            "multires_bidirectional": model.config.multires_bidirectional,
        },
    }
    if config is not None:
        header["train"] = {
            "alpha": config.alpha, "batch_size": config.batch_size,
            "stepsize": config.stepsize, "epochs": config.epochs,
            "seed": config.seed, "thres0": config.thres0,
            "thres1": config.thres1, "margin": config.margin,
        }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with write_atomic(path) as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<II", MODEL_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        fh.write(struct.pack("<Q", model.params.size))
        fh.write(model.params.astype("<f8", copy=False).data)


def load_model(path) -> tuple[EventModel, dict]:
    with open_input(path) as fh:
        blob = fh.read()
    if blob[:4] != MODEL_MAGIC:
        raise ParseError(f"{path}: not a model snapshot")
    if len(blob) < 12:
        raise ParseError(f"{path}: file ends at byte {len(blob)}, inside the "
                         f"version and header-length words (bytes 4-11)")
    version, header_len = struct.unpack_from("<II", blob, 4)
    if version != MODEL_VERSION:
        raise ParseError(f"{path}: unsupported model version {version}")
    pos = 12 + header_len
    if len(blob) < pos + 8:
        raise ParseError(f"{path}: file ends at byte {len(blob)}, inside the "
                         f"header or parameter count (bytes 12-{pos + 7})")
    try:
        header = json.loads(blob[12:pos].decode("utf-8"))
        if not isinstance(header, dict):
            raise ValueError("header is not a JSON object")
        enc = header["encoder"]
        config = EncoderConfig(kind=enc["kind"], layers=enc["layers"],
                               hidden=enc["hidden"], input_dim=enc["input_dim"],
                               multires_bidirectional=enc["multires_bidirectional"])
        want = config.param_count + config.output_dim
        # Inference falls back on the saved thresholds.
        for name in ("thres0", "thres1"):
            if not 0.0 < header.get("train", {}).get(name, 0.5) < 1.0:
                raise ValueError(f"{name} must lie strictly inside (0, 1)")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: bad model header: {exc}")
    (count,) = struct.unpack_from("<Q", blob, pos)
    if count != want:
        raise ParseError(f"{path}: header promises {want} parameters, "
                         f"parameter count field says {count}")
    pos += 8
    if len(blob) < pos + count * 8:
        raise ParseError(f"{path}: truncated parameter block: {count} "
                         f"parameters promised, {(len(blob) - pos) // 8} present")
    if len(blob) > pos + count * 8:
        raise ParseError(f"{path}: trailing bytes after the parameter block "
                         f"(from byte {pos + count * 8})")
    params = np.frombuffer(blob, dtype="<f8", offset=pos).astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(params))
    if bad.size:
        raise ParseError(f"{path}: parameter {bad[0]} (bytes {pos + 8 * bad[0]}-"
                         f"{pos + 8 * bad[0] + 7}) is {params[bad[0]]!r}, not finite")
    return EventModel(config, params), header


# ---------------------------------------------------------------------------
# Train reports: tab-separated, one row per epoch.
# Columns: epoch, train_loss, dev_er, dev_f1, best (0/1 marker).
# ---------------------------------------------------------------------------

REPORT_HEADER = "epoch\ttrain_loss\tdev_er\tdev_f1\tbest"


def format_report(report: TrainReport) -> str:
    lines = [REPORT_HEADER]
    for i, stats in enumerate(report.epochs, start=1):
        best = 1 if i == report.best_epoch else 0
        lines.append(f"{i}\t{stats.train_loss!r}\t{stats.dev_er!r}"
                     f"\t{stats.dev_f1!r}\t{best}")
    return "\n".join(lines) + "\n"

