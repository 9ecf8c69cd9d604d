"""Command-line interface: synth, train, infer, eval, sweep.

Configuration is one JSON file (optionally starting from a named preset)
with flag overrides on top; flags win. Every command writes exactly one
manifest.json next to its outputs recording the resolved configuration,
and all files are written atomically (temp file + rename).

Exit codes: 0 success, 2 input/config error, 3 data-consistency error.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
import time
from typing import Optional

from . import __version__
from .data import SynthConfig, load_dataset, save_dataset, synth_dataset
from .detector import infer
from .errors import DataMismatchError, InputError
from .metrics import (
    check_seconds,
    detection_to_annotation,
    evaluate_annotations,
    format_annotations,
    read_annotations,
)
from .recurrent import EncoderConfig
from .train import (
    TrainConfig,
    alpha_sweep,
    best_model,
    format_report,
    load_model,
    reference_annotations,
    save_model,
    train,
)

DEFAULT_ALPHA_GRID = (0.1, 0.5, 1.0, 5.0, 10.0)

PRESETS: dict[str, dict] = {
    # Desk scale: trains in minutes on one CPU core; the committed seed
    # and event-to-background ratio make the set clearly separable.
    "desk": {
        "data": {
            "train_count": 300, "dev_count": 100, "frames": 150, "dim": 16,
            "positive_fraction": 0.5, "ebr_db": [12.0],
            "duration_frames": [20, 40], "background_seed": 0, "seed": 7,
        },
        "train": {
            "alpha": 1.0, "batch_size": 10, "stepsize": 0.002, "epochs": 15,
            "seed": 7, "thres0": 0.5, "thres1": 0.5, "margin": 50,
            "encoder": {"kind": "multiresolution", "layers": 2, "hidden": 32,
                        "multires_bidirectional": False},
        },
        "eval": {"collar_s": 0.5, "frame_shift_s": 0.023},
    },
    # Full-scale recipe, at the paper's DCASE 2017 Task 2 scale. Datasets
    # stream from disk, so memory is set by one 4x256 minibatch: at these
    # shapes one epoch on 100 or on 400 training clips peaked at 433 MB.
    "fullscale": {
        "data": {
            "train_count": 15000, "dev_count": 500, "frames": 1304, "dim": 64,
            "positive_fraction": 0.5, "ebr_db": [-6.0, 0.0, 6.0],
            "duration_frames": [22, 109], "background_seed": 0, "seed": 7,
        },
        "train": {
            "alpha": 1.0, "batch_size": 10, "stepsize": 0.0001, "epochs": 15,
            "seed": 7, "thres0": 0.5, "thres1": 0.5, "margin": 50,
            "encoder": {"kind": "multiresolution", "layers": 4, "hidden": 256,
                        "multires_bidirectional": False},
        },
        "eval": {"collar_s": 0.5, "frame_shift_s": 0.023},
    },
}


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

def _deep_merge(base: dict, over: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in over.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(path: Optional[str]) -> dict:
    """Read the JSON config, expanding a preset reference if present."""
    user: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                user = json.load(fh)
        except FileNotFoundError:
            raise InputError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise InputError(f"config file {path} is not valid JSON: {exc}")
        except UnicodeDecodeError as exc:
            raise InputError(f"config file {path} is not UTF-8 text: {exc}")
        if not isinstance(user, dict):
            raise InputError(f"config file {path} must hold a JSON object")
    preset_name = user.pop("preset", None)
    if preset_name is None:
        return user
    if preset_name not in PRESETS:
        raise InputError(
            f"unknown preset {preset_name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    return _deep_merge(PRESETS[preset_name], user)


_MISSING = object()


def _field(cfg: dict, dotted: str, kind: type, default=_MISSING):
    """The config value at ``dotted``, or ``default`` when it is absent
    (required without one), checked to be of type ``kind``: InputError
    naming the field otherwise. Nothing is coerced: an int or a float
    with an integral value serves for an int, any int or float for a
    float, and only true and false for a bool."""
    node = cfg
    for part in dotted.split("."):
        if not isinstance(node, dict):
            raise InputError(f"config field {dotted!r}: {node!r} is not an object")
        if part not in node:
            if default is _MISSING:
                raise InputError(f"config is missing required field {dotted!r}")
            return default
        node = node[part]
    return _checked(node, kind, dotted)


_KIND_NAMES = {int: "an integer", float: "a number", bool: "true or false",
               str: "a string", list: "a list"}


def _checked(value, kind: type, name: str):
    if kind is bool:
        ok = isinstance(value, bool)
    elif isinstance(value, bool):
        ok = False
    elif kind is int:
        ok = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    elif kind is float:
        ok = isinstance(value, (int, float))
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise InputError(f"config field {name!r} must be {_KIND_NAMES[kind]}, "
                         f"got {value!r}")
    try:
        value = kind(value)
    except OverflowError:
        raise InputError(f"config field {name!r} is out of range: {value!r}")
    # Integer settings are counts, sizes and seeds: 2**32 bounds each far
    # beyond any run, and every count and size fits the u32 fields of the
    # .sed layout.
    if kind is int and not -2**32 < value < 2**32:
        raise InputError(f"config field {name!r} is out of range: {value!r}")
    return value


def _synth_config(cfg: dict, which: str, seed_override: Optional[int]) -> SynthConfig:
    seed = seed_override if seed_override is not None else _field(cfg, "data.seed", int)
    ebr_db = _field(cfg, "data.ebr_db", list)
    duration = _field(cfg, "data.duration_frames", list)
    if len(duration) != 2:
        raise InputError(f"config field 'data.duration_frames' must hold two "
                         f"frame counts, got {duration!r}")
    return SynthConfig(
        count=_field(cfg, f"data.{which}_count", int),
        positive_fraction=_field(cfg, "data.positive_fraction", float),
        frames=_field(cfg, "data.frames", int),
        dim=_field(cfg, "data.dim", int),
        ebr_db=tuple(_checked(x, float, "data.ebr_db") for x in ebr_db),
        duration_frames=tuple(_checked(x, int, "data.duration_frames")
                              for x in duration),
        background_seed=_field(cfg, "data.background_seed", int, 0),
        seed=seed,
    )


def _train_config(cfg: dict, input_dim: int, args) -> TrainConfig:
    def flag_or_field(name: str, kind: type):
        value = getattr(args, name, None)
        return value if value is not None else _field(cfg, f"train.{name}", kind)

    try:
        encoder = EncoderConfig(
            kind=_field(cfg, "train.encoder.kind", str),
            layers=_field(cfg, "train.encoder.layers", int),
            hidden=_field(cfg, "train.encoder.hidden", int),
            input_dim=input_dim,
            multires_bidirectional=_field(
                cfg, "train.encoder.multires_bidirectional", bool, False),
        )
    except ValueError as exc:
        raise InputError(f"bad train configuration: {exc}")
    return TrainConfig(
        encoder=encoder,
        alpha=_field(cfg, "train.alpha", float),
        batch_size=_field(cfg, "train.batch_size", int),
        stepsize=_field(cfg, "train.stepsize", float),
        epochs=_field(cfg, "train.epochs", int),
        seed=flag_or_field("seed", int),
        thres0=flag_or_field("thres0", float),
        thres1=flag_or_field("thres1", float),
        margin=_field(cfg, "train.margin", int),
        collar_s=_field(cfg, "eval.collar_s", float, 0.5),
        frame_shift_s=_field(cfg, "eval.frame_shift_s", float, 0.023),
    )


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

def _write_text_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _save_atomic(path: str, saver):
    tmp = path + ".tmp"
    result = saver(tmp)
    os.replace(tmp, path)
    return result


def _write_manifest(out_dir: str, command: str, config: dict, inputs: dict,
                    outputs: dict, seed, started: float) -> str:
    manifest = {
        "command": command,
        "config": config,
        "inputs": inputs,
        "outputs": outputs,
        "seed": seed,
        "artifact_version": __version__,
        "duration_s": time.monotonic() - started,
    }
    path = os.path.join(out_dir, "manifest.json")
    _write_text_atomic(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _ensure_out_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    started = time.monotonic()
    cfg = load_config(args.config)
    out = _ensure_out_dir(args.out)
    train_cfg = _synth_config(cfg, "train", args.seed)
    dev_cfg = _synth_config(cfg, "dev", args.seed)
    frame_shift = check_seconds(
        _field(cfg, "eval.frame_shift_s", float, 0.023), "eval.frame_shift_s")

    # Dev indices continue after train so the substreams never collide.
    # Each utterance is generated, written and dropped; the reference
    # events come from the headers of the records written.
    datasets = {
        "train": synth_dataset(train_cfg, id_prefix="train", start_index=0),
        "dev": synth_dataset(dev_cfg, id_prefix="dev", start_index=train_cfg.count),
    }
    paths = {}
    for name, dataset in datasets.items():
        paths[name] = os.path.join(out, f"{name}.sed")
        paths[f"{name}_ref"] = os.path.join(out, f"{name}_ref.tsv")
        records = _save_atomic(paths[name], lambda p: save_dataset(p, dataset))
        _write_text_atomic(paths[f"{name}_ref"], format_annotations(
            reference_annotations(records, frame_shift)))
    resolved = dict(cfg)
    resolved["data"] = dict(cfg.get("data", {}), seed=train_cfg.seed)
    manifest = _write_manifest(out, "synth", resolved, {"config": args.config},
                               paths, train_cfg.seed, started)
    print(f"wrote {train_cfg.count} train / {dev_cfg.count} dev utterances to {out}")
    print(f"manifest: {manifest}")
    return 0


def _load_train_dev(args):
    """Train and dev sets, rejected before training when they cannot be
    scored: an empty train set, or a dev set with no positive utterance
    (its error rate is undefined)."""
    trainset = load_dataset(args.train_data)
    devset = load_dataset(args.dev_data)
    if not trainset:
        raise InputError(f"{args.train_data} holds no utterances")
    if not any(utt.y == 1 for utt in devset):
        raise InputError(f"{args.dev_data} holds no positive utterances; "
                         f"the dev error rate is undefined without them")
    return trainset, devset


def cmd_train(args) -> int:
    started = time.monotonic()
    cfg = load_config(args.config)
    out = _ensure_out_dir(args.out)
    trainset, devset = _load_train_dev(args)
    tc = _train_config(cfg, trainset[0].dim, args)
    report = train(tc, trainset, devset)
    model = best_model(report)

    paths = {
        "model": os.path.join(out, "model.sem"),
        "report": os.path.join(out, "report.tsv"),
    }
    _save_atomic(paths["model"], lambda p: save_model(p, model, tc))
    _write_text_atomic(paths["report"], format_report(report))
    manifest = _write_manifest(
        out, "train", cfg,
        {"config": args.config, "train_data": args.train_data,
         "dev_data": args.dev_data},
        paths, tc.seed, started)
    if report.epochs:
        stats = report.epochs[report.best_epoch - 1]
        print(f"best epoch {report.best_epoch}: dev ER {stats.dev_er:.4f}, "
              f"dev F1 {stats.dev_f1:.2f}")
    else:
        print("epoch budget 0: keeping the initialized model")
    print(f"manifest: {manifest}")
    return 0


def cmd_infer(args) -> int:
    started = time.monotonic()
    out = _ensure_out_dir(args.out)
    for name in ("thres0", "thres1"):
        value = getattr(args, name)
        if value is not None and not 0.0 < value < 1.0:
            raise InputError(f"--{name} must lie strictly inside (0, 1), "
                             f"got {value!r}")
    frame_shift = check_seconds(args.frame_shift, "--frame-shift")
    model, header = load_model(args.model)
    thres0 = args.thres0 if args.thres0 is not None else \
        header.get("train", {}).get("thres0", 0.5)
    thres1 = args.thres1 if args.thres1 is not None else \
        header.get("train", {}).get("thres1", 0.5)

    dataset = load_dataset(args.data)
    found = infer(model, dataset, thres0, thres1)
    detections = {utt.id: detection_to_annotation(det, frame_shift)
                  for utt, det in zip(dataset, found)}
    det_path = os.path.join(out, "detections.tsv")
    _write_text_atomic(det_path, format_annotations(detections))
    manifest = _write_manifest(
        out, "infer",
        {"thres0": thres0, "thres1": thres1, "frame_shift_s": frame_shift},
        {"model": args.model, "data": args.data},
        {"detections": det_path}, header.get("train", {}).get("seed"), started)
    present = sum(1 for ann in detections.values() if ann is not None)
    print(f"{present}/{len(detections)} utterances flagged; wrote {det_path}")
    print(f"manifest: {manifest}")
    return 0


def cmd_eval(args) -> int:
    started = time.monotonic()
    collar = check_seconds(args.collar, "--collar")
    out = _ensure_out_dir(args.out)
    refs = read_annotations(args.ref)
    dets = read_annotations(args.det)
    try:
        er, f1, counts = evaluate_annotations(refs, dets, collar)
    except ValueError as exc:  # the reference holds no events
        raise InputError(f"{args.ref}: {exc}")
    table = (
        "metric\tvalue\n"
        f"er\t{er!r}\n"
        f"f1\t{f1!r}\n"
        f"tp\t{counts.tp}\n"
        f"insertions\t{counts.fp}\n"
        f"deletions\t{counts.fn}\n"
        f"n_ref\t{counts.n_ref}\n"
    )
    eval_path = os.path.join(out, "eval.tsv")
    _write_text_atomic(eval_path, table)
    manifest = _write_manifest(out, "eval", {"collar_s": collar},
                               {"ref": args.ref, "det": args.det},
                               {"eval": eval_path}, None, started)
    print(f"ER {er:.4f}  F1 {f1:.2f}  (TP {counts.tp}, I {counts.fp}, "
          f"D {counts.fn}, N {counts.n_ref})")
    print(f"manifest: {manifest}")
    return 0


def cmd_sweep(args) -> int:
    started = time.monotonic()
    cfg = load_config(args.config)
    out = _ensure_out_dir(args.out)
    if args.alpha_grid is not None:
        try:
            grid = [float(x) for x in args.alpha_grid.split(",") if x.strip()]
        except ValueError:
            raise InputError(f"bad --alpha-grid value {args.alpha_grid!r}")
        if not grid:
            raise InputError("--alpha-grid named no values")
    else:
        grid = list(DEFAULT_ALPHA_GRID)
    trainset, devset = _load_train_dev(args)
    tc = _train_config(cfg, trainset[0].dim, args)
    rows = alpha_sweep(tc, grid, trainset, devset)
    lines = ["alpha\tbest_epoch\tdev_er\tdev_f1"]
    for row in rows:
        lines.append(f"{row['alpha']!r}\t{row['best_epoch']}"
                     f"\t{row['dev_er']!r}\t{row['dev_f1']!r}")
    sweep_path = os.path.join(out, "sweep.tsv")
    _write_text_atomic(sweep_path, "\n".join(lines) + "\n")
    manifest = _write_manifest(
        out, "sweep", dict(cfg, alpha_grid=grid),
        {"config": args.config, "train_data": args.train_data,
         "dev_data": args.dev_data},
        {"sweep": sweep_path}, tc.seed, started)
    for row in rows:
        print(f"alpha {row['alpha']:g}: dev ER {row['dev_er']:.4f}, "
              f"dev F1 {row['dev_f1']:.2f} (epoch {row['best_epoch']})")
    print(f"manifest: {manifest}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raresed",
        description="Rare sound event detection: synthesize data, train, "
                    "infer, score, and sweep the loss weight.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--config", help="JSON config (may name a preset)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the data seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a detector")
    p.add_argument("--config", help="JSON config (may name a preset)")
    p.add_argument("--train-data", required=True)
    p.add_argument("--dev-data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, help="override the training seed")
    p.add_argument("--thres0", type=float)
    p.add_argument("--thres1", type=float)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="run detection with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--thres0", type=float)
    p.add_argument("--thres1", type=float)
    p.add_argument("--frame-shift", type=float, default=0.023,
                   help="seconds per frame hop for boundary conversion")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score detections against references")
    p.add_argument("--ref", required=True)
    p.add_argument("--det", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--collar", type=float, default=0.5,
                   help="onset tolerance in seconds")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="train once per loss-weight value")
    p.add_argument("--config", help="JSON config (may name a preset)")
    p.add_argument("--train-data", required=True)
    p.add_argument("--dev-data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha-grid", help="comma-separated weights, "
                   "default 0.1,0.5,1,5,10")
    p.add_argument("--seed", type=int)
    p.add_argument("--thres0", type=float)
    p.add_argument("--thres1", type=float)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: the settings or inputs need more memory than is free",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
