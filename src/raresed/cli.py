"""Command-line interface: synth, train, infer, eval, sweep.

Configuration is one JSON file (optionally starting from a named preset);
each override flag is written into its config field, so flags win and are
checked like file values. Every command writes exactly one manifest.json
next to its outputs recording the resolved configuration, and all files
are written atomically (temp file + rename).

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
from .errors import DataMismatchError, InputError, open_input, write_atomic
from .metrics import (
    DEFAULT_COLLAR_S,
    DEFAULT_FRAME_SHIFT_S,
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
            with open_input(path, "r", encoding="utf-8") as fh:
                user = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"config file {path} is not valid JSON: {exc}")
        except UnicodeDecodeError as exc:
            raise InputError(f"config file {path} is not UTF-8 text: {exc}")
        if not isinstance(user, dict):
            raise InputError(f"config file {path} must hold a JSON object")
    preset_name = user.pop("preset", None)
    if preset_name is None:
        return user
    if _checked(preset_name, str, "preset") not in PRESETS:
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


def _resolved_config(args) -> dict:
    """The loaded config with each override flag written into the field
    its argparse ``dest`` names (``data.seed``, ``train.thres0``, ...)."""
    cfg = load_config(args.config)
    for dotted, value in vars(args).items():
        if "." in dotted and value is not None:
            section, name = dotted.split(".")
            node = cfg.setdefault(section, {})
            if not isinstance(node, dict):
                raise InputError(f"config field {dotted!r}: {node!r} is not an object")
            node[name] = value
    return cfg


def _synth_config(cfg: dict, which: str) -> SynthConfig:
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
        seed=_field(cfg, "data.seed", int),
    )


def _train_config(cfg: dict, input_dim: int) -> TrainConfig:
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
        seed=_field(cfg, "train.seed", int),
        thres0=_field(cfg, "train.thres0", float),
        thres1=_field(cfg, "train.thres1", float),
        margin=_field(cfg, "train.margin", int),
        collar_s=_field(cfg, "eval.collar_s", float, DEFAULT_COLLAR_S),
        frame_shift_s=_field(cfg, "eval.frame_shift_s", float, DEFAULT_FRAME_SHIFT_S),
    )


# ---------------------------------------------------------------------------
# Commands: each writes its outputs to ``paths`` and returns the config
# and seed its manifest records, and the summary to print.
# ---------------------------------------------------------------------------

def cmd_synth(args, paths: dict[str, str]):
    cfg = _resolved_config(args)
    train_cfg = _synth_config(cfg, "train")
    dev_cfg = _synth_config(cfg, "dev")
    frame_shift = check_seconds(
        _field(cfg, "eval.frame_shift_s", float, DEFAULT_FRAME_SHIFT_S),
        "eval.frame_shift_s")

    # Dev indices continue after train so the substreams never collide.
    # Each utterance is generated, written and dropped; the reference
    # events come from the headers of the records written.
    datasets = {
        "train": synth_dataset(train_cfg, id_prefix="train", start_index=0),
        "dev": synth_dataset(dev_cfg, id_prefix="dev", start_index=train_cfg.count),
    }
    for name, dataset in datasets.items():
        records = save_dataset(paths[name], dataset)
        with write_atomic(paths[f"{name}_ref"], "w", encoding="utf-8") as fh:
            fh.write(format_annotations(reference_annotations(records, frame_shift)))
    return cfg, train_cfg.seed, (f"wrote {train_cfg.count} train / {dev_cfg.count} "
                                 f"dev utterances to {args.out}")


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


def cmd_train(args, paths: dict[str, str]):
    cfg = _resolved_config(args)
    trainset, devset = _load_train_dev(args)
    tc = _train_config(cfg, trainset[0].dim)
    report = train(tc, trainset, devset)
    save_model(paths["model"], best_model(report), tc)
    with write_atomic(paths["report"], "w", encoding="utf-8") as fh:
        fh.write(format_report(report))
    if not report.epochs:
        return cfg, tc.seed, "epoch budget 0: keeping the initialized model"
    stats = report.epochs[report.best_epoch - 1]
    return cfg, tc.seed, (f"best epoch {report.best_epoch}: dev ER {stats.dev_er:.4f}, "
                          f"dev F1 {stats.dev_f1:.2f}")


def cmd_infer(args, paths: dict[str, str]):
    for name in ("thres0", "thres1"):
        value = getattr(args, name)
        if value is not None and not 0.0 < value < 1.0:
            raise InputError(f"--{name} must lie strictly inside (0, 1), "
                             f"got {value!r}")
    frame_shift = check_seconds(args.frame_shift, "--frame-shift")
    model, header = load_model(args.model)
    trained = header.get("train", {})
    thres0 = args.thres0 if args.thres0 is not None else trained.get("thres0", 0.5)
    thres1 = args.thres1 if args.thres1 is not None else trained.get("thres1", 0.5)

    dataset = load_dataset(args.data)
    found = infer(model, dataset, thres0, thres1)
    detections = {utt.id: detection_to_annotation(det, frame_shift)
                  for utt, det in zip(dataset, found)}
    with write_atomic(paths["detections"], "w", encoding="utf-8") as fh:
        fh.write(format_annotations(detections))
    present = sum(1 for ann in detections.values() if ann is not None)
    return ({"thres0": thres0, "thres1": thres1, "frame_shift_s": frame_shift},
            trained.get("seed"),
            f"{present}/{len(detections)} utterances flagged; wrote {paths['detections']}")


def cmd_eval(args, paths: dict[str, str]):
    collar = check_seconds(args.collar, "--collar")
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
    with write_atomic(paths["eval"], "w", encoding="utf-8") as fh:
        fh.write(table)
    return {"collar_s": collar}, None, (f"ER {er:.4f}  F1 {f1:.2f}  (TP {counts.tp}, "
                                        f"I {counts.fp}, D {counts.fn}, N {counts.n_ref})")


def cmd_sweep(args, paths: dict[str, str]):
    cfg = _resolved_config(args)
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
    tc = _train_config(cfg, trainset[0].dim)
    rows = alpha_sweep(tc, grid, trainset, devset)
    lines = ["alpha\tbest_epoch\tdev_er\tdev_f1"]
    for row in rows:
        lines.append(f"{row['alpha']!r}\t{row['best_epoch']}"
                     f"\t{row['dev_er']!r}\t{row['dev_f1']!r}")
    with write_atomic(paths["sweep"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return dict(cfg, alpha_grid=grid), tc.seed, "\n".join(
        f"alpha {row['alpha']:g}: dev ER {row['dev_er']:.4f}, "
        f"dev F1 {row['dev_f1']:.2f} (epoch {row['best_epoch']})" for row in rows)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# Per command: the files it writes under --out besides manifest.json, and
# the flags that name its input files.
COMMANDS = {
    "synth": ({"train": "train.sed", "train_ref": "train_ref.tsv",
               "dev": "dev.sed", "dev_ref": "dev_ref.tsv"}, ("config",)),
    "train": ({"model": "model.sem", "report": "report.tsv"},
              ("config", "train_data", "dev_data")),
    "infer": ({"detections": "detections.tsv"}, ("model", "data")),
    "eval": ({"eval": "eval.tsv"}, ("ref", "det")),
    "sweep": ({"sweep": "sweep.tsv"}, ("config", "train_data", "dev_data")),
}


def _run(args) -> None:
    """Make --out, run the command, then write its manifest and print its
    summary. An output name held by a directory is rejected before any
    work, so no run stops half written; a failed command removes the
    --out it made if that is still empty."""
    outputs, input_flags = COMMANDS[args.command]
    started = time.monotonic()
    made = not os.path.exists(args.out)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot make output directory {args.out}: {exc.strerror}")
    paths = {key: os.path.join(args.out, name) for key, name in outputs.items()}
    manifest_path = os.path.join(args.out, "manifest.json")
    for path in [*paths.values(), manifest_path]:
        if os.path.isdir(path):
            raise InputError(f"cannot write {path}: Is a directory")
    try:
        config, seed, summary = args.func(args, paths)
    except BaseException:
        if made and not os.listdir(args.out):
            os.rmdir(args.out)
        raise
    manifest = {
        "command": args.command,
        "config": config,
        "inputs": {name: getattr(args, name) for name in input_flags},
        "outputs": paths,
        "seed": seed,
        "artifact_version": __version__,
        "duration_s": time.monotonic() - started,
    }
    with write_atomic(manifest_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(summary)
    print(f"manifest: {manifest_path}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raresed",
        description="Rare sound event detection: synthesize data, train, "
                    "infer, score, and sweep the loss weight.")
    sub = parser.add_subparsers(dest="command", required=True)

    # An override flag's dest is the config field it is written into.
    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--config", help="JSON config (may name a preset)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, dest="data.seed", help="override the data seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a detector")
    p.add_argument("--config", help="JSON config (may name a preset)")
    p.add_argument("--train-data", required=True)
    p.add_argument("--dev-data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, dest="train.seed",
                   help="override the training seed")
    p.add_argument("--thres0", type=float, dest="train.thres0")
    p.add_argument("--thres1", type=float, dest="train.thres1")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="run detection with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--thres0", type=float)
    p.add_argument("--thres1", type=float)
    p.add_argument("--frame-shift", type=float, default=DEFAULT_FRAME_SHIFT_S,
                   help="seconds per frame hop for boundary conversion")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score detections against references")
    p.add_argument("--ref", required=True)
    p.add_argument("--det", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--collar", type=float, default=DEFAULT_COLLAR_S,
                   help="onset tolerance in seconds")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="train once per loss-weight value")
    p.add_argument("--config", help="JSON config (may name a preset)")
    p.add_argument("--train-data", required=True)
    p.add_argument("--dev-data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha-grid", help="comma-separated weights, default "
                   + ",".join(f"{a:g}" for a in DEFAULT_ALPHA_GRID))
    p.add_argument("--seed", type=int, dest="train.seed")
    p.add_argument("--thres0", type=float, dest="train.thres0")
    p.add_argument("--thres1", type=float, dest="train.thres1")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _run(args)
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
