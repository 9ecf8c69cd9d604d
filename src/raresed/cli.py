"""Command-line interface: synth, train, infer, eval, sweep.

Configuration is one JSON file (optionally starting from a named preset)
whose sections hold the fields of the config dataclasses; each override
flag is written into its config field, so flags win and are checked like
file values. Every command writes exactly one manifest.json next to its
outputs recording the resolved configuration, and all files are written
atomically (temp file + rename).

Exit codes: 0 success, 2 input/config error, 3 data-consistency error.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import dataclasses
import json
import os
import sys
import time
from typing import Optional, get_args, get_origin, get_type_hints

from . import __version__
from .data import SynthConfig, load_dataset, save_dataset, synth_dataset
from .detector import DEFAULT_THRESHOLD, infer
from .errors import DataMismatchError, InputError, check_setting, open_input, write_text
from .metrics import (
    DEFAULT_COLLAR_S,
    DEFAULT_FRAME_SHIFT_S,
    check_seconds,
    detection_to_annotation,
    evaluate_annotations,
    format_annotations,
    format_table,
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


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict: InputError naming a key given twice."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise InputError(f"config key {key!r} is given twice")
        out[key] = value
    return out


def load_config(path: Optional[str]) -> dict:
    """Read the JSON config, expanding a preset reference if present."""
    user: dict = {}
    if path is not None:
        try:
            with open_input(path, "r", encoding="utf-8") as fh:
                user = json.load(fh, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise InputError(f"config file {path} is not valid JSON: {exc}")
        except UnicodeDecodeError as exc:
            raise InputError(f"config file {path} is not UTF-8 text: {exc}")
        if not isinstance(user, dict):
            raise InputError(f"config file {path} must hold a JSON object")
    preset_name = user.pop("preset", None)
    if preset_name is None:
        return user
    if check_setting(preset_name, str, "config field 'preset'") not in PRESETS:
        raise InputError(
            f"unknown preset {preset_name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    return _deep_merge(PRESETS[preset_name], user)


def _fields(cls, *skip: str) -> dict:
    """{name: (type, default)} of the dataclass ``cls``'s fields but ``skip``."""
    types = get_type_hints(cls)
    return {f.name: (types[f.name], f.default) for f in dataclasses.fields(cls)
            if f.name not in skip}


# Each section's settings are the fields of the dataclass it fills, but data
# gives a count per split, and the encoder's input dim comes from the data.
_TRAIN_FIELDS = _fields(TrainConfig)
SCHEMA = {
    "data": {"train_count": (int, dataclasses.MISSING),
             "dev_count": (int, dataclasses.MISSING), **_fields(SynthConfig, "count")},
    "train": {**_fields(TrainConfig, "collar_s", "frame_shift_s"),
              "encoder": _fields(EncoderConfig, "input_dim")},
    "eval": {name: _TRAIN_FIELDS[name] for name in ("collar_s", "frame_shift_s")},
}

def _from_json(value, kind):
    """``value`` as read from JSON for a field of type ``kind``: JSON has one
    kind of number, so a number with an integral value serves an integer field."""
    if get_origin(kind) is tuple and isinstance(value, list):
        return [_from_json(x, get_args(kind)[0]) for x in value]
    whole = kind is int and isinstance(value, float) and value.is_integer()
    return int(value) if whole else value


def _read(node, schema: dict, prefix: str, used: tuple[str, ...]) -> dict:
    """The settings in ``node``, with defaults: InputError naming a key that
    is not in ``schema``, a value of the wrong type, or a field without a
    default that is missing below a prefix in ``used``."""
    if not isinstance(node, dict):
        raise InputError(f"config field {prefix[:-1]!r} must be an object, "
                         f"got {node!r}")
    for key in node:
        if key not in schema:
            raise InputError(f"config field {prefix + key!r} is not a setting")
    out = {}
    for name, spec in schema.items():
        dotted = prefix + name
        if isinstance(spec, dict):  # a section
            out[name] = _read(node.get(name, {}), spec, dotted + ".", used)
        elif name in node:
            out[name] = check_setting(_from_json(node[name], spec[0]), spec[0],
                                      f"config field {dotted!r}")
        elif spec[1] is not dataclasses.MISSING:
            out[name] = spec[1]
        elif dotted.startswith(used):
            raise InputError(f"config is missing required field {dotted!r}")
    return out


def _resolved_config(args, *used: str) -> tuple[dict, dict]:
    """The loaded config with each override flag written into the field
    its argparse ``dest`` names (``data.seed``, ``train.thres0``, ...), and
    its settings, with every field of the sections ``used`` required."""
    cfg = load_config(args.config)
    for dotted, value in vars(args).items():
        if "." in dotted and value is not None:
            section, name = dotted.split(".")
            node = cfg.setdefault(section, {})
            if isinstance(node, dict):  # if not, _read names the section
                node[name] = value
    return cfg, _read(cfg, SCHEMA, "", tuple(f"{name}." for name in used))


def _synth_configs(settings: dict) -> tuple[SynthConfig, SynthConfig]:
    """The SynthConfigs of the train and the dev split."""
    data = settings["data"]
    shared = {name: value for name, value in data.items() if not name.endswith("_count")}
    return tuple(SynthConfig(count=data[f"{split}_count"], **shared)
                 for split in ("train", "dev"))


def _train_config(settings: dict, input_dim: int) -> TrainConfig:
    train = dict(settings["train"])
    encoder = EncoderConfig(input_dim=input_dim, **train.pop("encoder"))
    return TrainConfig(encoder=encoder, **train, **settings["eval"])


# ---------------------------------------------------------------------------
# Commands: each writes its outputs to ``paths`` and returns the config
# and seed its manifest records, and the summary to print.
# ---------------------------------------------------------------------------

def cmd_synth(args, paths: dict[str, str]):
    cfg, settings = _resolved_config(args, "data", "eval")
    train_cfg, dev_cfg = _synth_configs(settings)
    frame_shift = check_seconds(settings["eval"]["frame_shift_s"], "eval.frame_shift_s")

    # Dev indices continue after train so the substreams never collide.
    # Each utterance is generated, written and dropped; the reference
    # events come from the headers of the records written.
    datasets = {
        "train": synth_dataset(train_cfg, id_prefix="train", start_index=0),
        "dev": synth_dataset(dev_cfg, id_prefix="dev", start_index=train_cfg.count),
    }
    for name, dataset in datasets.items():
        records = save_dataset(paths[name], dataset)
        write_text(paths[f"{name}_ref"],
                   format_annotations(reference_annotations(records, frame_shift)))
    return cfg, train_cfg.seed, (f"wrote {train_cfg.count} train / {dev_cfg.count} "
                                 f"dev utterances to {args.out}")


def _train_inputs(args):
    """The config, its TrainConfig, and the train and dev sets, rejected
    before training when they cannot be scored: an empty train set, or a
    dev set with no positive utterance (its error rate is undefined)."""
    cfg, settings = _resolved_config(args, "train", "eval")
    trainset = load_dataset(args.train_data)
    devset = load_dataset(args.dev_data)
    if not trainset:
        raise InputError(f"{args.train_data} holds no utterances")
    if not any(utt.y == 1 for utt in devset):
        raise InputError(f"{args.dev_data} holds no positive utterances; "
                         f"the dev error rate is undefined without them")
    return cfg, _train_config(settings, trainset[0].dim), trainset, devset


def cmd_train(args, paths: dict[str, str]):
    cfg, tc, trainset, devset = _train_inputs(args)
    report = train(tc, trainset, devset)
    save_model(paths["model"], best_model(report), tc)
    write_text(paths["report"], format_report(report))
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
    thres0 = trained.get("thres0", DEFAULT_THRESHOLD) if args.thres0 is None else args.thres0
    thres1 = trained.get("thres1", DEFAULT_THRESHOLD) if args.thres1 is None else args.thres1

    dataset = load_dataset(args.data)
    found = infer(model, dataset, thres0, thres1)
    detections = {utt.id: detection_to_annotation(det, frame_shift)
                  for utt, det in zip(dataset, found)}
    write_text(paths["detections"], format_annotations(detections))
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
    write_text(paths["eval"], format_table("metric\tvalue", [
        ("er", er), ("f1", f1), ("tp", counts.tp), ("insertions", counts.fp),
        ("deletions", counts.fn), ("n_ref", counts.n_ref)]))
    return {"collar_s": collar}, None, (f"ER {er:.4f}  F1 {f1:.2f}  (TP {counts.tp}, "
                                        f"I {counts.fp}, D {counts.fn}, N {counts.n_ref})")


def cmd_sweep(args, paths: dict[str, str]):
    try:
        grid = [float(x) for x in args.alpha_grid.split(",") if x.strip()]
    except ValueError:
        raise InputError(f"bad --alpha-grid value {args.alpha_grid!r}")
    if not grid:
        raise InputError("--alpha-grid named no values")
    cfg, tc, trainset, devset = _train_inputs(args)
    rows = alpha_sweep(tc, grid, trainset, devset)
    write_text(paths["sweep"], format_table(
        "alpha\tbest_epoch\tdev_er\tdev_f1",
        [(row["alpha"], row["best_epoch"], row["dev_er"], row["dev_f1"]) for row in rows]))
    return cfg, tc.seed, "\n".join(
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
    work, so no run stops half written; a failed command removes each
    directory it made for --out, deepest first, while that is empty, and
    none that existed before."""
    outputs, input_flags = COMMANDS[args.command]
    started = time.monotonic()
    made = []  # the missing directories of --out, deepest first
    path = os.path.abspath(args.out)
    while not os.path.exists(path):
        made.append(path)
        path = os.path.dirname(path)
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
        for path in made:
            if os.listdir(path):
                break
            os.rmdir(path)
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
    write_text(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
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
    p.add_argument("--seed", type=int, dest="data.seed", metavar="SEED",
                   help="override the data seed")
    p.set_defaults(func=cmd_synth)

    for name, text, func in (("train", "train a detector", cmd_train),
                             ("sweep", "train once per loss-weight value", cmd_sweep)):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="JSON config (may name a preset)")
        p.add_argument("--train-data", required=True)
        p.add_argument("--dev-data", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, dest="train.seed", metavar="SEED",
                       help="override the training seed")
        for flag in ("thres0", "thres1"):
            p.add_argument(f"--{flag}", type=float, dest=f"train.{flag}", metavar=flag.upper())
        if name == "sweep":
            p.add_argument("--alpha-grid", default=",".join(map(repr, DEFAULT_ALPHA_GRID)),
                           help="comma-separated weights, default %(default)s")
        p.set_defaults(func=func)

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
    return parser


# glibc malloc settings, as (mallopt parameter, value): M_TRIM_THRESHOLD
# (-1) keeps up to 256 MiB of freed memory at the top of the heap instead
# of handing it back to the kernel, and M_MMAP_THRESHOLD (-3) serves
# blocks of up to 32 MiB, glibc's maximum on 64-bit, from the heap instead
# of from fresh mappings. Setting either one also stops glibc from moving
# the mmap threshold itself; both are needed for a training minibatch to
# reuse the pages the last one freed.
MALLOC_SETTINGS = ((-1, 256 * 2**20), (-3, 32 * 2**20))


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no glibc: nothing to set
        pass
    else:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        for param, value in MALLOC_SETTINGS:
            mallopt(param, value)  # 1 if glibc took it; 0 leaves its own setting
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
