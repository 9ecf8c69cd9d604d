"""The three workloads: inputs made from the seed, set-up, timed rounds
and the checks of each round's outputs.

Every workload runs whole rounds of identical operations. ``setup``
makes the inputs (its time is ``setup_s``); ``round`` runs the timed
operations and returns the work done and the seconds it took;
``verify`` runs checks that are too slow for every round. Checks never
fall inside a timed region.

Each set-up and each round writes into a directory of its own that does
not exist yet, so every repetition does the same file-system work:
replacing an existing file by rename costs far more on some file
systems than creating one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

import check

FRAME_SHIFT_S = 0.023
COLLAR_S = 0.5


class CommandFailed(Exception):
    """A program operation exited non-zero or raised."""


@dataclass
class Round:
    units: int        # utterances (or probes) the timed operation handled
    seconds: float    # wall time of the timed operation
    attempted: int    # operations: CLI commands, clips, probes


def cli(*argv: str) -> float:
    """Run one ``raresed`` command in this process; returns its wall time.

    The entry point is looked up on each call so that spans installed on
    the module are seen.
    """
    main = sys.modules["raresed.cli"].main
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(list(argv))
    except Exception as exc:  # a traceback is a failed operation, not a crash
        raise CommandFailed(f"raresed {argv[0]} raised {exc!r}") from exc
    elapsed = time.perf_counter() - start
    if code != 0:
        raise CommandFailed(f"raresed {argv[0]} exited {code}: {sink.getvalue().strip()}")
    return elapsed


def digest(*paths: str) -> str:
    # Small chunks: large transient buffers would change the allocator's
    # state and with it the peak memory the benchmark reports.
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                h.update(chunk)
    return h.hexdigest()


def write_json(path: str, obj: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def check_scored_run(sed_path: str, det_path: str, eval_path: str,
                     max_er: float, min_f1: float) -> check.Score:
    """Detections and eval.tsv of one infer+eval pass against the
    independent reader and scorer, plus the quality bound."""
    clips = check.read_sed_clips(sed_path)
    rows = check.read_annotation_rows(det_path)
    check.check_detection_rows(rows, clips, FRAME_SHIFT_S)
    expected = check.score(clips, rows, FRAME_SHIFT_S, COLLAR_S)
    check.check_eval_table(check.read_eval_table(eval_path), expected)
    if expected.er > max_er or expected.f1 < min_f1:
        raise check.CheckError(f"quality below bound: ER {expected.er:.4f} "
                               f"(max {max_er}), F1 {expected.f1:.2f} (min {min_f1})")
    return expected


class Workload:
    name = ""
    throughput = ""     # the run record's name for this workload's utt_per_s
    setup_repeats = 3
    commands_per_setup = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.quality: dict = {}

    def path(self, *parts: str) -> str:
        """A path under the latest set-up's directory."""
        return os.path.join(self.dir, *parts)

    def setup(self, workdir: str) -> str:
        """Make the inputs in ``workdir``; returns a digest that must
        repeat exactly."""
        raise NotImplementedError

    def round(self, out: str) -> Round:
        """One timed round, writing its outputs under ``out``."""
        raise NotImplementedError

    def verify(self) -> None:
        """Checks run once, after the timed rounds."""


class DeskTrain(Workload):
    """synth, then per round: train (2 epochs), infer and eval on dev."""

    name = "desk-train"
    throughput = "train.utt_per_s"
    commands_per_setup = 1
    EPOCHS = 2
    MAX_ER, MIN_F1 = 0.1, 95.0
    model_digest = None

    def setup(self, workdir: str) -> str:
        self.dir = workdir
        self.config = write_json(self.path("config.json"),
                                 {"preset": "desk", "train": {"epochs": self.EPOCHS}})
        cli("synth", "--config", self.config, "--out", self.path("data"),
            "--seed", str(self.seed))
        self.train_count = len(check.read_sed_clips(self.path("data", "train.sed")))
        self.dev_count = len(check.read_sed_clips(self.path("data", "dev.sed")))
        return digest(self.path("data", "train.sed"), self.path("data", "dev.sed"))

    def round(self, run: str) -> Round:
        data = self.path("data")
        train_s = cli("train", "--config", self.config,
                      "--train-data", os.path.join(data, "train.sed"),
                      "--dev-data", os.path.join(data, "dev.sed"),
                      "--out", run, "--seed", str(self.seed))
        cli("infer", "--model", os.path.join(run, "model.sem"),
            "--data", os.path.join(data, "dev.sed"), "--out", os.path.join(run, "infer"))
        cli("eval", "--ref", os.path.join(data, "dev_ref.tsv"),
            "--det", os.path.join(run, "infer", "detections.tsv"),
            "--out", os.path.join(run, "eval"))

        check.check_sem(os.path.join(run, "model.sem"))
        # Same data and seed: every round must train the same model.
        model_digest = digest(os.path.join(run, "model.sem"), os.path.join(run, "report.tsv"))
        if self.model_digest not in (None, model_digest):
            raise check.CheckError("retraining on the same inputs gave different bytes")
        self.model_digest = model_digest
        sed = os.path.join(data, "dev.sed")
        score = check_scored_run(sed, os.path.join(run, "infer", "detections.tsv"),
                                 os.path.join(run, "eval", "eval.tsv"),
                                 self.MAX_ER, self.MIN_F1)
        self.quality = {"dev_er": score.er, "dev_f1": score.f1}
        return Round(units=self.EPOCHS * self.train_count, seconds=train_s,
                     attempted=3 + self.dev_count)


class LongInfer(Workload):
    """Set-up trains a bidirectional model on the committed desk data;
    per round: infer and eval on paper-length clips made from the seed."""

    name = "long-infer"
    throughput = "infer.utt_per_s"
    commands_per_setup = 3
    # The model is trained on the desk preset's committed data seed, so
    # the quality bound speaks about the inference path on every seed.
    TRAIN_SEED = 7
    LONG_CLIPS, LONG_FRAMES = 40, 1304
    MAX_ER, MIN_F1 = 0.1, 95.0
    det_digest = None

    def setup(self, workdir: str) -> str:
        self.dir = workdir
        config = write_json(self.path("train.json"), {
            "preset": "desk",
            "train": {"epochs": 2, "encoder": {"kind": "bidirectional"}}})
        long_config = write_json(self.path("long.json"), {
            "preset": "desk",
            "data": {"train_count": 0, "dev_count": self.LONG_CLIPS,
                     "frames": self.LONG_FRAMES}})
        desk, model = self.path("desk"), self.path("model")
        cli("synth", "--config", config, "--out", desk, "--seed", str(self.TRAIN_SEED))
        cli("train", "--config", config, "--train-data", os.path.join(desk, "train.sed"),
            "--dev-data", os.path.join(desk, "dev.sed"), "--out", model,
            "--seed", str(self.TRAIN_SEED))
        cli("synth", "--config", long_config, "--out", self.path("long"),
            "--seed", str(self.seed))
        check.check_sem(os.path.join(model, "model.sem"))
        return digest(os.path.join(model, "model.sem"), self.path("long", "dev.sed"))

    def round(self, out: str) -> Round:
        sed = self.path("long", "dev.sed")
        detections = os.path.join(out, "infer", "detections.tsv")
        infer_s = cli("infer", "--model", self.path("model", "model.sem"),
                      "--data", sed, "--out", os.path.join(out, "infer"))
        cli("eval", "--ref", self.path("long", "dev_ref.tsv"),
            "--det", detections, "--out", os.path.join(out, "eval"))

        det_digest = digest(detections)
        if self.det_digest not in (None, det_digest):
            raise check.CheckError("inference on the same inputs gave different bytes")
        self.det_digest = det_digest
        score = check_scored_run(sed, detections, os.path.join(out, "eval", "eval.tsv"),
                                 self.MAX_ER, self.MIN_F1)
        self.quality = {"er": score.er, "f1": score.f1,
                        "detected": score.tp, "events": score.n_ref}
        return Round(units=self.LONG_CLIPS, seconds=infer_s,
                     attempted=2 + self.LONG_CLIPS)


class TinyGrad(Workload):
    """Loss-plus-gradient probes on the Tier-1 gradient-check grid: each
    probe is one ``EventModel.with_flat`` and one
    ``batch_loss_and_gradients`` on a batch of one utterance."""

    name = "tiny-grad"
    throughput = "grad.calls_per_s"
    setup_repeats = 5
    KINDS = ("unidirectional", "bidirectional", "multiresolution")
    INPUT_DIM = 5
    STEP = 1e-5
    PROBE_COORDS = 2       # each probed at +STEP and -STEP per round
    FD_COORDS = 4          # central-difference checks per grid point
    # The Tier-1 finite-difference tolerances.
    REL_TOL, FD_RESOLUTION, ABS_TOL, DENOM_FLOOR = 1e-4, 1e-5, 1e-9, 1e-8

    def setup(self, workdir: str) -> str:
        from raresed.data import Utterance
        from raresed.detector import EventModel
        from raresed.recurrent import EncoderConfig

        rng = np.random.default_rng(self.seed)
        self.points = []
        for kind in self.KINDS:
            for layers in (1, 2):
                for hidden in (4, 8):
                    for t_len in (7, 16):
                        config = EncoderConfig(kind=kind, layers=layers, hidden=hidden,
                                               input_dim=self.INPUT_DIM)
                        model = EventModel.initialize(config, seed=int(rng.integers(2**31)))
                        want = check.expected_param_count(kind, layers, hidden,
                                                          self.INPUT_DIM)
                        if model.param_count != want:
                            raise check.CheckError(f"{kind} L{layers} H{hidden}: "
                                                   f"{model.param_count} parameters, "
                                                   f"architecture needs {want}")
                        features = rng.standard_normal((self.INPUT_DIM, t_len))
                        # Four positives to one negative, so both loss
                        # branches run at every architecture point.
                        if len(self.points) % 5 == 4:
                            utt = Utterance.negative("probe", features)
                        else:
                            onset = int(rng.integers(1, t_len + 1))
                            offset = int(rng.integers(onset, t_len + 1))
                            utt = Utterance.positive("probe", features, onset, offset)
                        theta = model.flatten()
                        probes = []
                        for i in rng.choice(theta.size, self.PROBE_COORDS, replace=False):
                            for sign in (1.0, -1.0):
                                v = theta.copy()
                                v[i] += sign * self.STEP
                                probes.append(v)
                        self.points.append((model, [utt], probes))
        self.reference = self._probe_all()  # warm-up pass, part of set-up
        return hashlib.sha256(np.array(self.reference).tobytes()).hexdigest()

    def _probe_all(self) -> list[float]:
        loss_and_grad = sys.modules["raresed.detector"].batch_loss_and_gradients
        losses = []
        for model, batch, probes in self.points:
            for v in probes:
                loss, _ = loss_and_grad(model.with_flat(v), batch, 1.0, 50)
                losses.append(loss)
        return losses

    def round(self, out: str) -> Round:
        start = time.perf_counter()
        losses = self._probe_all()
        elapsed = time.perf_counter() - start
        if losses != self.reference:
            raise check.CheckError("probe losses differ from the set-up pass")
        return Round(units=len(losses), seconds=elapsed, attempted=len(losses))

    def verify(self) -> None:
        """Central differences on a few coordinates per grid point."""
        from raresed.detector import batch_loss_and_gradients

        rng = np.random.default_rng([self.seed, 1])
        worst = 0.0
        for model, batch, _ in self.points:
            theta = model.flatten()
            _, grad = batch_loss_and_gradients(model, batch, 1.0, 50)
            for i in rng.choice(theta.size, self.FD_COORDS, replace=False):
                up, down = theta.copy(), theta.copy()
                up[i] += self.STEP
                down[i] -= self.STEP
                loss_up, _ = batch_loss_and_gradients(model.with_flat(up), batch, 1.0, 50)
                loss_down, _ = batch_loss_and_gradients(model.with_flat(down), batch, 1.0, 50)
                fd = (loss_up - loss_down) / (2.0 * self.STEP)
                diff = abs(grad[i] - fd)
                magnitude = max(abs(grad[i]), abs(fd))
                if magnitude >= self.FD_RESOLUTION:
                    rel = diff / max(magnitude, self.DENOM_FLOOR)
                    worst = max(worst, rel)
                    ok = rel < self.REL_TOL
                else:
                    ok = diff < self.ABS_TOL
                if not ok:
                    raise check.CheckError(
                        f"{model.config.kind} L{model.config.layers} H{model.config.hidden}: "
                        f"gradient {grad[i]!r} vs central difference {fd!r} at {i}")
        self.quality = {"fd_worst_rel_err": worst,
                        "fd_coords": self.FD_COORDS * len(self.points)}


WORKLOADS = {w.name: w for w in (DeskTrain, LongInfer, TinyGrad)}
