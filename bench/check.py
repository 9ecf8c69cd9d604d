"""Output checks made apart from the program.

Nothing here imports ``raresed``: the readers follow the file formats
documented in the top-level README, and the scorer restates the
event-based rules (one event per clip, onset-only matching within a
collar, micro-averaged ER and F1). The workloads compare the program's
own outputs against these.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from typing import Optional

SED_MAGIC = b"RSED"
SEM_MAGIC = b"RSEM"
ANNOTATION_HEADER = "id\tlabel\tonset_s\toffset_s"


class CheckError(Exception):
    """A program output disagrees with the independent computation."""


@dataclass(frozen=True)
class Clip:
    """What the scorer needs from one `.sed` record: its id, length and
    the 1-based inclusive event frames read from the frame labels."""

    id: str
    frames: int
    onset: Optional[int]
    offset: Optional[int]


def read_sed_clips(path) -> list[Clip]:
    """Read a `.sed` dataset for its ids, clip lengths and event frames.

    The onset/offset fields of each record must agree with the label
    byte: both 0 for a negative, 1 <= onset <= offset <= T for a
    positive. Features are skipped, not read, so the reader adds nothing
    to the peak memory the benchmark reports.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def take(n: int, where: str) -> bytes:
            data = fh.read(n)
            if len(data) != n:
                raise CheckError(f"{path}: {where}: truncated")
            return data

        if take(4, "header") != SED_MAGIC:
            raise CheckError(f"{path}: bad magic")
        version, count = struct.unpack("<IQ", take(12, "header"))
        if version != 1:
            raise CheckError(f"{path}: unsupported version {version}")
        clips = []
        for rec in range(count):
            where = f"record {rec}"
            (id_len,) = struct.unpack("<I", take(4, where))
            try:
                uid = take(id_len, where).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckError(f"{path}: {where}: {exc}") from None
            y, dim, t_len, onset, offset, meta_len = struct.unpack("<BIIIII", take(21, where))
            fh.seek(meta_len + 8 * dim * t_len, os.SEEK_CUR)
            if fh.tell() > size:
                raise CheckError(f"{path}: {where}: truncated")
            if y == 0 and (onset, offset) == (0, 0):
                clips.append(Clip(uid, t_len, None, None))
            elif y == 1 and 1 <= onset <= offset <= t_len:
                clips.append(Clip(uid, t_len, onset, offset))
            else:
                raise CheckError(f"{path}: {where}: label {y} with event "
                                 f"{onset}..{offset} in {t_len} frames")
        if fh.tell() != size:
            raise CheckError(f"{path}: {size - fh.tell()} trailing bytes")
    return clips


def read_annotation_rows(path) -> dict[str, Optional[tuple[float, float]]]:
    """Parse an annotation `.tsv` into id -> (onset_s, offset_s) or None."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != ANNOTATION_HEADER:
        raise CheckError(f"{path}: missing header line")
    rows: dict[str, Optional[tuple[float, float]]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != 4:
            raise CheckError(f"{path}:{lineno}: expected 4 fields")
        uid, label, onset, offset = parts
        if uid in rows:
            raise CheckError(f"{path}:{lineno}: second row for {uid!r}")
        if label == "0" and onset == offset == "":
            rows[uid] = None
        elif label == "1":
            rows[uid] = (float(onset), float(offset))
        else:
            raise CheckError(f"{path}:{lineno}: bad row {line!r}")
    return rows


def check_detection_rows(rows: dict, clips: list[Clip], frame_shift_s: float) -> None:
    """Every clip has exactly one row, and every boundary lies inside it."""
    ids = [c.id for c in clips]
    if sorted(rows) != sorted(ids):
        missing = sorted(set(ids) - set(rows))[:5]
        extra = sorted(set(rows) - set(ids))[:5]
        raise CheckError(f"detection ids differ from clip ids: missing {missing}, "
                         f"extra {extra}")
    for clip in clips:
        row = rows[clip.id]
        if row is None:
            continue
        last = (clip.frames - 1) * frame_shift_s
        if not 0.0 <= row[0] <= row[1] <= last:
            raise CheckError(f"{clip.id}: detection {row} outside [0, {last}]")


@dataclass(frozen=True)
class Score:
    er: float
    f1: float
    tp: int
    insertions: int
    deletions: int
    n_ref: int


def score(clips: list[Clip], detections: dict, frame_shift_s: float,
          collar_s: float) -> Score:
    """Event-based ER and F1; a detected onset within the collar of the
    reference onset is a hit, otherwise a miss counts a deletion and a
    wrong or spurious detection an insertion."""
    tp = ins = dels = n_ref = 0
    for clip in clips:
        det = detections[clip.id]
        if clip.onset is None:
            ins += det is not None
            continue
        n_ref += 1
        ref_onset = (clip.onset - 1) * frame_shift_s
        if det is not None and abs(det[0] - ref_onset) <= collar_s:
            tp += 1
        else:
            dels += 1
            ins += det is not None
    if n_ref == 0:
        raise CheckError("no reference events: error rate undefined")
    return Score(er=(dels + ins) / n_ref, f1=100.0 * 2 * tp / (2 * tp + ins + dels),
                 tp=tp, insertions=ins, deletions=dels, n_ref=n_ref)


def read_eval_table(path) -> dict[str, float]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "metric\tvalue":
        raise CheckError(f"{path}: missing header line")
    return {k: float(v) for k, v in (line.split("\t") for line in lines[1:])}


def check_eval_table(table: dict[str, float], expected: Score) -> None:
    """The program's eval.tsv must equal the independent score."""
    want = {"er": expected.er, "f1": expected.f1, "tp": expected.tp,
            "insertions": expected.insertions, "deletions": expected.deletions,
            "n_ref": expected.n_ref}
    if set(table) != set(want):
        raise CheckError(f"eval.tsv rows {sorted(table)}, expected {sorted(want)}")
    for key, value in want.items():
        if not math.isclose(table[key], value, rel_tol=1e-12, abs_tol=1e-12):
            raise CheckError(f"eval.tsv {key} = {table[key]!r}, independent "
                             f"scorer gives {value!r}")


def expected_param_count(kind: str, layers: int, hidden: int, input_dim: int,
                         multires_bidirectional: bool = False) -> int:
    """Sum over layers and directions of 3H(D_in + H + 1), plus the
    classifier's output_dim entries."""
    dirs = 2 if kind == "bidirectional" or (kind == "multiresolution"
                                            and multires_bidirectional) else 1
    out_dim = dirs * hidden
    total = out_dim
    for i in range(layers):
        d_in = input_dim if i == 0 else out_dim
        total += dirs * 3 * hidden * (d_in + hidden + 1)
    return total


def check_sem(path) -> dict:
    """Read a `.sem` snapshot's header and check its parameter count
    against the architecture; returns the header."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != SEM_MAGIC or len(blob) < 12:
        raise CheckError(f"{path}: not a model snapshot")
    version, header_len = struct.unpack_from("<II", blob, 4)
    header = json.loads(blob[12:12 + header_len].decode("utf-8"))
    pos = 12 + header_len
    if len(blob) < pos + 8:
        raise CheckError(f"{path}: truncated before the parameter count")
    (count,) = struct.unpack_from("<Q", blob, pos)
    if len(blob) != pos + 8 + 8 * count:
        raise CheckError(f"{path}: {len(blob)} bytes for {count} parameters")
    enc = header["encoder"]
    want = expected_param_count(enc["kind"], enc["layers"], enc["hidden"],
                                enc["input_dim"], enc["multires_bidirectional"])
    if count != want:
        raise CheckError(f"{path}: {count} parameters, architecture needs {want}")
    return header
