"""Event-based scoring: error rate and F1 with onset-only collar matching.

Each utterance holds at most one reference event and at most one system
event, so matching is per-utterance: a system onset within the collar of
the reference onset is a true positive; otherwise the reference counts
as a deletion and the system output as an insertion. With a single event
class there are no substitutions. Counts are summed over the dataset
before the scores are computed (micro-averaging).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

from .detector import Detection
from .errors import DataMismatchError, InputError, ParseError, open_input

DEFAULT_COLLAR_S = 0.5
DEFAULT_FRAME_SHIFT_S = 0.023


@dataclass(frozen=True)
class EventAnnotation:
    """One event's boundaries in seconds."""

    onset: float
    offset: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.onset <= self.offset < math.inf:
            raise ValueError(f"bad annotation: onset {self.onset}, offset {self.offset} "
                             f"(want finite times, 0 <= onset <= offset)")


@dataclass
class MetricCounts:
    """Tallies over a dataset; fn doubles as deletions, fp as insertions."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    n_ref: int = 0

    def add(self, other: "MetricCounts") -> None:
        self.tp += other.tp
        self.fp += other.fp
        self.fn += other.fn
        self.n_ref += other.n_ref


def match_utterance(reference: Optional[EventAnnotation],
                    system: Optional[EventAnnotation],
                    collar: float = DEFAULT_COLLAR_S) -> MetricCounts:
    """Score one utterance under the onset-only condition."""
    check_seconds(collar, "collar")
    counts = MetricCounts()
    if reference is not None:
        counts.n_ref = 1
    if reference is None and system is None:
        return counts
    if reference is not None and system is None:
        counts.fn = 1
        return counts
    if reference is None and system is not None:
        counts.fp = 1
        return counts
    if abs(system.onset - reference.onset) <= collar:
        counts.tp = 1
    else:
        counts.fn = 1
        counts.fp = 1
    return counts


def error_rate(counts: MetricCounts) -> float:
    """(deletions + insertions) / reference count; may exceed 1."""
    if counts.n_ref <= 0:
        raise ValueError("error rate undefined without reference events")
    return (counts.fn + counts.fp) / counts.n_ref


def f1_score(counts: MetricCounts) -> float:
    """100 * 2TP / (2TP + FP + FN)."""
    denom = 2 * counts.tp + counts.fp + counts.fn
    if denom == 0:
        raise ValueError("F1 undefined with no events on either side")
    return 100.0 * 2.0 * counts.tp / denom


def check_seconds(value, name: str) -> float:
    """``value`` as a frame shift or a collar in seconds; InputError
    naming ``name`` unless it is a finite positive number."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        seconds = math.nan
    if not (math.isfinite(seconds) and seconds > 0):
        raise InputError(f"{name} must be positive and finite, in seconds; "
                         f"got {value!r}")
    return seconds


def detection_to_annotation(det: Detection,
                            frame_shift_s: float = DEFAULT_FRAME_SHIFT_S) -> Optional[EventAnnotation]:
    """Frame-index detection to seconds: onset_s = (frame - 1) * shift."""
    if not det.present:
        return None
    return EventAnnotation(onset=(det.onset - 1) * frame_shift_s,
                           offset=(det.offset - 1) * frame_shift_s)


def evaluate_annotations(references: Mapping[str, Optional[EventAnnotation]],
                         detections: Mapping[str, Optional[EventAnnotation]],
                         collar: float = DEFAULT_COLLAR_S) -> tuple[float, float, MetricCounts]:
    """Micro-averaged (ER, F1, counts) over id-aligned annotation maps."""
    missing = sorted(set(references) ^ set(detections))
    if missing:
        raise DataMismatchError(
            "reference and detection sets disagree on utterance ids: "
            + ", ".join(missing[:20])
        )
    counts = MetricCounts()
    for uid in references:
        counts.add(match_utterance(references[uid], detections[uid], collar))
    return error_rate(counts), f1_score(counts), counts


def evaluate_dataset(references: Mapping[str, Optional[EventAnnotation]],
                     detections: Mapping[str, Detection],
                     frame_shift_s: float = DEFAULT_FRAME_SHIFT_S,
                     collar: float = DEFAULT_COLLAR_S) -> tuple[float, float, MetricCounts]:
    """Score frame-index detections against second-valued references."""
    converted = {uid: detection_to_annotation(det, frame_shift_s)
                 for uid, det in detections.items()}
    return evaluate_annotations(references, converted, collar)


# ---------------------------------------------------------------------------
# Annotation files: tab-separated, one record per utterance.
# Columns: id, label (0/1), onset seconds, offset seconds (blank when
# label is 0). Floats are written with shortest round-trip repr.
# ---------------------------------------------------------------------------

ANNOTATION_HEADER = "id\tlabel\tonset_s\toffset_s"


def format_annotations(records: Mapping[str, Optional[EventAnnotation]]) -> str:
    lines = [ANNOTATION_HEADER]
    for uid in records:
        ann = records[uid]
        if ann is None:
            lines.append(f"{uid}\t0\t\t")
        else:
            lines.append(f"{uid}\t1\t{ann.onset!r}\t{ann.offset!r}")
    return "\n".join(lines) + "\n"


def read_annotations(path) -> dict[str, Optional[EventAnnotation]]:
    with open_input(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}")
    if not lines or lines[0] != ANNOTATION_HEADER:
        raise ParseError(f"{path}: missing annotation header line")
    out: dict[str, Optional[EventAnnotation]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ParseError(f"{path}:{lineno}: expected 4 tab-separated fields")
        uid, label, onset, offset = parts
        if uid in out:
            raise ParseError(f"{path}:{lineno}: duplicate utterance id {uid!r}")
        if label == "0":
            out[uid] = None
        elif label == "1":
            try:
                out[uid] = EventAnnotation(onset=float(onset), offset=float(offset))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}")
        else:
            raise ParseError(f"{path}:{lineno}: bad label {label!r}")
    return out
