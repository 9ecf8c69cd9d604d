"""Tests of the benchmark's own readers and scorer on hand-built cases.

Run with ``python3 -m pytest bench/test_check.py``; they are outside the
package's test paths, so the package's own suite neither collects nor
waits for them.
"""

import json
import struct
import sys
from pathlib import Path

import pytest

import check

SHIFT = 0.023
COLLAR = 0.5


def sed_bytes(records, trailing=b"") -> bytes:
    """A `.sed` file in the documented layout; records are
    (id, y, d, T, onset, offset)."""
    out = [b"RSED", struct.pack("<IQ", 1, len(records))]
    for uid, y, d, t_len, onset, offset in records:
        meta = json.dumps({}).encode()
        raw = uid.encode()
        out += [struct.pack("<I", len(raw)), raw, struct.pack("<BII", y, d, t_len),
                struct.pack("<II", onset, offset), struct.pack("<I", len(meta)), meta,
                struct.pack(f"<{d * t_len}d", *range(d * t_len))]
    return b"".join(out) + trailing


def write(tmp_path, name, data):
    path = tmp_path / name
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data)
    return str(path)


def clips(*events, frames=100):
    return [check.Clip(f"c{i}", frames, *(ev if ev else (None, None)))
            for i, ev in enumerate(events)]


def test_sed_reader_takes_events_from_records(tmp_path):
    path = write(tmp_path, "a.sed", sed_bytes([("neg", 0, 2, 3, 0, 0),
                                               ("pos", 1, 2, 5, 2, 4)]))
    assert check.read_sed_clips(path) == [check.Clip("neg", 3, None, None),
                                          check.Clip("pos", 5, 2, 4)]


@pytest.mark.parametrize("blob", [
    sed_bytes([("pos", 1, 2, 5, 2, 4)])[:-1],          # truncated features
    sed_bytes([("pos", 1, 2, 5, 2, 4)], trailing=b"x"),  # trailing byte
    sed_bytes([("pos", 1, 2, 5, 4, 2)]),                # onset after offset
    sed_bytes([("pos", 1, 2, 5, 2, 6)]),                # offset past the clip
    sed_bytes([("neg", 0, 2, 5, 1, 1)]),                # negative with an event
    b"RSEM" + sed_bytes([])[4:],                         # wrong magic
])
def test_sed_reader_rejects_malformed_files(tmp_path, blob):
    with pytest.raises(check.CheckError):
        check.read_sed_clips(write(tmp_path, "bad.sed", blob))


def test_sed_reader_agrees_with_the_program(tmp_path):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from raresed.data import SynthConfig, save_dataset, synth_dataset

    utts = synth_dataset(SynthConfig(count=12, positive_fraction=0.5, frames=40, dim=3,
                                     duration_frames=(5, 9), seed=3))
    path = tmp_path / "synth.sed"
    save_dataset(path, utts)
    assert check.read_sed_clips(path) == [
        check.Clip(u.id, u.n_frames, u.onset, u.offset) for u in utts]


def test_onset_exactly_at_the_collar_edge_is_a_hit():
    refs = clips((1, 10))                    # reference onset 0.0 s
    assert check.score(refs, {"c0": (COLLAR, 1.0)}, SHIFT, COLLAR).tp == 1
    late = check.score(refs, {"c0": (0.5000001, 1.0)}, SHIFT, COLLAR)
    assert (late.tp, late.insertions, late.deletions) == (0, 1, 1)


def test_score_counts_each_outcome():
    refs = clips((1, 10), (11, 20), None, (1, 5), None)
    dets = {"c0": (0.1, 0.3),                 # hit
            "c1": (3.0, 3.5),                 # wrong onset: deletion + insertion
            "c2": (0.0, 0.2),                 # spurious: insertion
            "c3": None,                       # missed: deletion
            "c4": None}                       # correct rejection
    got = check.score(refs, dets, SHIFT, COLLAR)
    assert (got.tp, got.insertions, got.deletions, got.n_ref) == (1, 2, 2, 3)
    assert got.er == 4 / 3
    assert got.f1 == 100.0 * 2 / 6


def test_score_without_references_is_an_error():
    with pytest.raises(check.CheckError):
        check.score(clips(None), {"c0": None}, SHIFT, COLLAR)


def test_detection_rows_must_match_clip_ids(tmp_path):
    path = write(tmp_path, "det.tsv", f"{check.ANNOTATION_HEADER}\nc0\t0\t\t\nx9\t0\t\t\n")
    with pytest.raises(check.CheckError, match=r"missing \['c1'\], extra \['x9'\]"):
        check.check_detection_rows(check.read_annotation_rows(path), clips(None, None), SHIFT)


def test_duplicate_detection_rows_are_rejected(tmp_path):
    path = write(tmp_path, "det.tsv", f"{check.ANNOTATION_HEADER}\nc0\t0\t\t\nc0\t0\t\t\n")
    with pytest.raises(check.CheckError, match="second row"):
        check.read_annotation_rows(path)


def test_detection_boundaries_must_lie_inside_the_clip():
    last = 99 * SHIFT
    check.check_detection_rows({"c0": (0.0, last)}, clips(None), SHIFT)
    with pytest.raises(check.CheckError):
        check.check_detection_rows({"c0": (0.0, last + 0.001)}, clips(None), SHIFT)


def test_eval_table_must_equal_the_score(tmp_path):
    expected = check.Score(er=0.5, f1=80.0, tp=4, insertions=1, deletions=1, n_ref=4)
    table = "metric\tvalue\ner\t0.5\nf1\t80.0\ntp\t4\ninsertions\t1\ndeletions\t1\nn_ref\t4\n"
    check.check_eval_table(check.read_eval_table(write(tmp_path, "e.tsv", table)), expected)
    with pytest.raises(check.CheckError, match="deletions"):
        check.check_eval_table(check.read_eval_table(
            write(tmp_path, "e.tsv", table.replace("deletions\t1", "deletions\t2"))), expected)


@pytest.mark.parametrize("arch,want", [
    (("unidirectional", 1, 4, 5), 3 * 4 * (5 + 4 + 1) + 4),
    (("bidirectional", 2, 4, 5), 2 * 3 * 4 * (5 + 4 + 1) + 2 * 3 * 4 * (8 + 4 + 1) + 8),
    (("multiresolution", 2, 32, 16), 3 * 32 * (16 + 33) + 3 * 32 * (32 + 33) + 32),
])
def test_param_count_formula(arch, want):
    assert check.expected_param_count(*arch) == want
