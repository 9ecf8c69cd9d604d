import numpy as np
import pytest

from raresed.detector import Detection
from raresed.errors import DataMismatchError, InputError, ParseError
from raresed.metrics import (
    EventAnnotation,
    MetricCounts,
    detection_to_annotation,
    error_rate,
    evaluate_annotations,
    evaluate_dataset,
    f1_score,
    format_annotations,
    format_table,
    match_utterance,
    read_annotations,
)


def ann(onset, offset=None):
    return EventAnnotation(onset=onset, offset=offset if offset is not None else onset + 1.0)


class TestMatchUtterance:
    def test_onset_inside_collar(self):
        c = match_utterance(ann(3.0), ann(3.4), collar=0.5)
        assert (c.tp, c.fp, c.fn, c.n_ref) == (1, 0, 0, 1)

    def test_onset_outside_collar(self):
        c = match_utterance(ann(3.0), ann(3.6), collar=0.5)
        assert (c.tp, c.fp, c.fn, c.n_ref) == (0, 1, 1, 1)

    def test_missed_reference(self):
        c = match_utterance(ann(3.0), None, collar=0.5)
        assert (c.tp, c.fp, c.fn, c.n_ref) == (0, 0, 1, 1)

    def test_spurious_detection(self):
        c = match_utterance(None, ann(1.0), collar=0.5)
        assert (c.tp, c.fp, c.fn, c.n_ref) == (0, 1, 0, 0)

    def test_both_absent(self):
        c = match_utterance(None, None, collar=0.5)
        assert (c.tp, c.fp, c.fn, c.n_ref) == (0, 0, 0, 0)

    def test_collar_boundary_inclusive(self):
        c = match_utterance(ann(3.0), ann(3.5), collar=0.5)
        assert c.tp == 1


class TestScores:
    def test_perfect_error_rate(self):
        assert error_rate(MetricCounts(tp=5, n_ref=5)) == 0.0

    def test_hand_counted_mixed_case(self):
        # Three utterances: one TP, one missed reference, one spurious
        # detection elsewhere -> N=2, D=1, I=1.
        counts = MetricCounts()
        counts.add(match_utterance(ann(1.0), ann(1.2), collar=0.5))
        counts.add(match_utterance(ann(4.0), None, collar=0.5))
        counts.add(match_utterance(None, ann(9.0), collar=0.5))
        assert counts.n_ref == 2
        assert error_rate(counts) == 1.0
        assert f1_score(counts) == 50.0

    def test_silent_system(self):
        assert error_rate(MetricCounts(fn=10, n_ref=10)) == 1.0

    def test_error_rate_needs_references(self):
        with pytest.raises(ValueError):
            error_rate(MetricCounts(fp=3))

    def test_perfect_f1(self):
        assert f1_score(MetricCounts(tp=7, n_ref=7)) == 100.0

    def test_f1_balanced_errors(self):
        assert f1_score(MetricCounts(tp=1, fp=1, fn=1, n_ref=2)) == 50.0

    def test_f1_zero_when_no_hits(self):
        assert f1_score(MetricCounts(fp=2, fn=3, n_ref=3)) == 0.0

    def test_f1_undefined_on_empty(self):
        with pytest.raises(ValueError):
            f1_score(MetricCounts())


class TestEvaluate:
    def test_identical_sets_are_perfect(self):
        refs = {f"u{i}": ann(float(i)) if i % 2 else None for i in range(10)}
        er, f1, counts = evaluate_annotations(refs, dict(refs))
        assert er == 0.0 and f1 == 100.0
        assert counts.tp == counts.n_ref == 5

    def test_shift_inside_collar_is_free(self):
        refs = {f"u{i}": ann(float(i) + 1.0) for i in range(8)}
        dets = {uid: ann(a.onset + 0.49, a.offset) for uid, a in refs.items()}
        er, f1, _ = evaluate_annotations(refs, dets, collar=0.5)
        assert er == 0.0 and f1 == 100.0

    def test_frame_conversion(self):
        det = Detection(present=True, onset=100, offset=150)
        converted = detection_to_annotation(det, frame_shift_s=0.023)
        assert converted.onset == pytest.approx(99 * 0.023, abs=1e-12)
        assert converted.offset == pytest.approx(149 * 0.023, abs=1e-12)
        assert detection_to_annotation(Detection(present=False)) is None

    def test_evaluate_dataset_matches_annotation_path(self):
        refs = {"a": ann(2.277), "b": None}
        dets = {"a": Detection(present=True, onset=100, offset=120),
                "b": Detection(present=False)}
        er, f1, counts = evaluate_dataset(refs, dets, frame_shift_s=0.023)
        assert counts.tp == 1 and counts.fp == 0 and counts.fn == 0
        assert er == 0.0 and f1 == 100.0

    def test_bad_collar(self):
        # An infinite collar would match onsets any distance apart; a
        # string or a bool is not a number of seconds.
        for collar in (0.0, -1.0, float("inf"), float("nan"), "0.5", True):
            with pytest.raises(InputError, match="collar"):
                evaluate_annotations({"u": ann(1.0)}, {"u": ann(1.0)}, collar=collar)

    def test_id_mismatch_rejected(self):
        with pytest.raises(DataMismatchError, match="u1"):
            evaluate_annotations({"u0": None, "u1": None}, {"u0": None})

    def test_order_invariance(self):
        rng = np.random.default_rng(20)
        refs, dets = {}, {}
        for i in range(50):
            uid = f"u{i}"
            refs[uid] = ann(float(rng.uniform(0, 20))) if rng.uniform() < 0.6 else None
            dets[uid] = ann(float(rng.uniform(0, 20))) if rng.uniform() < 0.6 else None
        er1, f11, _ = evaluate_annotations(refs, dets)
        items = list(refs)[::-1]
        er2, f12, _ = evaluate_annotations({k: refs[k] for k in items},
                                           {k: dets[k] for k in items})
        assert er1 == er2 and f11 == f12

    def test_shift_within_slack_never_loses_tp(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            r_on = float(rng.uniform(1.0, 10.0))
            err = float(rng.uniform(-0.4, 0.4))
            slack = 0.5 - abs(err)
            delta = float(rng.uniform(-slack, slack))
            base = match_utterance(ann(r_on), ann(r_on + err, r_on + err + 1), 0.5)
            moved = match_utterance(ann(r_on), ann(r_on + err + delta,
                                                   r_on + err + delta + 1), 0.5)
            assert moved.tp >= base.tp

    def test_brute_force_oracle_equivalence(self):
        # Independent per-utterance re-tally, then identity checks for the
        # single-event-per-utterance setting.
        rng = np.random.default_rng(22)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            refs, dets = {}, {}
            for i in range(n):
                uid = f"u{i}"
                refs[uid] = ann(float(rng.uniform(0, 5))) if rng.uniform() < 0.7 else None
                dets[uid] = ann(float(rng.uniform(0, 5))) if rng.uniform() < 0.7 else None
            if not any(refs.values()):
                continue
            _, _, counts = evaluate_annotations(refs, dets, collar=0.5)
            tp = fp = fn = n_ref = 0
            for uid in refs:
                r, s = refs[uid], dets[uid]
                if r is not None:
                    n_ref += 1
                if r is None and s is None:
                    continue
                elif r is not None and s is None:
                    fn += 1
                elif r is None and s is not None:
                    fp += 1
                elif abs(r.onset - s.onset) <= 0.5:
                    tp += 1
                else:
                    fn += 1
                    fp += 1
            assert (counts.tp, counts.fp, counts.fn, counts.n_ref) == (tp, fp, fn, n_ref)
            assert counts.tp + counts.fn == counts.n_ref
            d, i = counts.fn, counts.fp
            expected_f1 = 200.0 * (n_ref - d) / (2 * (n_ref - d) + i + d) \
                if 2 * (n_ref - d) + i + d else None
            if expected_f1 is not None:
                assert f1_score(counts) == pytest.approx(expected_f1, abs=1e-12)


class TestFormatTable:
    def test_header_only(self):
        assert format_table("a\tb", []) == "a\tb\n"

    def test_negative_annotation_row_ends_in_two_tabs(self):
        text = format_table("id\tlabel\tonset_s\toffset_s", [("u0", 0, "", "")])
        assert text == "id\tlabel\tonset_s\toffset_s\nu0\t0\t\t\n"

    def test_float_in_shortest_round_trip_form(self):
        value = 0.1 + 0.2
        text = format_table("x", [(value,)])
        assert text == "x\n0.30000000000000004\n"
        assert float(text.splitlines()[1]) == value

    def test_int_fields(self):
        assert format_table("i\tj", [(1, -20), (0, 3)]) == "i\tj\n1\t-20\n0\t3\n"


class TestAnnotationFiles:
    def test_round_trip(self, tmp_path):
        records = {"u0": None, "u1": ann(2.2769999999999997, 3.427),
                   "u2": ann(0.0, 0.0), "u3": ann(0.1 + 0.2, 2.5)}
        path = tmp_path / "ref.tsv"
        text = format_annotations(records)
        path.write_text(text)
        assert read_annotations(path) == records
        assert format_annotations(read_annotations(path)) == text

    def test_format_is_stable(self):
        text = format_annotations({"a": None, "b": ann(1.5, 2.0)})
        assert text == "id\tlabel\tonset_s\toffset_s\na\t0\t\t\nb\t1\t1.5\t2.0\n"

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("nope\n")
        with pytest.raises(ParseError, match="header"):
            read_annotations(path)

    def test_bad_field_count_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("id\tlabel\tonset_s\toffset_s\nu0\t1\t2.0\n")
        with pytest.raises(ParseError, match=":2"):
            read_annotations(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("id\tlabel\tonset_s\toffset_s\nu0\t0\t\t\nu0\t0\t\t\n")
        with pytest.raises(ParseError, match="duplicate"):
            read_annotations(path)

    def test_annotation_invariant(self):
        with pytest.raises(ValueError):
            EventAnnotation(onset=3.0, offset=2.0)
        with pytest.raises(ValueError):
            EventAnnotation(onset=-1.0, offset=2.0)
        for onset, offset in [(1.0, np.inf), (np.inf, np.inf), (-np.inf, 1.0),
                              (np.nan, 1.0), (1.0, np.nan)]:
            with pytest.raises(ValueError, match="finite"):
                EventAnnotation(onset=onset, offset=offset)

    @pytest.mark.parametrize("time", ["inf", "-inf", "1e400", "nan"])
    @pytest.mark.parametrize("column", ["onset", "offset"])
    def test_non_finite_time_names_line(self, tmp_path, column, time):
        onset, offset = (time, "2.0") if column == "onset" else ("1.0", time)
        path = tmp_path / "ref.tsv"
        path.write_text(f"id\tlabel\tonset_s\toffset_s\nu0\t0\t\t\n"
                        f"u1\t1\t{onset}\t{offset}\n")
        with pytest.raises(ParseError, match="ref.tsv:3: .*finite"):
            read_annotations(path)
