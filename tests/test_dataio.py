from __future__ import annotations

import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from affectfuse import dataio
from affectfuse.align import WarpPath
from affectfuse.core import AnnotationTrace, grid_timestamps_ms
from affectfuse.dataio import (
    FeatureSequence,
    Partition,
    Segment,
    WindowSpec,
    align_to_labels,
    check_same_grid,
    label_rows,
    list_recordings,
    read_annotation_csv,
    read_feature_csv,
    read_gold_csv,
    read_labels_csv,
    read_logits_csv,
    read_partition_csv,
    read_physio_csv,
    read_prediction_csv,
    read_rater_set,
    read_segments_csv,
    uniform_step_ms,
    window,
    write_annotation_csv,
    write_feature_csv,
    write_gold_csv,
    write_labels_csv,
    write_logits_csv,
    write_partition_csv,
    write_prediction_csv,
    write_segments_csv,
    write_table,
    write_warp_path_csv,
)
from affectfuse.errors import DataError, ParameterError
from affectfuse.seqmodel import TrainHistory

from _oracles import loop_align_to_labels


class TestAnnotationRoundTrip:
    def test_roundtrip_preserves_values_and_rate(self, tmp_path):
        rng = np.random.default_rng(1)
        trace = AnnotationTrace(
            rater_id="r0", sample_rate_hz=4.0, values=rng.normal(size=37), kind="valence"
        )
        path = tmp_path / "r0.csv"
        write_annotation_csv(path, trace)
        ts, back = read_annotation_csv(path, rater_id="r0", kind="valence")
        assert np.array_equal(back.values, trace.values)
        assert back.sample_rate_hz == 4.0
        assert np.array_equal(ts, np.arange(37) * 250)

    def test_odd_rate_grid_wobble_tolerated(self, tmp_path):
        # 3 Hz -> 333/334 ms steps after rounding; the reader must accept it
        trace = AnnotationTrace(
            rater_id="r0", sample_rate_hz=3.0, values=np.arange(30.0), kind="arousal"
        )
        path = tmp_path / "r0.csv"
        write_annotation_csv(path, trace)
        ts, back = read_annotation_csv(path, rater_id="r0", kind="arousal")
        assert back.sample_rate_hz == pytest.approx(3.0, rel=0.01)
        assert np.array_equal(ts, grid_timestamps_ms(30, 3.0))  # the timestamps as read, not regenerated

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_annotation_csv(tmp_path / "nope.csv", rater_id="x", kind="valence")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,val\n0,1.0\n")
        with pytest.raises(DataError):
            read_annotation_csv(path, rater_id="x", kind="valence")

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp_ms,value\n0,1.0\n250,oops\n")
        with pytest.raises(DataError):
            read_annotation_csv(path, rater_id="x", kind="valence")

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp_ms,value\n0,1.0\n250,nan\n")
        with pytest.raises(DataError):
            read_annotation_csv(path, rater_id="x", kind="valence")

    def test_repeated_timestamp_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp_ms,value\n0,1.0\n0,2.0\n1,3.0\n")
        with pytest.raises(DataError, match="strictly increasing"):
            read_annotation_csv(path, rater_id="x", kind="valence")

    @pytest.mark.parametrize("first", [5000, -250, 1])
    def test_grid_off_the_zero_origin_rejected(self, tmp_path, first):
        # a trace holds no origin, so a later start would silently move it to t = 0
        path = tmp_path / "late.csv"
        path.write_text("timestamp_ms,value\n" + "".join(f"{first + 250 * i},{i}.5\n" for i in range(4)))
        with pytest.raises(DataError, match=f"late.csv: the time grid starts at {first} ms, not 0"):
            read_annotation_csv(path, rater_id="x", kind="valence")


class TestRaterSet:
    def test_reads_sorted_rater_files(self, tmp_path):
        rng = np.random.default_rng(2)
        folder = tmp_path / "rec1" / "valence"
        folder.mkdir(parents=True)
        for rid in ("zeta", "alpha", "mid"):
            trace = AnnotationTrace(
                rater_id=rid, sample_rate_hz=2.0, values=rng.normal(size=20), kind="valence"
            )
            write_annotation_csv(folder / f"{rid}.csv", trace)
        rs = read_rater_set(tmp_path, "rec1", "valence")
        assert list(rs.rater_ids) == ["alpha", "mid", "zeta"]
        assert rs.recording_id == "rec1"
        assert np.array_equal(rs.timestamps_ms, np.arange(20) * 500)

    def test_keeps_a_wobbling_grid_as_read(self, tmp_path):
        folder = tmp_path / "rec1" / "arousal"
        for rid in ("r0", "r1"):
            write_annotation_csv(folder / f"{rid}.csv", AnnotationTrace(rid, 3.0, np.arange(62.0), "arousal"))
        assert np.array_equal(read_rater_set(tmp_path, "rec1", "arousal").timestamps_ms, grid_timestamps_ms(62, 3.0))

    @pytest.mark.parametrize(("r1_ts", "message"), [
        (np.r_[np.arange(601) * 501, 300_600 + np.arange(1, 601) * 499],
         "data row 2 is at 501 ms, but in .*r0.csv it is at 500 ms"),
        (np.arange(1200) * 500, "data row 1201 is missing, but in .*r0.csv it is at 600000 ms"),
    ], ids=["drifting-clock", "shorter"])
    def test_rater_file_on_another_grid_rejected(self, tmp_path, r1_ts, message):
        # each step of the drifting file is within 1 ms of its 500 ms mean, so alone it reads as a uniform grid
        folder = tmp_path / "rec1" / "arousal"
        write_annotation_csv(folder / "r0.csv", AnnotationTrace("r0", 2.0, np.zeros(1201), "arousal"))
        write_table(folder / "r1.csv", "timestamp_ms,value", r1_ts, np.zeros(r1_ts.size))
        with pytest.raises(DataError, match="r1.csv: " + message):
            read_rater_set(tmp_path, "rec1", "arousal")

    def test_missing_kind_directory(self, tmp_path):
        (tmp_path / "rec1").mkdir()
        with pytest.raises(DataError):
            read_rater_set(tmp_path, "rec1", "valence")

    def test_list_recordings(self, tmp_path):
        for rec in ("b", "a"):
            (tmp_path / rec / "valence").mkdir(parents=True)
        (tmp_path / "c" / "arousal").mkdir(parents=True)
        assert list_recordings(tmp_path, "valence") == ["a", "b"]
        assert list_recordings(tmp_path, "arousal") == ["c"]



class TestReadPhysio:
    @staticmethod
    def _read(tmp_path, values, step_ms, at):
        path = tmp_path / "eda.csv"
        write_table(path, "timestamp_ms,value", np.arange(len(values)) * step_ms, np.asarray(values, np.float64))
        return read_physio_csv(path, np.asarray(at))

    def test_slower_signal_is_interpolated_between_its_samples(self, tmp_path):
        # 1 Hz samples read at 2 Hz: the half-second steps fall halfway between samples
        out = self._read(tmp_path, [0.0, 1.0, 2.0, 3.0], 1000, np.arange(7) * 500)
        np.testing.assert_array_equal(out, [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])

    def test_faster_signal_is_read_at_the_timestamps(self, tmp_path):
        out = self._read(tmp_path, np.arange(9.0), 500, np.arange(5) * 1000)
        np.testing.assert_array_equal(out, [0.0, 2.0, 4.0, 6.0, 8.0])

    def test_signal_ending_early_holds_its_last_value(self, tmp_path):
        out = self._read(tmp_path, [0.0, 1.0, 2.0], 500, np.arange(6) * 500)
        np.testing.assert_array_equal(out, [0.0, 1.0, 2.0, 2.0, 2.0, 2.0])

    def test_longer_signal_is_read_over_the_timestamps_only(self, tmp_path):
        out = self._read(tmp_path, np.r_[np.arange(5.0), np.full(100, 1e6)], 500, np.arange(5) * 500)
        np.testing.assert_array_equal(out, np.arange(5.0))

    @given(
        step=st.integers(1, 40), wobble=st.lists(st.booleans(), min_size=1, max_size=300),
        at=st.lists(st.integers(0, 15_000), max_size=50), seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_equals_interpolating_the_whole_file(self, tmp_path, step, wobble, at, seed):
        ts = np.r_[0, np.cumsum(step + np.array(wobble, np.int64))]  # steps of step or step + 1 ms
        values = np.random.default_rng(seed).normal(size=ts.size)
        write_table(tmp_path / "eda.csv", "timestamp_ms,value", ts, values)
        at = np.sort(np.r_[at, ts[:3]]).astype(np.int64)  # some timestamps fall on samples
        assert np.array_equal(read_physio_csv(tmp_path / "eda.csv", at), np.interp(at, ts, values))

    def test_grid_checks_of_a_signal_file(self, tmp_path):
        path = tmp_path / "eda.csv"
        path.write_text("timestamp_ms,value\n0,1.0\n100,2.0\n202,3.0\n300,4.0\n")
        with pytest.raises(DataError, match="eda.csv: timestamps must form a uniform grid"):
            read_physio_csv(path, [0, 100])
        path.write_text("timestamp_ms,value\n1,1.0\n2,2.0\n")
        with pytest.raises(DataError, match="eda.csv: the time grid starts at 1 ms, not 0"):
            read_physio_csv(path, [0, 1])

    def test_memory_after_the_grid_check_is_the_table(self, tmp_path, monkeypatch):
        # a 10-minute 1 kHz file read at 2 Hz: its table takes 9.2 MiB, and a copy of a
        # column, float times or values, 4.6 MiB more; the grid check's own integer steps
        # are TestUniformStep's concern, so the peak is taken from the end of the check
        path = tmp_path / "eda.csv"
        values = np.random.default_rng(8).normal(size=600_001)
        write_table(path, "timestamp_ms,value", np.arange(values.size), values)
        at = np.arange(1201) * 500

        def check_then_reset_peak(ts):
            step = uniform_step_ms(ts)
            tracemalloc.reset_peak()
            return step

        monkeypatch.setattr(dataio, "uniform_step_ms", check_then_reset_peak)
        tracemalloc.start()
        try:
            out = read_physio_csv(path, at)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(out, values[at])
        assert peak < 12 * 2**20

class TestFeatureCsv:
    def test_frame_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        fs = FeatureSequence(
            recording_id="rec",
            feature_set="egemaps",
            matrix=rng.normal(size=(12, 4)),
            timestamps_ms=np.arange(12) * 250,
        )
        path = tmp_path / "feat.csv"
        write_feature_csv(path, fs)
        back = read_feature_csv(path, "rec", "egemaps")
        assert np.array_equal(back.matrix, fs.matrix)
        assert np.array_equal(back.timestamps_ms, fs.timestamps_ms)
        assert back.end_timestamps_ms is None

    def test_word_roundtrip(self, tmp_path):
        fs = FeatureSequence(
            recording_id="rec",
            feature_set="bert",
            matrix=np.array([[1.0, 2.0], [3.0, 4.0]]),
            timestamps_ms=np.array([0, 800]),
            end_timestamps_ms=np.array([700, 1500]),
        )
        path = tmp_path / "words.csv"
        write_feature_csv(path, fs)
        back = read_feature_csv(path, "rec", "bert")
        assert np.array_equal(back.end_timestamps_ms, fs.end_timestamps_ms)
        assert np.array_equal(back.matrix, fs.matrix)

    def test_bad_feature_column_names(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp_ms,a,b\n0,1.0,2.0\n")
        with pytest.raises(DataError):
            read_feature_csv(path, "rec", "x")

    def test_non_increasing_timestamps(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp_ms,f0\n0,1.0\n0,2.0\n")
        with pytest.raises(DataError):
            read_feature_csv(path, "rec", "x")

    def test_width_other_than_expected_names_file(self, tmp_path):
        path = tmp_path / "narrow.csv"
        path.write_text("timestamp_ms,f0,f1\n0,1.0,2.0\n")
        assert read_feature_csv(path, "rec", "x", n_features=2).n_features == 2
        with pytest.raises(DataError, match="narrow.csv: 2 feature columns, expected 3"):
            read_feature_csv(path, "rec", "x", n_features=3)


class TestGoldPredictionCsv:
    def test_gold_roundtrip_with_sidecar(self, tmp_path):
        ts = np.arange(5) * 500
        vals = np.array([0.1, -0.2, 0.3, 0.0, 1.5])
        path = tmp_path / "rec.csv"
        write_gold_csv(path, ts, vals, metadata={"weights": [0.5, 0.5], "iterations": 3})
        ts2, vals2 = read_gold_csv(path)
        assert np.array_equal(ts2, ts)
        assert np.array_equal(vals2, vals)
        meta = json.loads(path.with_suffix(".json").read_text())
        assert meta["iterations"] == 3

    def test_gold_without_sidecar(self, tmp_path):
        path = tmp_path / "rec.csv"
        write_gold_csv(path, np.array([0, 500]), np.array([1.0, 2.0]))
        _, vals = read_gold_csv(path)
        assert np.array_equal(vals, [1.0, 2.0])
        assert not (tmp_path / "rec.json").exists()

    def test_gold_sidecar_never_read(self, tmp_path):
        path = tmp_path / "rec.csv"
        write_gold_csv(path, np.array([0, 500]), np.array([1.0, 2.0]), metadata={"iterations": 1})
        path.with_suffix(".json").write_text("{not json")
        _, vals = read_gold_csv(path)
        assert np.array_equal(vals, [1.0, 2.0])

    def test_gold_non_uniform_grid_rejected(self, tmp_path):
        path = tmp_path / "rec.csv"
        write_gold_csv(path, np.array([0, 500, 1000, 1600]), np.zeros(4))
        with pytest.raises(DataError, match="rec.csv.*uniform grid"):
            read_gold_csv(path)

    def test_prediction_roundtrip(self, tmp_path):
        path = tmp_path / "pred.csv"
        write_prediction_csv(path, np.array([0, 250]), np.array([0.25, -1.75]))
        ts, preds = read_prediction_csv(path)
        assert np.array_equal(preds, [0.25, -1.75])

    def test_float_repr_roundtrip_is_exact(self, tmp_path):
        # repr formatting must survive a write/read cycle bit-for-bit
        rng = np.random.default_rng(4)
        vals = rng.normal(size=100) * 1e-7
        path = tmp_path / "rec.csv"
        write_gold_csv(path, np.arange(100) * 250, vals)
        _, back = read_gold_csv(path)
        assert np.array_equal(back, vals)


class TestPartition:
    def test_roundtrip_and_split_queries(self, tmp_path):
        part = Partition({"a": "train", "b": "devel", "c": "test", "d": "train"})
        path = tmp_path / "partition.csv"
        write_partition_csv(path, part)
        back = read_partition_csv(path)
        assert back.recordings("train") == ("a", "d")
        assert back.split_of("b") == "devel"

    def test_conflicting_assignment_rejected(self, tmp_path):
        path = tmp_path / "partition.csv"
        path.write_text("recording_id,partition\na,train\na,test\n")
        with pytest.raises(DataError, match="two splits"):
            read_partition_csv(path)

    def test_duplicate_consistent_row_tolerated(self, tmp_path):
        path = tmp_path / "partition.csv"
        path.write_text("recording_id,partition\na,train\na,train\n")
        assert read_partition_csv(path).split_of("a") == "train"

    def test_unknown_split_rejected(self, tmp_path):
        path = tmp_path / "partition.csv"
        path.write_text("recording_id,partition\na,validation\n")
        with pytest.raises(DataError):
            read_partition_csv(path)
        with pytest.raises(ParameterError):
            Partition({"a": "validation"})

    def test_missing_recording_is_data_error(self):
        with pytest.raises(DataError):
            Partition({"a": "train"}).split_of("zzz")


class TestSegments:
    def test_roundtrip(self, tmp_path):
        segs = [
            Segment("s1", "rec1", 0, 4000, "train"),
            Segment("s2", "rec1", 6000, 9000, "devel"),
        ]
        path = tmp_path / "segments.csv"
        write_segments_csv(path, segs)
        assert read_segments_csv(path) == segs

    def test_invalid_span_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            Segment("s1", "rec1", 5000, 5000, "train")
        path = tmp_path / "segments.csv"
        path.write_text("segment_id,recording_id,start_ms,end_ms,partition\ns1,rec1,9,3,train\n")
        with pytest.raises(DataError):
            read_segments_csv(path)

    def test_unknown_split_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="segment 's1': unknown split 'bogus'"):
            Segment("s1", "rec1", 0, 8287, "bogus")
        path = tmp_path / "segments.csv"
        path.write_text("segment_id,recording_id,start_ms,end_ms,partition\ns1,rec1,0,8287,bogus\n")
        with pytest.raises(DataError, match="segments.csv: segment 's1': unknown split 'bogus'"):
            read_segments_csv(path)

    def test_labels_roundtrip_sorted(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_labels_csv(path, {"s2": 4, "s1": 0})
        assert path.read_text().splitlines()[1] == "s1,0"
        assert read_labels_csv(path) == {"s1": 0, "s2": 4}

    def test_non_integer_label_names_file(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("segment_id,class\ns0,1\ns1,x\n")
        with pytest.raises(DataError, match="labels.csv"):
            read_labels_csv(path)

    def test_class_outside_range_names_file(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("segment_id,class\ns0,4\ns1,-1\n")
        assert read_labels_csv(path) == {"s0": 4, "s1": -1}
        with pytest.raises(DataError, match=r"labels.csv: segment 's1' has class -1, outside \[0, 4\]"):
            read_labels_csv(path, n_classes=5)
        with pytest.raises(DataError, match="segment 's0' has class 4"):
            read_labels_csv(path, n_classes=4)


class TestLogitsCsv:
    def test_roundtrip_sorted_and_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        rows = {"s2": rng.normal(size=5), "s1": rng.normal(size=5)}
        path = tmp_path / "devel_logits.csv"
        write_logits_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "segment_id,l0,l1,l2,l3,l4"
        assert lines[1].startswith("s1,")
        back = read_logits_csv(path)
        assert sorted(back) == ["s1", "s2"]
        for seg, vec in rows.items():
            assert np.array_equal(back[seg], vec)

    @pytest.mark.parametrize(
        "row", ["s1,0.5,zz", "s1,0.5", "s1,0.5,0.25,0.125"], ids=["non-float", "short", "long"]
    )
    def test_malformed_row_names_file(self, tmp_path, row):
        path = tmp_path / "devel_logits.csv"
        path.write_text(f"segment_id,l0,l1\ns0,0.1,0.2\n{row}\n")
        with pytest.raises(DataError, match="devel_logits.csv"):
            read_logits_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "devel_logits.csv"
        path.write_text("segment_id,l1,l0\ns0,0.1,0.2\n")
        with pytest.raises(DataError):
            read_logits_csv(path)


EVERY_READER = {
    "annotation": lambda p: read_annotation_csv(p, rater_id="r", kind="arousal"),
    "physio": lambda p: read_physio_csv(p, [0, 250, 500]),
    "feature": lambda p: read_feature_csv(p, recording_id="rec", feature_set="x"),
    "gold": read_gold_csv,
    "prediction": read_prediction_csv,
    "partition": read_partition_csv,
    "segments": read_segments_csv,
    "labels": read_labels_csv,
    "logits": read_logits_csv,
}


BEYOND_INT64 = {
    "annotation": "timestamp_ms,value\n0,0.1\n99999999999999999999999,0.2\n",
    "physio": "timestamp_ms,value\n0,0.1\n99999999999999999999999,0.2\n",
    "feature": "timestamp_ms,f0\n0,0.1\n-99999999999999999999999,0.2\n",
    "gold": "timestamp_ms,value\n0,0.1\n99999999999999999999999,0.2\n",
    "prediction": "timestamp_ms,pred\n99999999999999999999999,0.2\n",
    "segments": "segment_id,recording_id,start_ms,end_ms,partition\ns0,r,0,99999999999999999999999,train\n",
    "labels": "segment_id,class\ns0,99999999999999999999999\n",
}


@pytest.mark.parametrize("reader", list(BEYOND_INT64))
def test_integer_beyond_int64_rejected(tmp_path, reader):
    path = tmp_path / "big.csv"
    path.write_text(BEYOND_INT64[reader])
    with pytest.raises(DataError, match="big.csv.*int64"):
        EVERY_READER[reader](path)


@pytest.mark.parametrize("content", ["", "\n \n"], ids=["empty", "blank-lines"])
@pytest.mark.parametrize("reader", list(EVERY_READER))
def test_every_reader_rejects_empty_file(tmp_path, reader, content):
    path = tmp_path / "empty.csv"
    path.write_text(content)
    with pytest.raises(DataError, match="empty.csv"):
        EVERY_READER[reader](path)


# A file each reader accepts.
VALID = {
    "annotation": "timestamp_ms,value\n0,0.1\n500,0.2\n",
    "physio": "timestamp_ms,value\n0,0.1\n500,0.2\n",
    "feature": "timestamp_ms,f0\n0,0.1\n",
    "gold": "timestamp_ms,value\n0,0.1\n500,0.2\n",
    "prediction": "timestamp_ms,pred\n0,0.1\n500,0.2\n",
    "partition": "recording_id,partition\nr,train\n",
    "segments": "segment_id,recording_id,start_ms,end_ms,partition\ns0,r,0,500,train\n",
    "labels": "segment_id,class\ns0,1\n",
    "logits": "segment_id,l0,l1\ns0,0.1,0.2\n",
}


@pytest.mark.parametrize("reader", list(EVERY_READER))
def test_every_reader_rejects_non_utf8_bytes(tmp_path, reader):
    path = tmp_path / "bytes.csv"
    path.write_bytes(VALID[reader].encode() + b"\xff\xfe")
    with pytest.raises(DataError, match="bytes.csv: not UTF-8"):
        EVERY_READER[reader](path)


NON_FINITE = {
    "annotation": "timestamp_ms,value\n0,0.1\n\n500,{v}\n1000,0.3\n",
    "physio": "timestamp_ms,value\n0,0.1\n\n500,{v}\n1000,0.3\n",
    "feature": "timestamp_ms,f0,f1\n0,0.1,0.2\n500,0.1,{v}\n",
    "gold": "timestamp_ms,value\n0,0.1\n500,{v}\n",
    "prediction": "timestamp_ms,pred\n0,0.1\n500,{v}\n",
    "logits": "segment_id,l0,l1\ns0,0.1,0.2\ns1,{v},0.2\n",
}


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e999"])
@pytest.mark.parametrize("reader", list(NON_FINITE))
def test_every_float_reader_rejects_non_finite_values(tmp_path, reader, value):
    path = tmp_path / "nonfinite.csv"
    path.write_text(NON_FINITE[reader].format(v=value))
    with pytest.raises(DataError, match="nonfinite.csv: non-finite value in data row 2"):
        EVERY_READER[reader](path)


GRID_READERS = ["annotation", "gold", "physio", "prediction"]


@pytest.mark.parametrize("reader", GRID_READERS)
def test_grid_readers_need_two_samples(tmp_path, reader):
    path = tmp_path / "one.csv"
    path.write_text(VALID[reader].splitlines()[0] + "\n0,0.5\n")
    with pytest.raises(DataError, match="one.csv: a timestamp grid needs at least 2 timestamps"):
        EVERY_READER[reader](path)


@pytest.mark.parametrize(("rows", "message"), [
    ("0,0.1\n500,0.2\n500,0.3\n", "timestamps must be strictly increasing"),
    ("0,0.1\n500,0.2\n1200,0.3\n", "timestamps must form a uniform grid"),
], ids=["repeated", "non-uniform"])
@pytest.mark.parametrize("reader", GRID_READERS)
def test_grid_readers_reject_a_grid_off_its_step(tmp_path, reader, rows, message):
    path = tmp_path / "off.csv"
    path.write_text(VALID[reader].splitlines()[0] + "\n" + rows)
    with pytest.raises(DataError, match=f"off.csv: {message}"):
        EVERY_READER[reader](path)


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    reader=st.sampled_from(sorted(EVERY_READER)),
    valid_prefix=st.booleans(),
    tail=st.binary(max_size=40) | st.text("0123456789,.-+_eEnaif \n\r\xff", max_size=40).map(str.encode),
)
def test_every_reader_raises_only_data_error_on_any_bytes(tmp_path, reader, valid_prefix, tail):
    path = tmp_path / "any.csv"
    path.write_bytes(VALID[reader].encode() * valid_prefix + tail)
    try:
        EVERY_READER[reader](path)
    except DataError:
        pass



def test_reading_a_signal_never_holds_its_text(tmp_path):
    # the text is parsed as it is read, so the peak is the arrays, not a copy of the file
    path = tmp_path / "eda.csv"
    values = np.random.default_rng(6).normal(size=200_000)
    write_annotation_csv(path, AnnotationTrace(rater_id="eda", sample_rate_hz=1000.0, values=values, kind="physio"))
    tracemalloc.start()
    try:
        _, trace = read_annotation_csv(path, rater_id="eda", kind="physio")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(trace.values, values)
    assert peak < 2 * path.stat().st_size


def test_writing_a_table_never_holds_its_text(tmp_path):
    # rows are formatted a block at a time: the whole text (about 5 MB) is never built
    path = tmp_path / "eda.csv"
    ts, values = np.arange(200_000), np.random.default_rng(7).normal(size=200_000)
    tracemalloc.start()
    try:
        write_table(path, "timestamp_ms,value", ts, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    lines = path.read_text().splitlines()
    assert len(lines) == 200_001 and lines[-1] == f"{ts[-1]},{values[-1].item()!r}"


@pytest.mark.parametrize("reader", list(EVERY_READER))
def test_every_reader_rejects_a_header_without_rows_and_warns_nothing(tmp_path, reader):
    path = tmp_path / "header.csv"
    path.write_text(VALID[reader].splitlines()[0] + "\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="header.csv: no data rows"):
            EVERY_READER[reader](path)


@pytest.mark.parametrize("reader", list(EVERY_READER))
def test_whitespace_only_data_line_rejected(tmp_path, reader):
    path = tmp_path / "blank.csv"
    path.write_text(VALID[reader].replace("\n", "\n \n", 1))
    with pytest.raises(DataError, match="blank.csv: malformed data"):
        EVERY_READER[reader](path)


@pytest.mark.parametrize("field", ["1_0", "\u0663"], ids=["digit-separator", "arabic-indic-digit"])
@pytest.mark.parametrize("column", ["int", "float"])
def test_numbers_are_ascii_digits_only(tmp_path, field, column):
    # int() and float() accept both fields; the table parser takes neither
    path = tmp_path / "digits.csv"
    row = f"{field},0.5" if column == "int" else f"500,{field}"
    path.write_text(f"timestamp_ms,value\n0,0.1\n{row}\n", encoding="utf-8")
    with pytest.raises(DataError, match="digits.csv: malformed data"):
        read_annotation_csv(path, rater_id="r", kind="arousal")


@pytest.mark.parametrize("segment_id", ["s" * 300, "  s 1 "], ids=["300-chars", "surrounding-spaces"])
def test_ids_read_back_unchanged(tmp_path, segment_id):
    segments = [Segment(segment_id, "r", 0, 500, "train")]
    write_segments_csv(tmp_path / "segments.csv", segments)
    write_labels_csv(tmp_path / "labels.csv", {segment_id: 2})
    write_logits_csv(tmp_path / "logits.csv", {segment_id: np.array([0.5, 1.5])})
    assert read_segments_csv(tmp_path / "segments.csv") == segments
    assert read_labels_csv(tmp_path / "labels.csv") == {segment_id: 2}
    assert list(read_logits_csv(tmp_path / "logits.csv")) == [segment_id]


def test_non_utf8_byte_deep_in_the_file_rejected(tmp_path):
    path = tmp_path / "deep.csv"
    rows = "".join(f"{t},0.5\n" for t in range(100_002))
    path.write_bytes(b"timestamp_ms,value\n" + rows.encode() + b"100002,0.\xff\n100003,0.5\n")
    with pytest.raises(DataError, match="deep.csv: not UTF-8"):
        read_annotation_csv(path, rater_id="r", kind="arousal")


# Every CSV writer, fed integer-dtype values and float timestamps, with the
# text it must write: each format coerces its own columns (timestamps and
# classes with int() truncation, values to float64), so the text never
# follows the caller's dtype.
WRITTEN = {
    "annotation": (
        lambda p: write_annotation_csv(
            p, AnnotationTrace(rater_id="r", sample_rate_hz=2.0, values=np.array([1, 2]), kind="arousal")
        ),
        "timestamp_ms,value\n0,1.0\n500,2.0\n",
    ),
    "feature": (
        lambda p: write_feature_csv(p, FeatureSequence("rec", "x", np.array([[1, 2], [3, 4]]), [0.0, 500.7])),
        "timestamp_ms,f0,f1\n0,1.0,2.0\n500,3.0,4.0\n",
    ),
    "words": (
        lambda p: write_feature_csv(
            p, FeatureSequence("rec", "x", np.array([[1, 2], [3, 4]]), [0.0, 500.7], [400.9, 900.2])
        ),
        "start_ms,end_ms,f0,f1\n0,400,1.0,2.0\n500,900,3.0,4.0\n",
    ),
    "gold": (
        lambda p: write_gold_csv(p, [0.0, 500.7], np.array([1, 2])),
        "timestamp_ms,value\n0,1.0\n500,2.0\n",
    ),
    "prediction": (
        lambda p: write_prediction_csv(p, [0.0, 500.7], np.array([1, 2])),
        "timestamp_ms,pred\n0,1.0\n500,2.0\n",
    ),
    "partition": (
        lambda p: write_partition_csv(p, Partition({"r2": "devel", "r1": "train"})),
        "recording_id,partition\nr1,train\nr2,devel\n",
    ),
    "segments": (
        lambda p: write_segments_csv(p, [Segment("s0", "r", np.int64(0), np.int64(500), "train")]),
        "segment_id,recording_id,start_ms,end_ms,partition\ns0,r,0,500,train\n",
    ),
    "labels": (
        lambda p: write_labels_csv(p, {"s1": np.int64(2), "s0": 1.0}),
        "segment_id,class\ns0,1\ns1,2\n",
    ),
    "logits": (
        lambda p: write_logits_csv(p, {"s1": np.array([1, 2]), "s0": np.array([3, 4])}),
        "segment_id,l0,l1\ns0,3.0,4.0\ns1,1.0,2.0\n",
    ),
    "warp_path": (
        lambda p: write_warp_path_csv(p, WarpPath(pairs=np.array([[0, 0], [1, 0], [2, 1]]), cost=0.0)),
        "src_idx,ref_idx\n0,0\n1,0\n2,1\n",
    ),
    # numpy scalars too: repr(np.float32(0.25)) is "np.float32(0.25)", not a CSV field
    "history": (
        lambda p: TrainHistory(rows=[(np.int64(1), 0.5, float("-inf")), (2, np.float32(0.25), np.int64(1))]).write_csv(p),
        "epoch,train_loss,devel_metric\n1,0.5,-inf\n2,0.25,1.0\n",
    ),
    # the shared writer itself writes each value as its own type
    "table": (
        lambda p: write_table(p, "id,n,v,x0,...", ["a", "b"], [7, -1], [0.1, 1e-300], np.array([[1.5, 2.0]] * 2)),
        "id,n,v,x0,x1\na,7,0.1,1.5,2.0\nb,-1,1e-300,1.5,2.0\n",
    ),
}


@pytest.mark.parametrize("writer", list(WRITTEN))
def test_every_writer_formats_by_its_format_not_the_callers_dtype(tmp_path, writer):
    write, expected = WRITTEN[writer]
    path = tmp_path / "sub" / "out.csv"  # the parent directory is created
    write(path)
    assert path.read_text() == expected


# Awkward floats: signed zero, the smallest subnormal, the largest double.
AWKWARD = np.array([0.1, 1 / 3, -0.0, 5e-324, -2.5e-17, 1.7976931348623157e308])
GRID = np.arange(AWKWARD.size) * 250

# Per format with a reader: (write, read, what the read must equal).
ROUND_TRIPS = {
    "annotation": (
        lambda p: write_annotation_csv(
            p, AnnotationTrace(rater_id="r", sample_rate_hz=4.0, values=AWKWARD, kind="arousal")
        ),
        lambda p: read_annotation_csv(p, "r", "arousal")[1].values,
        AWKWARD,
    ),
    "feature": (
        lambda p: write_feature_csv(p, FeatureSequence("rec", "x", AWKWARD.reshape(3, 2), GRID[:3])),
        lambda p: (lambda f: (f.timestamps_ms, f.matrix))(read_feature_csv(p, "rec", "x")),
        (GRID[:3], AWKWARD.reshape(3, 2)),
    ),
    "words": (
        lambda p: write_feature_csv(p, FeatureSequence("rec", "x", AWKWARD.reshape(2, 3), [0, 800], [700, 900])),
        lambda p: (lambda f: (f.end_timestamps_ms, f.matrix))(read_feature_csv(p, "rec", "x")),
        (np.array([700, 900]), AWKWARD.reshape(2, 3)),
    ),
    "gold": (lambda p: write_gold_csv(p, GRID, AWKWARD), read_gold_csv, (GRID, AWKWARD)),
    "prediction": (lambda p: write_prediction_csv(p, GRID, AWKWARD), read_prediction_csv, (GRID, AWKWARD)),
    "partition": (
        lambda p: write_partition_csv(p, Partition({"r1": "train", "r0": "test"})),
        read_partition_csv,
        Partition({"r0": "test", "r1": "train"}),
    ),
    "segments": (
        lambda p: write_segments_csv(p, [Segment("s0", "r", 0, 2**62, "devel")]),
        read_segments_csv,
        [Segment("s0", "r", 0, 2**62, "devel")],
    ),
    "labels": (lambda p: write_labels_csv(p, {"s1": 4, "s0": 0}), read_labels_csv, {"s0": 0, "s1": 4}),
    "logits": (
        lambda p: write_logits_csv(p, {"s1": AWKWARD[3:], "s0": AWKWARD[:3]}),
        read_logits_csv,
        {"s0": AWKWARD[:3], "s1": AWKWARD[3:]},
    ),
}


def _assert_same(got, expected) -> None:
    """Equal values; arrays bit for bit, so -0.0 and 0.0 differ."""
    if isinstance(expected, np.ndarray):
        assert got.shape == expected.shape
        assert got.tobytes() == expected.astype(got.dtype).tobytes()
    elif isinstance(expected, (tuple, dict)):
        assert len(got) == len(expected)
        for key in range(len(expected)) if isinstance(expected, tuple) else expected:
            _assert_same(got[key], expected[key])
    else:
        assert got == expected


@pytest.mark.parametrize("fmt", list(ROUND_TRIPS))
def test_every_format_reads_back_what_it_wrote(tmp_path, fmt):
    write, read, expected = ROUND_TRIPS[fmt]
    path = tmp_path / "back.csv"
    write(path)
    _assert_same(read(path), expected)


class TestAlignToLabels:
    def test_frame_features_nearest_match(self):
        fs = FeatureSequence(
            recording_id="rec",
            feature_set="x",
            matrix=np.array([[1.0], [2.0], [3.0]]),
            timestamps_ms=np.array([0, 260, 490]),
        )
        # label grid at 4 Hz: 0, 250, 500
        out = align_to_labels(fs, np.array([0, 250, 500]))
        assert np.allclose(out[:, 0], [1.0, 2.0, 3.0])

    def test_far_frame_gets_zero_row(self):
        fs = FeatureSequence(
            recording_id="rec",
            feature_set="x",
            matrix=np.array([[5.0]]),
            timestamps_ms=np.array([0]),
        )
        out = align_to_labels(fs, np.array([0, 250, 500, 750]))
        assert np.allclose(out[:, 0], [5.0, 0.0, 0.0, 0.0])

    def test_word_features_cover_span(self):
        fs = FeatureSequence(
            recording_id="rec",
            feature_set="w",
            matrix=np.array([[1.0], [2.0]]),
            timestamps_ms=np.array([0, 900]),
            end_timestamps_ms=np.array([600, 1400]),
        )
        out = align_to_labels(fs, np.array([0, 250, 500, 750, 1000, 1250, 1500]))
        # word 1 covers 0-600, word 2 covers 900-1400, gaps are zero
        assert np.allclose(out[:, 0], [1.0, 1.0, 1.0, 0.0, 2.0, 2.0, 0.0])

    def test_length_always_matches_grid(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n_feat = int(rng.integers(1, 40))
            n_lab = int(rng.integers(2, 60))
            fs = FeatureSequence(
                recording_id="rec",
                feature_set="x",
                matrix=rng.normal(size=(n_feat, 3)),
                timestamps_ms=np.sort(rng.choice(100000, size=n_feat, replace=False)),
            )
            grid = np.arange(n_lab) * 250
            assert align_to_labels(fs, grid).shape == (n_lab, 3)

    def test_non_uniform_grid_rejected(self):
        fs = FeatureSequence(
            recording_id="rec",
            feature_set="x",
            matrix=np.ones((2, 1)),
            timestamps_ms=np.array([0, 250]),
        )
        with pytest.raises(ParameterError):
            align_to_labels(fs, np.array([0, 250, 1000]))


class TestAlignToLabelsMatchesLoop:
    """The searchsorted alignment picks the same rows as the one-step-at-a-time loop."""

    @staticmethod
    def _case(rng, words: bool) -> tuple[FeatureSequence, np.ndarray]:
        step = int(rng.choice([200, 250, 333, 500]))
        grid = np.arange(int(rng.integers(2, 60))) * step + int(rng.integers(-2000, 2000))
        n_feat = int(rng.integers(1, 50))
        # frames on a coarse lattice, so that many sit exactly half a step or equally far from two frames
        lattice = int(rng.choice([step // 2, step, 7]))
        starts = np.sort(rng.choice(grid.size * step // lattice + 60, size=n_feat, replace=False)) * lattice - 5000
        ends = starts + rng.integers(0, 3 * step, size=n_feat) if words else None
        return FeatureSequence("rec", "x", rng.normal(size=(n_feat, 2)), starts, ends), grid

    @pytest.mark.parametrize("words", [False, True], ids=["frames", "words"])
    def test_same_rows_as_the_loop(self, words):
        rng = np.random.default_rng(21)
        for _ in range(300):
            fs, grid = self._case(rng, words)
            np.testing.assert_array_equal(align_to_labels(fs, grid), loop_align_to_labels(fs, grid))
            # features that are their own row number + 1 show which row the loop takes, 0 for none
            numbered = FeatureSequence("rec", "x", np.arange(1.0, fs.matrix.shape[0] + 1)[:, None],
                                       fs.timestamps_ms, fs.end_timestamps_ms)
            np.testing.assert_array_equal(label_rows(fs, grid), loop_align_to_labels(numbered, grid)[:, 0] - 1)

    def test_tie_takes_the_earlier_frame_and_half_a_step_counts(self):
        fs = FeatureSequence("rec", "x", np.array([[1.0], [2.0], [3.0]]), np.array([125, 375, 1376]))
        # 0 and 500 lie half a step (125 ms) from a frame, 250 lies 125 ms from two, 1250 lies 126 ms from the nearest
        out = align_to_labels(fs, np.array([0, 250, 500, 750, 1000, 1250, 1500]))
        assert out[:, 0].tolist() == [1.0, 1.0, 2.0, 0.0, 0.0, 0.0, 3.0]
        assert label_rows(fs, np.array([0, 250, 500, 750, 1000, 1250, 1500])).tolist() == [0, 0, 1, -1, -1, -1, 2]


class TestCheckSameGrid:
    def test_equal_grids_pass(self):
        check_same_grid("a.csv", np.array([0, 500, 1000]), "b.csv", np.array([0, 500, 1000]))

    @pytest.mark.parametrize("ts, grid, message", [
        ([0, 500, 1000], [60000, 60500, 61000], "a.csv: data row 1 is at 0 ms, but in b.csv it is at 60000 ms"),
        ([0, 500, 1001], [0, 500, 1000], "a.csv: data row 3 is at 1001 ms, but in b.csv it is at 1000 ms"),
        ([0, 500], [0, 500, 1000], "a.csv: data row 3 is missing, but in b.csv it is at 1000 ms"),
        ([0, 500, 1000], [0, 500], "a.csv: data row 3 is at 1000 ms, but in b.csv it is missing"),
    ], ids=["moved", "one-row", "shorter", "longer"])
    def test_first_differing_row_names_both_files(self, ts, grid, message):
        with pytest.raises(DataError) as exc:
            check_same_grid("a.csv", np.array(ts), "b.csv", np.array(grid))
        assert str(exc.value) == message


class TestUniformStep:
    def test_wobbling_grid_gives_mean_step(self):
        assert uniform_step_ms(grid_timestamps_ms(10, 3.0)) == 3000 / 9
        assert uniform_step_ms(np.array([0, 500, 1000])) == 500.0

    @pytest.mark.parametrize("rate", [3.0, 6.0, 7.0, 30.0])
    @given(n=st.integers(2, 20_000))
    @settings(max_examples=40, deadline=None)
    def test_step_regenerates_a_wobbling_grid(self, rate, n):
        # a whole-millisecond step, 333 ms at 3 Hz, would drift 1 ms every 3 steps
        ts = grid_timestamps_ms(n, rate)
        regenerated = grid_timestamps_ms(n, 1000.0 / uniform_step_ms(ts))
        assert np.abs(regenerated - ts).max() <= 1

    @pytest.mark.parametrize(
        ("ts", "message"),
        [([0], "at least 2"), ([0, 250, 250, 500], "strictly increasing"), ([500, 250, 0], "strictly increasing"),
         ([0, 250, 250, 1000], "strictly increasing"), ([0, 100, 202, 300], "uniform grid"),
         ([0, 100, 203], "uniform grid")],
        ids=["single", "repeat", "decreasing", "repeat-and-uneven", "two-off", "half-step-median"],
    )
    def test_bad_grids_rejected(self, ts, message):
        with pytest.raises(ParameterError, match=message):
            uniform_step_ms(np.array(ts))

    @pytest.mark.parametrize(("ts", "step"), [([0, 100, 201, 300], 100.0), ([0, 100, 202], 101.0)])
    def test_steps_within_one_ms_of_the_mean_pass(self, ts, step):
        assert uniform_step_ms(np.array(ts)) == step

    def test_memory_is_one_integer_step_array(self):
        # the 2,000,000 int64 steps take 15.3 MiB; no float copy of them fits under the bound
        ts = np.arange(2_000_001, dtype=np.int64) * 40
        tracemalloc.start()
        try:
            step = uniform_step_ms(ts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert step == 40.0
        assert peak < 24 * 2**20


class TestWindow:
    def test_concatenation_is_lossless(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(1, 200))
            w = int(rng.integers(1, 50))
            h = int(rng.integers(1, w + 1))
            x = rng.normal(size=n)
            wins = window(x, WindowSpec(window=w, hop=h))
            rebuilt = np.full(n, np.nan)
            for start, chunk in wins:
                rebuilt[start : start + len(chunk)] = chunk
            assert np.array_equal(rebuilt, x)

    def test_short_sequence_single_window(self):
        x = np.arange(3.0)
        wins = window(x, WindowSpec(window=10, hop=5))
        assert len(wins) == 1
        assert np.array_equal(wins[0][1], x)

    def test_final_window_truncated(self):
        x = np.arange(10.0)
        wins = window(x, WindowSpec(window=4, hop=4))
        assert [w[0] for w in wins] == [0, 4, 8]
        assert len(wins[-1][1]) == 2

    def test_2d_windows(self):
        x = np.arange(20.0).reshape(10, 2)
        wins = window(x, WindowSpec(window=4, hop=2))
        assert wins[0][1].shape == (4, 2)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            window(np.array([]), WindowSpec(window=4, hop=2))
        with pytest.raises(ParameterError):
            WindowSpec(window=0, hop=1)


@pytest.mark.parametrize(
    "span, starts, ends, taken",
    [
        ((250, 750), [0, 250, 500, 750, 1000], None, [1, 2]),
        ((600, 700), [0, 250, 500], None, []),
        ((250, 750), [100, 600], [300, 900], [0, 1]),
        ((250, 750), [100, 200], [249, 250], [1]),
        ((250, 750), [300, 750], [400, 900], [0]),
        ((250, 750), [0, 100, 300], [1000, 200, 400], [0, 2]),
    ],
    ids=["half-open-frames", "no-frame", "word-into-span", "word-ending-at-start", "word-starting-at-end",
         "nested-word"],
)
def test_segment_rows(span, starts, ends, taken):
    # a frame at t is taken when start <= t < end; a word [s, e] when s < end and e >= start
    seg = Segment("s", "r", *span, "train")
    assert seg.rows(np.array(starts), None if ends is None else np.array(ends)).tolist() == taken


class TestGridTimestamps:
    def test_regular_rate(self):
        assert np.array_equal(grid_timestamps_ms(4, 4.0), [0, 250, 500, 750])

    def test_rounding_at_3hz(self):
        assert np.array_equal(grid_timestamps_ms(5, 3.0), [0, 333, 667, 1000, 1333])
