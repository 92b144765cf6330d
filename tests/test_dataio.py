from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from affectfuse.align import WarpPath
from affectfuse.core import AnnotationTrace, grid_timestamps_ms
from affectfuse.dataio import (
    FeatureSequence,
    Partition,
    Segment,
    WindowSpec,
    align_to_labels,
    list_recordings,
    merge_segments,
    read_annotation_csv,
    read_feature_csv,
    read_gold_csv,
    read_labels_csv,
    read_logits_csv,
    read_partition_csv,
    read_prediction_csv,
    read_rater_set,
    read_segments_csv,
    slice_by_span,
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


class TestAnnotationRoundTrip:
    def test_roundtrip_preserves_values_and_rate(self, tmp_path):
        rng = np.random.default_rng(1)
        trace = AnnotationTrace(
            rater_id="r0", sample_rate_hz=4.0, values=rng.normal(size=37), kind="valence"
        )
        path = tmp_path / "r0.csv"
        write_annotation_csv(path, trace)
        back = read_annotation_csv(path, rater_id="r0", kind="valence")
        assert np.array_equal(back.values, trace.values)
        assert back.sample_rate_hz == 4.0

    def test_odd_rate_grid_wobble_tolerated(self, tmp_path):
        # 3 Hz -> 333/334 ms steps after rounding; the reader must accept it
        trace = AnnotationTrace(
            rater_id="r0", sample_rate_hz=3.0, values=np.arange(30.0), kind="arousal"
        )
        path = tmp_path / "r0.csv"
        write_annotation_csv(path, trace)
        back = read_annotation_csv(path, rater_id="r0", kind="arousal")
        assert back.sample_rate_hz == pytest.approx(3.0, rel=0.01)

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
        assert [t.rater_id for t in rs.traces] == ["alpha", "mid", "zeta"]
        assert rs.recording_id == "rec1"

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
    "feature": "timestamp_ms,f0\n0,0.1\n",
    "gold": "timestamp_ms,value\n0,0.1\n500,0.2\n",
    "prediction": "timestamp_ms,pred\n0,0.1\n",
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


@pytest.mark.parametrize("reader", ["annotation", "gold"])
def test_grid_readers_need_two_samples(tmp_path, reader):
    path = tmp_path / "one.csv"
    path.write_text("timestamp_ms,value\n0,0.5\n")
    with pytest.raises(DataError, match="one.csv: a timestamp grid needs at least 2 timestamps"):
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
        lambda p: read_annotation_csv(p, "r", "arousal").values,
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


class TestUniformStep:
    def test_wobbling_grid_gives_median_step(self):
        assert uniform_step_ms(grid_timestamps_ms(10, 3.0)) == 333.0
        assert uniform_step_ms(np.array([0, 500, 1000])) == 500.0

    @pytest.mark.parametrize(
        "ts", [[0], [0, 250, 250, 500], [500, 250, 0]], ids=["single", "repeat", "decreasing"]
    )
    def test_bad_grids_rejected(self, ts):
        with pytest.raises(ParameterError):
            uniform_step_ms(np.array(ts))


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


class TestMergeSegments:
    def test_merges_within_gap(self):
        segs = [
            Segment("s1", "rec", 0, 1000, "train"),
            Segment("s2", "rec", 2500, 4000, "train"),
        ]
        out = merge_segments(segs, max_gap_ms=2000)
        assert len(out) == 1
        assert out[0].segment_id == "s1"
        assert out[0].start_ms == 0 and out[0].end_ms == 4000

    def test_gap_equal_to_max_not_merged(self):
        segs = [
            Segment("s1", "rec", 0, 1000, "train"),
            Segment("s2", "rec", 3000, 4000, "train"),
        ]
        assert len(merge_segments(segs, max_gap_ms=2000)) == 2

    def test_different_recordings_never_merge(self):
        segs = [
            Segment("s1", "recA", 0, 1000, "train"),
            Segment("s2", "recB", 1100, 2000, "train"),
        ]
        assert len(merge_segments(segs, max_gap_ms=5000)) == 2

    def test_different_partitions_never_merge(self):
        segs = [
            Segment("s1", "rec", 0, 1000, "train"),
            Segment("s2", "rec", 1100, 2000, "devel"),
        ]
        assert len(merge_segments(segs, max_gap_ms=5000)) == 2

    def test_chain_merge(self):
        segs = [
            Segment("s1", "rec", 0, 1000, "train"),
            Segment("s2", "rec", 1500, 2500, "train"),
            Segment("s3", "rec", 3000, 4000, "train"),
        ]
        out = merge_segments(segs, max_gap_ms=1000)
        assert len(out) == 1
        assert out[0].end_ms == 4000

    def test_custom_grouping(self):
        segs = [
            Segment("s1", "recA", 0, 1000, "train"),
            Segment("s2", "recB", 1100, 2000, "train"),
        ]
        out = merge_segments(segs, max_gap_ms=5000, same_group=lambda a, b: True)
        assert len(out) == 1


class TestSliceBySpan:
    def test_half_open_bounds(self):
        ts = np.array([0, 250, 500, 750, 1000])
        mask = slice_by_span(ts, 250, 750)
        assert np.array_equal(mask, [False, True, True, False, False])

    def test_empty_span(self):
        ts = np.array([0, 250, 500])
        assert slice_by_span(ts, 600, 700).sum() == 0


class TestGridTimestamps:
    def test_regular_rate(self):
        assert np.array_equal(grid_timestamps_ms(4, 4.0), [0, 250, 500, 750])

    def test_rounding_at_3hz(self):
        assert np.array_equal(grid_timestamps_ms(5, 3.0), [0, 333, 667, 1000, 1333])
