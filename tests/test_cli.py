from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectfuse import cli
from affectfuse.cli import build_parser, main
from affectfuse.dataio import (
    FeatureSequence,
    read_gold_csv,
    read_labels_csv,
    read_partition_csv,
    read_prediction_csv,
    read_segments_csv,
    write_feature_csv,
)
from affectfuse.latefusion import REGRESSION_FUSION
from affectfuse.seqmodel import evaluate, load_checkpoint


def _values(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            out[key] = value
    return out


def _sidecar(gold_csv: Path) -> dict:
    return json.loads(gold_csv.with_suffix(".json").read_text())


def _tree_digest(root: Path) -> list[tuple[str, str]]:
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return [
        (str(p.relative_to(root)), hashlib.sha256(p.read_bytes()).hexdigest()) for p in files
    ]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A small synthetic corpus plus fused gold, shared by the module."""
    root = tmp_path_factory.mktemp("corpus")
    rc = main(
        [
            "synth",
            "--out",
            str(root / "data"),
            "--recordings",
            "8",
            "--duration",
            "40",
            "--rate",
            "2",
            "--raters",
            "3",
            "--feature-dim",
            "4",
            "--seed",
            "77",
        ]
    )
    assert rc == 0
    rc = main(
        [
            "raaw",
            "--annotations",
            str(root / "data" / "annotations"),
            "--kind",
            "arousal",
            "--out",
            str(root / "gold"),
        ]
    )
    assert rc == 0
    return root


class TestSynth:
    def test_reports_and_writes(self, tmp_path, capsys):
        rc = main(
            [
                "synth",
                "--out",
                str(tmp_path / "c"),
                "--recordings",
                "2",
                "--duration",
                "20",
                "--raters",
                "2",
                "--seed",
                "5",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        vals = _values(captured.out)
        assert vals["recordings"] == "2"
        assert vals["feature_sets"] == "modal_a,modal_b"
        assert (tmp_path / "c" / "partitions.csv").is_file()

    def test_bad_parameter_exits_2(self, tmp_path, capsys):
        rc = main(
            ["synth", "--out", str(tmp_path / "c"), "--recordings", "0"]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_repeated_feature_set_exit_2_naming_it(self, tmp_path, capsys, source):
        argv = ["synth", "--out", str(tmp_path / "c"), "--recordings", "1", "--duration", "20"]
        if source == "flag":
            argv += ["--feature-sets", "a,b, a"]
        else:
            (tmp_path / "run.cfg").write_text("feature-sets = a,b, a\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        rc = main(argv)
        assert rc == 2
        assert "argument --feature-sets: names the set 'a' twice" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_unknown_subcommand_exits_2(self):
        assert main(["mystery"]) == 2


class TestRaaw:
    def test_gold_files_with_sidecars(self, corpus, capsys):
        out = corpus / "gold"
        files = sorted(out.glob("*.csv"))
        assert len(files) == 8
        for f in files:
            ts, vals = read_gold_csv(f)
            meta = _sidecar(f)
            assert ts.size == vals.size == 81
            assert "weights" in meta
            assert meta["converged"] in (True, False)
            assert meta["iterations"] >= 1
            assert meta["stop_reason"] in ("converged", "stalled", "max_iter")
            assert meta["converged"] == (meta["stop_reason"] == "converged")
            assert len(meta["objective"]) == len(meta["max_delta"]) == meta["iterations"]
            assert (meta["max_delta"][-1] < meta["fusion"]["tol"]) == meta["converged"]
            assert meta["fusion"] == {"band": None, "max_iter": 20, "reference": "mean", "tol": 1e-4}

    def test_parallel_jobs_byte_identical(self, corpus, tmp_path):
        ann = corpus / "data" / "annotations"
        rc = main(
            ["raaw", "--annotations", str(ann), "--kind", "arousal", "--out", str(tmp_path / "g1")]
        )
        assert rc == 0
        rc = main(
            [
                "raaw",
                "--annotations",
                str(ann),
                "--kind",
                "arousal",
                "--out",
                str(tmp_path / "g2"),
                "--jobs",
                "3",
            ]
        )
        assert rc == 0
        assert _tree_digest(tmp_path / "g1") == _tree_digest(tmp_path / "g2")

    def test_agreement_reported(self, corpus, tmp_path, capsys):
        ann = corpus / "data" / "annotations"
        rc = main(
            ["raaw", "--annotations", str(ann), "--kind", "arousal", "--out", str(tmp_path / "g")]
        )
        captured = capsys.readouterr()
        assert rc == 0
        vals = _values(captured.out)
        assert float(vals["agreement_mean"]) > 0.9
        assert vals["recordings"] == "8"

    def test_dump_paths(self, corpus, tmp_path):
        ann = corpus / "data" / "annotations"
        rc = main(
            [
                "raaw",
                "--annotations",
                str(ann),
                "--kind",
                "arousal",
                "--out",
                str(tmp_path / "g"),
                "--dump-paths",
                str(tmp_path / "paths"),
            ]
        )
        assert rc == 0
        dumps = sorted((tmp_path / "paths").rglob("*.csv"))
        assert len(dumps) == 24  # 8 recordings x 3 raters
        assert dumps[0].read_text().splitlines()[0] == "src_idx,ref_idx"

    def test_missing_annotations_exit_3(self, tmp_path, capsys):
        rc = main(
            [
                "raaw",
                "--annotations",
                str(tmp_path / "nowhere"),
                "--kind",
                "arousal",
                "--out",
                str(tmp_path / "g"),
            ]
        )
        assert rc == 3
        assert "data error:" in capsys.readouterr().err

    def test_single_rater_names_recording(self, tmp_path, capsys):
        ann = tmp_path / "ann" / "rec_x" / "arousal"
        ann.mkdir(parents=True)
        ts = np.arange(20) * 500
        lines = ["timestamp_ms,value"] + [f"{t},{np.sin(t / 2000.0)}" for t in ts]
        (ann / "r0.csv").write_text("\n".join(lines) + "\n")
        rc = main(
            [
                "raaw",
                "--annotations",
                str(tmp_path / "ann"),
                "--kind",
                "arousal",
                "--out",
                str(tmp_path / "g"),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 3
        assert "rec_x" in captured.err

    @pytest.mark.parametrize("command", ["raaw", "physio"])
    def test_one_rater_file_exit_3_naming_the_folder(self, tmp_path, capsys, command):
        synth_argv = ["synth", "--out", str(tmp_path / "data"), "--recordings", "2", "--duration", "20",
                      "--raters", "1", "--feature-dim", "2", "--seed", "5"]
        assert main(synth_argv) == 0
        rc = main(_fusion_argv(command, tmp_path, tmp_path / "g"))
        captured = capsys.readouterr()
        assert rc == 3
        assert f"{tmp_path / 'data' / 'annotations' / 'rec_000' / 'arousal'}: " in captured.err
        assert not (tmp_path / "g").exists()


class TestPhysio:
    def test_runs_and_records_substitution(self, corpus, tmp_path, capsys):
        rc = main(
            [
                "physio",
                "--annotations",
                str(corpus / "data" / "annotations"),
                "--kind",
                "arousal",
                "--eda",
                str(corpus / "data" / "eda"),
                "--out",
                str(tmp_path / "pg"),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert float(_values(captured.out)["agreement_mean"]) > 0.5
        meta = _sidecar(sorted((tmp_path / "pg").glob("*.csv"))[0])
        assert meta["sg_window"] == 26
        assert meta["target_hz"] == 2.0  # the EDA is resampled to the label rate
        assert any(r.startswith("physio:") for r in meta["rater_ids"])
        assert meta["removed_rater"] not in meta["rater_ids"]

    def test_missing_eda_file_named(self, corpus, tmp_path, capsys):
        eda_dir = tmp_path / "eda_partial"
        eda_dir.mkdir()
        src = sorted((corpus / "data" / "eda").glob("*.csv"))[0]
        (eda_dir / src.name).write_text(src.read_text())
        rc = main(
            [
                "physio",
                "--annotations",
                str(corpus / "data" / "annotations"),
                "--kind",
                "arousal",
                "--eda",
                str(eda_dir),
                "--out",
                str(tmp_path / "pg"),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 3
        assert "missing file" in captured.err and "rec_001.csv" in captured.err


def _fusion_argv(command: str, corpus: Path, out: Path) -> list[str]:
    argv = [command, "--annotations", str(corpus / "data" / "annotations"), "--kind", "arousal",
            "--out", str(out)]
    return argv + ["--eda", str(corpus / "data" / "eda")] if command == "physio" else argv


class TestNonFiniteTol:
    @pytest.mark.parametrize("tol", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["raaw", "physio"])
    def test_flag_exit_2(self, corpus, tmp_path, capsys, command, tol):
        rc = main(_fusion_argv(command, corpus, tmp_path / "g") + ["--tol", tol])
        captured = capsys.readouterr()
        assert rc == 2
        assert "argument --tol: expected a finite number" in captured.err
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("command", ["raaw", "physio"])
    def test_config_exit_2(self, corpus, tmp_path, capsys, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol = nan\n")
        rc = main(_fusion_argv(command, corpus, tmp_path / "g") + ["--config", str(cfg)])
        assert rc == 2
        assert "argument --tol: expected a finite number" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()


class TestDiscretize:
    def test_labels_and_report(self, corpus, tmp_path, capsys):
        rc = main(
            [
                "discretize",
                "--gold",
                str(corpus / "gold"),
                "--segments",
                str(corpus / "data" / "segments.csv"),
                "--target",
                "arousal",
                "--method",
                "kmeans",
                "--out",
                str(tmp_path / "labels.csv"),
                "--model-out",
                str(tmp_path / "classes.json"),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        vals = _values(captured.out)
        assert "silhouette" in vals
        assert vals["min_share_ok"] in ("True", "False")
        counts = [int(c) for c in vals["class_counts"].split(",")]
        assert len(counts) == 5
        labels = read_labels_csv(tmp_path / "labels.csv")
        segs = read_segments_csv(corpus / "data" / "segments.csv")
        assert set(labels) == {s.segment_id for s in segs}
        assert sum(counts) == len(labels)
        payload = json.loads((tmp_path / "classes.json").read_text())
        assert payload["kind"] == "class_model"

    def test_missing_gold_dir_exit_3(self, corpus, tmp_path):
        rc = main(
            [
                "discretize",
                "--gold",
                str(tmp_path / "nope"),
                "--segments",
                str(corpus / "data" / "segments.csv"),
                "--target",
                "arousal",
                "--out",
                str(tmp_path / "labels.csv"),
            ]
        )
        assert rc == 3

    @staticmethod
    def _rewritten_segments(corpus: Path, tmp_path: Path, edit) -> Path:
        """A copy of the corpus segments file with ``edit`` applied to its data rows."""
        header, *rows = (corpus / "data" / "segments.csv").read_text().splitlines()
        path = tmp_path / "segments.csv"
        path.write_text("\n".join([header, *edit(rows)]) + "\n")
        return path

    def _run(self, corpus, tmp_path, capsys, segments: Path) -> str:
        rc = main(["discretize", "--gold", str(corpus / "gold"), "--segments", str(segments),
                   "--target", "arousal", "--method", "kmeans", "--out", str(tmp_path / "labels.csv")])
        captured = capsys.readouterr()
        assert rc == 3
        assert "Traceback" not in captured.err
        assert not (tmp_path / "labels.csv").exists()
        return captured.err

    def test_segment_under_two_gold_samples_names_both_files(self, corpus, tmp_path, capsys):
        # the gold grid steps 500 ms, so 0-400 ms holds one sample
        first = read_segments_csv(corpus / "data" / "segments.csv")[0]
        segments = self._rewritten_segments(
            corpus, tmp_path,
            lambda rows: [f"{first.segment_id},{first.recording_id},0,400,{first.partition}", *rows[1:]],
        )
        err = self._run(corpus, tmp_path, capsys, segments)
        gold = corpus / "gold" / f"{first.recording_id}.csv"
        assert (f"{segments}: segment '{first.segment_id}': {gold}: "
                "segment_features needs a 1-d segment of length >= 2, got shape (1,)") in err

    def test_too_few_train_segments_names_the_segments_file(self, corpus, tmp_path, capsys):
        def keep_three_train(rows):
            train = [r for r in rows if r.endswith(",train")]
            return train[:3] + [r for r in rows if not r.endswith(",train")]

        segments = self._rewritten_segments(corpus, tmp_path, keep_three_train)
        err = self._run(corpus, tmp_path, capsys, segments)
        assert f"{segments}: {corpus / 'gold'}: fit_pca needs at least 6 rows, got 3" in err

    def test_more_classes_than_distinct_train_segments_names_the_segments_file(self, corpus, tmp_path, capsys):
        segments = corpus / "data" / "segments.csv"
        n_train = sum(s.partition == "train" for s in read_segments_csv(segments))
        rc = main(["discretize", "--gold", str(corpus / "gold"), "--segments", str(segments), "--target", "arousal",
                   "--classes", str(n_train + 1), "--out", str(tmp_path / "labels.csv")])
        captured = capsys.readouterr()
        assert rc == 3
        assert (f"{segments}: {corpus / 'gold'}: need at least {n_train + 1} points for {n_train + 1} components, "
                f"got {n_train}") in captured.err
        assert not (tmp_path / "labels.csv").exists()

    @pytest.mark.parametrize("classes", [0, 1])
    def test_fewer_than_two_classes_exit_2_before_reading(self, tmp_path, capsys, classes):
        # neither input exists: reading either would exit 3
        rc = main(["discretize", "--gold", str(tmp_path / "gold"), "--segments", str(tmp_path / "s.csv"),
                   "--target", "valence", "--classes", str(classes), "--out", str(tmp_path / "labels.csv")])
        assert rc == 2
        assert f"argument --classes: must be >= 2, got {classes}" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    """Two tiny regression models on the two synthetic feature sets."""
    root = tmp_path_factory.mktemp("trained")
    for fset in ("modal_a", "modal_b"):
        rc = main(
            [
                "train",
                "--task",
                "stress",
                "--features",
                str(corpus / "data" / "features" / fset),
                "--gold",
                str(corpus / "gold"),
                "--partitions",
                str(corpus / "data" / "partitions.csv"),
                "--out",
                str(root / fset),
                "--window",
                "30",
                "--hop",
                "15",
                "--hidden",
                "8",
                "--epochs",
                "3",
                "--patience",
                "3",
                "--batch",
                "4",
                "--seed",
                "9",
            ]
        )
        assert rc == 0
    return root


class TestTrainRegression:
    def test_artifacts_written(self, corpus, trained, capsys):
        out = trained / "modal_a"
        assert (out / "model.json").is_file()
        assert (out / "history.csv").is_file()
        for split in ("train", "devel", "test"):
            preds = sorted((out / "preds" / split).glob("*.csv"))
            assert preds, f"no predictions for {split}"
        # prediction length matches the gold grid
        ts, _ = read_prediction_csv(sorted((out / "preds" / "devel").glob("*.csv"))[0])
        assert ts.size == 81

    def test_history_csv_shape(self, trained):
        lines = (trained / "modal_a" / "history.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,devel_metric"
        assert len(lines) == 4  # 3 epochs

    def test_missing_gold_flag_exit_2(self, corpus, tmp_path, capsys):
        rc = main(
            [
                "train",
                "--task",
                "stress",
                "--features",
                str(corpus / "data" / "features" / "modal_a"),
                "--out",
                str(tmp_path / "m"),
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_huge_gold_values_exit_4(self, corpus, tmp_path, capsys):
        # gold values overflow the loss -> numeric failure, not a crash
        bad_gold = tmp_path / "gold"
        for f in sorted((corpus / "gold").glob("*.csv")):
            ts, _ = read_gold_csv(f)
            lines = ["timestamp_ms,value"]
            lines += [f"{int(t)},{1e200 * (1 if i % 2 else -1)}" for i, t in enumerate(ts)]
            (bad_gold / f.name).parent.mkdir(parents=True, exist_ok=True)
            (bad_gold / f.name).write_text("\n".join(lines) + "\n")
        rc = main(
            [
                "train",
                "--task",
                "stress",
                "--features",
                str(corpus / "data" / "features" / "modal_a"),
                "--gold",
                str(bad_gold),
                "--partitions",
                str(corpus / "data" / "partitions.csv"),
                "--out",
                str(tmp_path / "m"),
                "--hidden",
                "4",
                "--epochs",
                "2",
                "--lr",
                "1e-2",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 4
        assert "numeric error:" in captured.err


class TestEvalRegression:
    def test_scores_predictions(self, corpus, trained, capsys):
        rc = main(
            [
                "eval",
                "--pred",
                str(trained / "modal_a" / "preds" / "devel"),
                "--gold",
                str(corpus / "gold"),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        vals = _values(captured.out)
        assert -1.0 <= float(vals["ccc"]) <= 1.0

    def test_two_target_combined(self, corpus, trained, capsys):
        rc = main(
            [
                "eval",
                "--pred",
                str(trained / "modal_a" / "preds" / "devel"),
                "--gold",
                str(corpus / "gold"),
                "--name",
                "arousal",
                "--pred2",
                str(trained / "modal_b" / "preds" / "devel"),
                "--gold2",
                str(corpus / "gold"),
                "--name2",
                "valence",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        vals = _values(captured.out)
        expected = (float(vals["arousal"]) + float(vals["valence"])) / 2.0
        assert float(vals["combined"]) == pytest.approx(expected, abs=1e-6)

    def test_per_recording_table_on_stderr(self, corpus, trained, capsys):
        rc = main(
            [
                "eval",
                "--pred",
                str(trained / "modal_a" / "preds" / "devel"),
                "--gold",
                str(corpus / "gold"),
                "--per-recording",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "rec_" in captured.err

    def test_needs_some_input_exit_2(self):
        assert main(["eval"]) == 2

    @pytest.mark.parametrize("mode", ["regression", "labels"])
    def test_fewer_than_two_classes_exit_2_before_reading(self, tmp_path, capsys, mode):
        # none of the inputs exists: reading any would exit 3
        inputs = ["--pred", "--gold"] if mode == "regression" else ["--pred-labels", "--gold-labels"]
        rc = main(["eval", *(a for flag in inputs for a in (flag, str(tmp_path / flag[2:]))), "--classes", "1"])
        assert rc == 2
        assert "argument --classes: must be >= 2, got 1" in capsys.readouterr().err


class TestSentPath:
    @pytest.fixture(scope="class")
    @staticmethod
    def sent_run(corpus, tmp_path_factory):
        root = tmp_path_factory.mktemp("sent")
        rc = main(
            [
                "discretize",
                "--gold",
                str(corpus / "gold"),
                "--segments",
                str(corpus / "data" / "segments.csv"),
                "--target",
                "arousal",
                "--method",
                "kmeans",
                "--out",
                str(root / "labels.csv"),
            ]
        )
        assert rc == 0
        for fset in ("modal_a", "modal_b"):
            rc = main(
                [
                    "train",
                    "--task",
                    "sent",
                    "--features",
                    str(corpus / "data" / "features" / fset),
                    "--segments",
                    str(corpus / "data" / "segments.csv"),
                    "--labels",
                    str(root / "labels.csv"),
                    "--out",
                    str(root / fset),
                    "--hidden",
                    "8",
                    "--epochs",
                    "3",
                    "--patience",
                    "3",
                    "--batch",
                    "8",
                    "--seed",
                    "9",
                ]
            )
            assert rc == 0
        return root

    def test_sent_training_artifacts(self, sent_run):
        out = sent_run / "modal_a"
        assert (out / "model.json").is_file()
        for split in ("train", "devel", "test"):
            assert (out / "preds" / f"{split}_labels.csv").is_file()
            logits = (out / "preds" / f"{split}_logits.csv").read_text().splitlines()
            assert logits[0].startswith("segment_id,l0")

    def test_eval_classification(self, sent_run, corpus, capsys):
        rc = main(
            [
                "eval",
                "--pred-labels",
                str(sent_run / "modal_a" / "preds" / "devel_labels.csv"),
                "--gold-labels",
                str(sent_run / "labels.csv"),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        score = float(_values(captured.out)["macro_f1"])
        assert 0.0 <= score <= 1.0

    def test_fuse_late_sent(self, sent_run, capsys):
        rc = main(
            [
                "fuse-late",
                "--task",
                "sent",
                "--streams",
                str(sent_run / "modal_a" / "preds"),
                str(sent_run / "modal_b" / "preds"),
                "--gold-labels",
                str(sent_run / "labels.csv"),
                "--out",
                str(sent_run / "fused"),
                "--epochs",
                "3",
                "--patience",
                "3",
                "--batch",
                "8",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        vals = _values(captured.out)
        assert "devel_f1" in vals
        assert (sent_run / "fused" / "preds" / "devel_labels.csv").is_file()


def _logit_streams(root: Path, names, width: int = 5) -> Path:
    """Hand-written train/devel logits for each stream plus a labels CSV."""
    rng = np.random.default_rng(3)
    segs = {"train": [f"t{i}" for i in range(6)], "devel": [f"d{i}" for i in range(4)]}
    for name in names:
        (root / name).mkdir(parents=True, exist_ok=True)
        for split, ids in segs.items():
            rows = [f"{seg}," + ",".join(f"{v:.3f}" for v in rng.normal(size=width)) for seg in ids]
            header = "segment_id," + ",".join(f"l{k}" for k in range(width))
            (root / name / f"{split}_logits.csv").write_text("\n".join([header, *rows]) + "\n")
    labels = root / "labels.csv"
    ids = segs["train"] + segs["devel"]
    labels.write_text("segment_id,class\n" + "".join(f"{seg},{i % width}\n" for i, seg in enumerate(ids)))
    return labels


class TestFuseLateSentStreams:
    def test_clashing_names_keep_every_stream(self, tmp_path, monkeypatch, capsys):
        # relative dirs have no parent to qualify with: a, a, a1 must not collapse
        monkeypatch.chdir(tmp_path)
        _logit_streams(tmp_path, ["a", "a1"])
        rc = main(
            ["fuse-late", "--task", "sent", "--streams", "a", "a", "a1", "--gold-labels", "labels.csv",
             "--out", "fused", "--epochs", "1", "--batch", "4"]
        )
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert _values(captured.out)["streams"] == "a,a1,a11"
        model = json.loads((tmp_path / "fused" / "model.json").read_text())
        assert model["config"]["input_dim"] == 3 * 5

    def test_seven_class_streams(self, tmp_path, capsys):
        labels = _logit_streams(tmp_path, ["a", "b"], width=7)
        assert ",6\n" in labels.read_text()
        rc = main(
            ["fuse-late", "--task", "sent", "--streams", str(tmp_path / "a"), str(tmp_path / "b"),
             "--gold-labels", str(labels), "--out", str(tmp_path / "fused"), "--epochs", "1"]
        )
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        model = json.loads((tmp_path / "fused" / "model.json").read_text())
        assert model["config"]["n_classes"] == 7
        assert model["config"]["input_dim"] == 2 * 7

    def test_gold_class_beyond_logit_width_exit_3(self, tmp_path, capsys):
        labels = _logit_streams(tmp_path, ["a", "b"])
        labels.write_text(labels.read_text().replace("t3,3", "t3,7"))
        rc = main(
            ["fuse-late", "--task", "sent", "--streams", str(tmp_path / "a"), str(tmp_path / "b"),
             "--gold-labels", str(labels), "--out", str(tmp_path / "fused"), "--epochs", "1"]
        )
        captured = capsys.readouterr()
        assert rc == 3
        assert f"{labels}: segment 't3' has class 7, outside [0, 4]" in captured.err
        assert "Traceback" not in captured.err


    def _fuse(self, tmp_path, labels):
        return main(
            ["fuse-late", "--task", "sent", "--streams", str(tmp_path / "a"), str(tmp_path / "b"),
             "--gold-labels", str(labels), "--out", str(tmp_path / "fused"), "--epochs", "1"]
        )

    def test_split_file_only_one_stream_has_exit_3(self, tmp_path, capsys):
        labels = _logit_streams(tmp_path, ["a", "b"])
        shutil.copy(tmp_path / "a" / "devel_logits.csv", tmp_path / "a" / "test_logits.csv")
        rc = self._fuse(tmp_path, labels)
        captured = capsys.readouterr()
        assert rc == 3
        missing, present = tmp_path / "b" / "test_logits.csv", tmp_path / "a" / "test_logits.csv"
        assert f"{missing}: missing, but {present} exists" in captured.err
        assert "Traceback" not in captured.err

    def test_unlabelled_train_segment_exit_3(self, tmp_path, capsys):
        labels = _logit_streams(tmp_path, ["a", "b"])
        labels.write_text(labels.read_text().replace("t3,3\n", ""))
        rc = self._fuse(tmp_path, labels)
        captured = capsys.readouterr()
        assert rc == 3
        assert f"{tmp_path / 'a'}: {tmp_path / 'b'}: {labels}: no gold for train item 't3'" in captured.err
        assert "Traceback" not in captured.err

    def test_logit_width_differs_between_splits_exit_3(self, tmp_path, capsys):
        labels = _logit_streams(tmp_path, ["a", "b"])
        devel = tmp_path / "b" / "devel_logits.csv"
        header, *rows = devel.read_text().splitlines()
        devel.write_text("\n".join([header + ",l5", *(row + ",0.5" for row in rows)]) + "\n")
        rc = self._fuse(tmp_path, labels)
        captured = capsys.readouterr()
        assert rc == 3
        assert f"{devel}: 6 logit columns, but {tmp_path / 'b' / 'train_logits.csv'} has 5" in captured.err
        assert "Traceback" not in captured.err

    def test_segment_ids_differ_between_streams_exit_3(self, tmp_path, capsys):
        labels = _logit_streams(tmp_path, ["a", "b"])
        devel = tmp_path / "b" / "devel_logits.csv"
        devel.write_text("\n".join(devel.read_text().splitlines()[:-1]) + "\n")
        rc = self._fuse(tmp_path, labels)
        captured = capsys.readouterr()
        assert rc == 3
        assert f"{devel}: segment ids differ from {tmp_path / 'a' / 'devel_logits.csv'}" in captured.err
        assert not (tmp_path / "fused").exists()

    def test_segment_in_two_split_files_exit_3(self, tmp_path, capsys):
        # stacking reads one logit row per stream and segment; t0 in train and devel would give it two
        labels = _logit_streams(tmp_path, ["a", "b"])
        for name in ("a", "b"):
            train, devel = tmp_path / name / "train_logits.csv", tmp_path / name / "devel_logits.csv"
            devel.write_text(devel.read_text() + train.read_text().splitlines()[1] + "\n")
        rc = self._fuse(tmp_path, labels)
        captured = capsys.readouterr()
        assert rc == 3
        first, again = tmp_path / "a" / "train_logits.csv", tmp_path / "a" / "devel_logits.csv"
        assert f"data error: {again}: segment 't0' is also in {first}" in captured.err
        assert not (tmp_path / "fused").exists()


class TestFuseLateRegression:
    def test_fuses_two_streams(self, corpus, trained, tmp_path, capsys):
        rc = main(
            [
                "fuse-late",
                "--task",
                "stress",
                "--streams",
                str(trained / "modal_a" / "preds"),
                str(trained / "modal_b" / "preds"),
                "--gold",
                str(corpus / "gold"),
                "--partitions",
                str(corpus / "data" / "partitions.csv"),
                "--out",
                str(tmp_path / "fused"),
                "--epochs",
                "3",
                "--patience",
                "3",
                "--batch",
                "2",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        vals = _values(captured.out)
        assert "devel_ccc" in vals
        # parent-qualified names since both roots end in "preds"
        assert vals["streams"] == "modal_a_preds,modal_b_preds"
        for split in ("train", "devel", "test"):
            assert sorted((tmp_path / "fused" / "preds" / split).glob("*.csv"))

    def test_checkpoint_scores_the_streams_stacked_in_their_order(self, corpus, trained, tmp_path, capsys):
        streams = [trained / "modal_b" / "preds", trained / "modal_a" / "preds"]
        partitions = corpus / "data" / "partitions.csv"
        rc = main(["fuse-late", "--task", "stress", "--streams", *map(str, streams), "--gold", str(corpus / "gold"),
                   "--partitions", str(partitions), "--out", str(tmp_path / "fused"), "--epochs", "3", "--batch", "2"])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        model = load_checkpoint(tmp_path / "fused" / "model.json")
        assert model.config.input_dim == 2
        assert {k: getattr(model.config, k) for k in REGRESSION_FUSION} == REGRESSION_FUSION

        def devel_items(order):
            return [
                (np.stack([read_prediction_csv(d / "devel" / f"{rec}.csv")[1] for d in order], axis=1),
                 read_gold_csv(corpus / "gold" / f"{rec}.csv")[1])
                for rec in read_partition_csv(partitions).recordings("devel")
            ]

        devel_ccc = float(_values(captured.out)["devel_ccc"])
        assert devel_ccc == round(evaluate(model, devel_items(streams)), 6)
        assert devel_ccc != round(evaluate(model, devel_items(streams[::-1])), 6)

    def test_single_stream_exit_2(self, corpus, trained, tmp_path, capsys):
        rc = main(
            [
                "fuse-late",
                "--task",
                "stress",
                "--streams",
                str(trained / "modal_a" / "preds"),
                "--gold",
                str(corpus / "gold"),
                "--partitions",
                str(corpus / "data" / "partitions.csv"),
                "--out",
                str(tmp_path / "fused"),
            ]
        )
        assert rc == 2


class TestConfigFile:
    def test_config_sets_defaults_cli_wins(self, corpus, tmp_path, capsys):
        # rec_000 needs 5 refinement rounds to converge, so a cap below that
        # binds and the sidecar iteration count exposes the effective max-iter
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# fusion settings\nmax-iter = 2\n")
        rc = main(
            [
                "raaw",
                "--annotations",
                str(corpus / "data" / "annotations"),
                "--kind",
                "arousal",
                "--out",
                str(tmp_path / "g1"),
                "--config",
                str(cfg),
            ]
        )
        assert rc == 0
        meta = _sidecar(sorted((tmp_path / "g1").glob("*.csv"))[0])
        assert meta["iterations"] == 2
        assert meta["converged"] is False
        # explicit flag beats the config value
        rc = main(
            [
                "raaw",
                "--annotations",
                str(corpus / "data" / "annotations"),
                "--kind",
                "arousal",
                "--out",
                str(tmp_path / "g2"),
                "--config",
                str(cfg),
                "--max-iter",
                "3",
            ]
        )
        assert rc == 0
        meta = _sidecar(sorted((tmp_path / "g2").glob("*.csv"))[0])
        assert meta["iterations"] == 3

    def test_unknown_key_exit_2(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("warp-speed = 9\n")
        rc = main(
            [
                "raaw",
                "--annotations",
                str(corpus / "data" / "annotations"),
                "--kind",
                "arousal",
                "--out",
                str(tmp_path / "g"),
                "--config",
                str(cfg),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "warp_speed" in captured.err

    @pytest.mark.parametrize("line", ["config = {other}", "help = true"], ids=["config", "help"])
    def test_config_and_help_keys_are_unknown_exit_2(self, tmp_path, capsys, line):
        # both are dests of every subcommand, but neither is an option a config value can default
        (tmp_path / "other.cfg").write_text("name = other\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line.format(other=tmp_path / "other.cfg") + "\n")
        rc = main(["eval", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"unknown config key '{line.split()[0]}'" in captured.err

    @pytest.mark.parametrize("lines, key, first, again", [
        (["epochs = 1", "epochs = 2"], "epochs", 1, 2),
        (["epochs = 1", "# a comment", "l2 = 0", "epochs = 1"], "epochs", 1, 4),
        (["max-iter = 2", "max_iter = 3"], "max_iter", 1, 2),
    ], ids=["twice", "same-value", "dash-and-underscore"])
    def test_key_set_twice_exit_2_naming_both_lines(self, corpus, tmp_path, capsys, lines, key, first, again):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        rc = main(_train_argv(corpus, tmp_path / "out") + ["--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"error: {cfg}:{again}: config key {key!r} is already set on line {first}" in captured.err
        assert not (tmp_path / "out").exists()

    def test_missing_config_is_parameter_error(self, corpus, tmp_path):
        rc = main(
            [
                "raaw",
                "--annotations",
                str(corpus / "data" / "annotations"),
                "--kind",
                "arousal",
                "--out",
                str(tmp_path / "g"),
                "--config",
                str(tmp_path / "ghost.cfg"),
            ]
        )
        assert rc == 2


def _train_argv(corpus: Path, out: Path, gold: Path | None = None) -> list[str]:
    """A one-epoch ``train --task stress`` run that leaves --hidden and --bidirectional to defaults."""
    return ["train", "--task", "stress", "--features", str(corpus / "data" / "features" / "modal_a"),
            "--gold", str(gold or corpus / "gold"), "--partitions", str(corpus / "data" / "partitions.csv"),
            "--out", str(out), "--window", "30", "--hop", "15", "--epochs", "1", "--seed", "9"]


class TestConfigValueTypes:
    @pytest.mark.parametrize(
        ("line", "option"),
        [("hidden = 8.5", "--hidden"), ("band = 3.7", "--band"), ("bidirectional = yes", "'bidirectional'"),
         ("jobs = none", "'jobs'")],
    )
    def test_value_its_option_rejects_exit_2(self, corpus, tmp_path, capsys, line, option):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        argv = _fusion_argv("raaw", corpus, out) if option == "--band" else _train_argv(corpus, out)
        rc = main(argv + ["--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 2
        assert option in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists()

    def test_flag_true_turns_it_on(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bidirectional = TRUE\nhidden = 4\n")
        rc = main(_train_argv(corpus, tmp_path / "m") + ["--config", str(cfg)])
        assert rc == 0
        config = json.loads((tmp_path / "m" / "model.json").read_text())["config"]
        assert config["bidirectional"] is True
        assert config["hidden_dim"] == 4

    def test_sidecar_records_the_settings_used(self, corpus, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("band = 7\nreference = 1\ntol = 1e-3\n")
        out = tmp_path / "g"
        assert main(_fusion_argv("raaw", corpus, out) + ["--config", str(cfg)]) == 0
        fusion = _sidecar(sorted(out.glob("*.csv"))[0])["fusion"]
        assert fusion == {"max_iter": 20, "tol": 0.001, "band": 7, "reference": 1}

    def test_none_unsets_a_value(self, corpus, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("band = null\n")
        out = tmp_path / "g"
        assert main(_fusion_argv("raaw", corpus, out) + ["--band", "5", "--config", str(cfg)]) == 0
        assert _sidecar(sorted(out.glob("*.csv"))[0])["fusion"]["band"] == 5
        assert main(_fusion_argv("raaw", corpus, out) + ["--config", str(cfg)]) == 0
        assert _sidecar(sorted(out.glob("*.csv"))[0])["fusion"]["band"] is None

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed = \xff\n")
        rc = main(["synth", "--out", str(tmp_path / "out"), "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "run.cfg" in captured.err
        assert "Traceback" not in captured.err


class TestConfigChecksBeforeReading:
    @pytest.mark.parametrize(
        ("command", "line", "option"),
        [("raaw", "kind = bogus", "--kind"), ("discretize", "method = bogus", "--method"),
         ("train", "task = stress", "--task"), ("raaw", "out = {out}", "--out")],
        ids=["choices", "choices-late", "required", "required-out"],
    )
    def test_config_value_flags_would_reject_exit_2(self, corpus, tmp_path, capsys, command, line, option):
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line.format(out=out) + "\n")
        data = corpus / "data"
        argv = {
            "raaw": ["raaw", "--annotations", str(data / "annotations")],
            "discretize": ["discretize", "--gold", str(corpus / "gold"), "--segments", str(data / "segments.csv"),
                           "--target", "arousal", "--out", str(out / "labels.csv")],
            "train": ["train", "--features", str(data / "features" / "modal_a"), "--gold", str(corpus / "gold"),
                      "--partitions", str(data / "partitions.csv"), "--out", str(out)],
        }[command]
        if option == "--kind":
            argv += ["--out", str(out)]
        rc = main(argv + ["--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"config key '{option[2:]}'" in captured.err and option in captured.err
        assert not out.exists()


class TestDataRoot:
    def test_env_resolves_relative_paths(self, corpus, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("AFFECTFUSE_DATA_ROOT", str(corpus))
        rc = main(
            [
                "raaw",
                "--annotations",
                "data/annotations",
                "--kind",
                "arousal",
                "--out",
                str(tmp_path / "g"),
            ]
        )
        assert rc == 0
        assert sorted((tmp_path / "g").glob("*.csv"))

    def test_absolute_paths_ignore_env(self, corpus, tmp_path, monkeypatch):
        monkeypatch.setenv("AFFECTFUSE_DATA_ROOT", str(tmp_path / "bogus"))
        rc = main(
            [
                "raaw",
                "--annotations",
                str(corpus / "data" / "annotations"),
                "--kind",
                "arousal",
                "--out",
                str(tmp_path / "g"),
            ]
        )
        assert rc == 0


class TestBadInputExitCodes:
    def test_non_integer_label_exit_3(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_text("segment_id,class\ns0,1\ns1,x\n")
        gold = tmp_path / "gold.csv"
        gold.write_text("segment_id,class\ns0,1\ns1,2\n")
        rc = main(["eval", "--pred-labels", str(pred), "--gold-labels", str(gold)])
        captured = capsys.readouterr()
        assert rc == 3
        assert "pred.csv" in captured.err
        assert "Traceback" not in captured.err

    def test_predicted_segment_without_gold_label_exit_3(self, tmp_path, capsys):
        gold = tmp_path / "gold.csv"
        gold.write_text("segment_id,class\ns0,1\ns1,2\ns2,0\n")
        pred = tmp_path / "pred.csv"
        pred.write_text("segment_id,class\ns0,1\ns1,2\ns2,0\nseg_99999,1\n")
        rc = main(["eval", "--pred-labels", str(pred), "--gold-labels", str(gold)])
        captured = capsys.readouterr()
        assert rc == 3
        assert f"data error: {pred}: segment 'seg_99999' has no gold label in {gold}" in captured.err
        assert "macro_f1=" not in captured.out

    @pytest.mark.parametrize("command", ["discretize", "eval"])
    def test_empty_csv_exit_3(self, tmp_path, capsys, command):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        if command == "discretize":
            argv = [
                "discretize", "--gold", str(tmp_path / "gold"), "--segments", str(empty),
                "--target", "valence", "--out", str(tmp_path / "labels.csv"),
            ]
        else:
            gold = tmp_path / "gold.csv"
            gold.write_text("segment_id,class\ns0,1\n")
            argv = ["eval", "--pred-labels", str(empty), "--gold-labels", str(gold)]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 3
        assert "empty.csv" in captured.err

    def test_timestamp_beyond_int64_exit_3(self, tmp_path, capsys):
        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        (pred_dir / "rec.csv").write_text("timestamp_ms,pred\n0,0.1\n99999999999999999999999,0.2\n")
        rc = main(["eval", "--pred", str(pred_dir), "--gold", str(tmp_path / "gold")])
        captured = capsys.readouterr()
        assert rc == 3
        assert "rec.csv" in captured.err
        assert "Traceback" not in captured.err

    def test_class_beyond_int64_exit_3(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_text("segment_id,class\ns0,1\ns1,99999999999999999999999\n")
        gold = tmp_path / "gold.csv"
        gold.write_text("segment_id,class\ns0,1\ns1,2\n")
        rc = main(["eval", "--pred-labels", str(pred), "--gold-labels", str(gold)])
        captured = capsys.readouterr()
        assert rc == 3
        assert "pred.csv" in captured.err
        assert "Traceback" not in captured.err

    def test_feature_timestamp_beyond_int64_exit_3(self, corpus, tmp_path, capsys):
        features = tmp_path / "modal_a"
        features.mkdir()
        for f in sorted((corpus / "data" / "features" / "modal_a").glob("*.csv")):
            (features / f.name).write_text(f.read_text())
        bad = sorted(features.glob("*.csv"))[0]
        bad.write_text(bad.read_text() + "99999999999999999999999,0.1,0.2,0.3,0.4\n")
        rc = main(
            [
                "train", "--task", "stress", "--features", str(features),
                "--gold", str(corpus / "gold"), "--partitions", str(corpus / "data" / "partitions.csv"),
                "--out", str(tmp_path / "m"),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 3
        assert bad.name in captured.err
        assert "Traceback" not in captured.err

    def test_non_uniform_gold_grid_exit_3(self, corpus, tmp_path, capsys):
        gold = tmp_path / "gold"
        gold.mkdir()
        for f in sorted((corpus / "gold").glob("*.csv")):
            (gold / f.name).write_text(f.read_text())
        bad = sorted(gold.glob("*.csv"))[0]
        lines = bad.read_text().splitlines()
        t, _, v = lines[3].partition(",")
        lines[3] = f"{int(t) + 100},{v}"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(
            [
                "train", "--task", "stress", "--features", str(corpus / "data" / "features" / "modal_a"),
                "--gold", str(gold), "--partitions", str(corpus / "data" / "partitions.csv"),
                "--out", str(tmp_path / "m"),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 3
        assert bad.name in captured.err
        assert "uniform" in captured.err

    @pytest.mark.parametrize("task", ["stress", "sent"])
    def test_mixed_feature_widths_exit_3(self, corpus, tmp_path, capsys, task):
        features = tmp_path / "modal_a"
        features.mkdir()
        for f in sorted((corpus / "data" / "features" / "modal_a").glob("*.csv")):
            (features / f.name).write_text(f.read_text())
        bad = sorted(features.glob("*.csv"))[3]
        rows = [line.rsplit(",", 1)[0] for line in bad.read_text().splitlines()]
        bad.write_text("\n".join(rows) + "\n")
        argv = ["train", "--task", task, "--features", str(features), "--out", str(tmp_path / "m")]
        if task == "stress":
            argv += ["--gold", str(corpus / "gold"), "--partitions", str(corpus / "data" / "partitions.csv")]
        else:
            labels = tmp_path / "labels.csv"
            labels.write_text("segment_id,class\ns0,1\n")
            argv += ["--segments", str(corpus / "data" / "segments.csv"), "--labels", str(labels)]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 3
        assert f"{bad}: 3 feature columns" in captured.err
        assert "Traceback" not in captured.err

    def test_sent_missing_train_label_names_the_labels_file(self, corpus, tmp_path, capsys):
        segments = read_segments_csv(corpus / "data" / "segments.csv")
        first_train = next(s for s in segments if s.partition == "train")
        labels = tmp_path / "labels.csv"
        labels.write_text("segment_id,class\n" + "".join(
            f"{s.segment_id},{i % 5}\n" for i, s in enumerate(segments) if s is not first_train
        ))
        rc = main(["train", "--task", "sent", "--features", str(corpus / "data" / "features" / "modal_a"),
                   "--segments", str(corpus / "data" / "segments.csv"), "--labels", str(labels),
                   "--out", str(tmp_path / "out"), "--epochs", "1", "--hidden", "4"])
        captured = capsys.readouterr()
        assert rc == 3
        assert (f"{corpus / 'data' / 'features' / 'modal_a'}: {corpus / 'data' / 'segments.csv'}: {labels}: "
                f"no gold for train item '{first_train.segment_id}'") in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad", [1000, -1])
    def test_sent_class_beyond_segment_count_exit_3(self, corpus, tmp_path, capsys, bad):
        # the head is sized from the largest class, so a huge class id must not reach it
        segments = read_segments_csv(corpus / "data" / "segments.csv")
        labels = tmp_path / "labels.csv"
        labels.write_text("segment_id,class\n" + "".join(
            f"{s.segment_id},{bad if i == 1 else i % 5}\n" for i, s in enumerate(segments)
        ))
        rc = main(["train", "--task", "sent", "--features", str(corpus / "data" / "features" / "modal_a"),
                   "--segments", str(corpus / "data" / "segments.csv"), "--labels", str(labels),
                   "--out", str(tmp_path / "out"), "--epochs", "1", "--hidden", "4"])
        captured = capsys.readouterr()
        assert rc == 3
        assert f"labels.csv: segment '{segments[1].segment_id}' has class {bad}, outside [0, {len(segments) - 1}]" in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("which", ["pred", "gold"])
    def test_class_outside_range_exit_3(self, tmp_path, capsys, which):
        files = {"pred": "segment_id,class\ns0,1\ns1,3\n", "gold": "segment_id,class\ns0,1\ns1,2\n"}
        files[which] = "segment_id,class\ns0,1\ns1,-1\n" if which == "pred" else "segment_id,class\ns0,5\ns1,2\n"
        for name, text in files.items():
            (tmp_path / f"{name}.csv").write_text(text)
        rc = main(
            ["eval", "--pred-labels", str(tmp_path / "pred.csv"), "--gold-labels", str(tmp_path / "gold.csv"),
             "--classes", "5"]
        )
        captured = capsys.readouterr()
        assert rc == 3
        assert f"{which}.csv" in captured.err
        assert "outside [0, 4]" in captured.err

    def test_corrupt_gold_sidecar_is_ignored(self, corpus, trained, tmp_path, capsys):
        runs = {}
        for name, sidecar in (("valid", None), ("corrupt", "{not json")):
            gold = tmp_path / name
            gold.mkdir()
            for f in sorted((corpus / "gold").glob("*")):
                (gold / f.name).write_text(sidecar if f.suffix == ".json" and sidecar else f.read_text())
            assert main(["eval", "--pred", str(trained / "modal_a" / "preds" / "devel"), "--gold", str(gold)]) == 0
            rc = main(
                [
                    "train", "--task", "stress", "--features", str(corpus / "data" / "features" / "modal_a"),
                    "--gold", str(gold), "--partitions", str(corpus / "data" / "partitions.csv"),
                    "--out", str(tmp_path / "m"), "--window", "30", "--hop", "15",
                    "--hidden", "4", "--epochs", "2", "--seed", "9",
                ]
            )
            assert rc == 0
            runs[name] = capsys.readouterr()
        assert "{not json" in (tmp_path / "corrupt" / "rec_000.json").read_text()
        assert runs["corrupt"].out == runs["valid"].out
        assert "Traceback" not in runs["corrupt"].err


    def test_non_utf8_prediction_exit_3(self, corpus, trained, tmp_path, capsys):
        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        src = sorted((trained / "modal_a" / "preds" / "devel").glob("*.csv"))[0]
        (pred_dir / src.name).write_bytes(src.read_bytes() + b"\xff\xfe")
        rc = main(["eval", "--pred", str(pred_dir), "--gold", str(corpus / "gold")])
        captured = capsys.readouterr()
        assert rc == 3
        assert f"{src.name}: not UTF-8" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("which", ["pred", "gold"])
    def test_non_finite_eval_row_exit_3(self, corpus, trained, tmp_path, capsys, which):
        dirs = {"pred": trained / "modal_a" / "preds" / "devel", "gold": corpus / "gold"}
        rec = sorted(dirs["pred"].glob("*.csv"))[0].name
        copy = tmp_path / which
        copy.mkdir()
        for f in dirs[which].glob("*.csv"):
            (copy / f.name).write_text(f.read_text())
        lines = (copy / rec).read_text().splitlines()
        lines[2] = lines[2].split(",")[0] + ",nan"
        (copy / rec).write_text("\n".join(lines) + "\n")
        dirs[which] = copy
        rc = main(["eval", "--pred", str(dirs["pred"]), "--gold", str(dirs["gold"])])
        captured = capsys.readouterr()
        assert rc == 3
        assert f"{rec}: non-finite value in data row 2" in captured.err
        assert "ccc=" not in captured.out

    @pytest.mark.parametrize("change", ["nan row", "one row"])
    def test_bad_train_gold_exit_3(self, corpus, tmp_path, capsys, change):
        gold = tmp_path / "gold"
        gold.mkdir()
        for f in sorted((corpus / "gold").glob("*.csv")):
            (gold / f.name).write_text(f.read_text())
        bad = gold / "rec_000.csv"  # a train recording
        lines = bad.read_text().splitlines()
        lines = lines[:2] if change == "one row" else lines[:3] + [lines[3].split(",")[0] + ",nan"] + lines[4:]
        bad.write_text("\n".join(lines) + "\n")
        rc = main(_train_argv(corpus, tmp_path / "m", gold))
        captured = capsys.readouterr()
        assert rc == 3
        assert "rec_000.csv" in captured.err

    def test_one_row_annotations_exit_3(self, corpus, tmp_path, capsys):
        ann = tmp_path / "ann"
        for f in sorted((corpus / "data" / "annotations").rglob("*.csv")):
            dest = ann / f.relative_to(corpus / "data" / "annotations")
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_text(f.read_text())
        bad = ann / "rec_000" / "arousal" / "r1.csv"
        bad.write_text("\n".join(bad.read_text().splitlines()[:2]) + "\n")
        rc = main(["raaw", "--annotations", str(ann), "--kind", "arousal", "--out", str(tmp_path / "g")])
        captured = capsys.readouterr()
        assert rc == 3
        assert f"{bad}: a timestamp grid needs at least 2 timestamps" in captured.err


    def test_eda_spanning_far_beyond_the_annotations_exit_3(self, corpus, tmp_path, capsys):
        # two samples 10^10 ms apart: resampling the span they claim took about 0.5 GB
        ann = tmp_path / "ann"
        shutil.copytree(corpus / "data" / "annotations" / "rec_000", ann / "rec_000")
        eda = tmp_path / "eda" / "rec_000.csv"
        eda.parent.mkdir()
        eda.write_text("timestamp_ms,value\n0,0.1\n10000000000,0.2\n")
        argv = ["physio", "--annotations", str(ann), "--kind", "arousal", "--eda", str(eda.parent),
                "--out", str(tmp_path / "g")]
        tracemalloc.start()
        try:
            rc = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert rc == 3
        assert f"{eda}: EDA trace 'rec_000' spans 1e+07 s" in captured.err
        assert peak < 20e6

    @staticmethod
    def _cut_three_rows(path: Path) -> None:
        path.write_text("\n".join(path.read_text().splitlines()[:-3]) + "\n")

    def test_prediction_length_other_than_gold_exit_3(self, corpus, trained, tmp_path, capsys):
        pred_dir = tmp_path / "pred"
        shutil.copytree(trained / "modal_a" / "preds" / "devel", pred_dir)
        cut = sorted(pred_dir.glob("*.csv"))[0]
        self._cut_three_rows(cut)
        rc = main(["eval", "--pred", str(pred_dir), "--gold", str(corpus / "gold")])
        captured = capsys.readouterr()
        assert rc == 3
        assert f"{cut}: " in captured.err
        assert "ccc=" not in captured.out

    def test_stream_length_other_than_the_others_exit_3(self, corpus, trained, tmp_path, capsys):
        stream = tmp_path / "short"
        shutil.copytree(trained / "modal_b" / "preds", stream)
        cut = sorted((stream / "train").glob("*.csv"))[0]
        self._cut_three_rows(cut)
        rc = main(
            ["fuse-late", "--task", "stress", "--streams", str(trained / "modal_a" / "preds"), str(stream),
             "--gold", str(corpus / "gold"), "--partitions", str(corpus / "data" / "partitions.csv"),
             "--out", str(tmp_path / "f"), "--epochs", "1"]
        )
        captured = capsys.readouterr()
        assert rc == 3
        assert f"{cut}: " in captured.err
        assert not (tmp_path / "f").exists()

    def test_gold_length_other_than_the_streams_exit_3(self, corpus, trained, tmp_path, capsys):
        gold = tmp_path / "gold"
        shutil.copytree(corpus / "gold", gold)
        stream = sorted((trained / "modal_a" / "preds" / "train").glob("*.csv"))[0]
        cut = gold / stream.name
        self._cut_three_rows(cut)
        rc = main(
            ["fuse-late", "--task", "stress", "--streams", str(trained / "modal_a" / "preds"),
             str(trained / "modal_b" / "preds"), "--gold", str(gold),
             "--partitions", str(corpus / "data" / "partitions.csv"), "--out", str(tmp_path / "f"), "--epochs", "1"]
        )
        captured = capsys.readouterr()
        assert rc == 3
        n = len(read_prediction_csv(stream)[0])
        assert f"{cut}: data row {n - 2} is missing, but in {stream} it is at " in captured.err
        assert not (tmp_path / "f").exists()


class TestDegenerateDataExit3:
    """Well-formed files too few or too degenerate for the computation exit 3, naming them."""

    def test_constant_prediction_file_exit_3(self, corpus, trained, tmp_path, capsys):
        pred = tmp_path / "pred"
        pred.mkdir()
        for src in sorted((trained / "modal_a" / "preds" / "devel").glob("*.csv")):
            ts, _ = read_prediction_csv(src)
            (pred / src.name).write_text("timestamp_ms,pred\n" + "".join(f"{t},0.5\n" for t in ts))
        rc = main(["eval", "--pred", str(pred), "--gold", str(corpus / "gold")])
        captured = capsys.readouterr()
        assert rc == 3
        assert f"data error: {pred}: {corpus / 'gold'}: ccc undefined: prediction is constant" in captured.err
        assert "Traceback" not in captured.err and "ccc=" not in captured.out

    def test_every_rater_file_constant_exit_3_before_writing(self, tmp_path, capsys):
        ann = tmp_path / "ann"
        for rec in ("rec_a", "rec_b"):
            for rater, value in (("r0", 0.2), ("r1", -0.4), ("r2", 0.7)):
                path = ann / rec / "arousal" / f"{rater}.csv"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text("timestamp_ms,value\n" + "".join(f"{t},{value}\n" for t in range(0, 10000, 500)))
        rc = main(["raaw", "--annotations", str(ann), "--kind", "arousal", "--out", str(tmp_path / "g")])
        captured = capsys.readouterr()
        assert rc == 3
        assert f"data error: {ann}: agreement undefined for every recording" in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "g").exists()

    def test_rank_deficient_segment_features_exit_3(self, corpus, tmp_path, capsys):
        # one integer per recording: every segment is constant, so its features are c, c**2 and zeros
        gold = tmp_path / "gold"
        gold.mkdir()
        for i, src in enumerate(sorted((corpus / "gold").glob("*.csv"))):
            ts, _ = read_gold_csv(src)
            (gold / src.name).write_text("timestamp_ms,value\n" + "".join(f"{t},{i}\n" for t in ts))
        segments = corpus / "data" / "segments.csv"
        rc = main(["discretize", "--gold", str(gold), "--segments", str(segments), "--target", "arousal",
                   "--method", "kmeans", "--classes", "2", "--out", str(tmp_path / "labels.csv")])
        captured = capsys.readouterr()
        assert rc == 3
        assert (f"data error: {segments}: {gold}: feature covariance rank 2 is below the requested 5 components"
                in captured.err)
        assert "Traceback" not in captured.err
        assert not (tmp_path / "labels.csv").exists()

    def test_no_train_segment_exit_3_without_numpy_warnings(self, corpus, tmp_path, capsys, recwarn):
        header, *rows = (corpus / "data" / "segments.csv").read_text().splitlines()
        segments = tmp_path / "segments.csv"
        segments.write_text("\n".join([header, *(r.replace(",train", ",devel") for r in rows)]) + "\n")
        rc = main(["discretize", "--gold", str(corpus / "gold"), "--segments", str(segments), "--target", "arousal",
                   "--out", str(tmp_path / "labels.csv")])
        captured = capsys.readouterr()
        assert rc == 3
        assert f"data error: {segments}: {corpus / 'gold'}: fit_pca needs at least 6 rows, got 0" in captured.err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("command", ["train", "discretize"])
    def test_unknown_segment_split_exit_3(self, corpus, tmp_path, capsys, command):
        header, first, *rest = (corpus / "data" / "segments.csv").read_text().splitlines()
        segments = tmp_path / "segments.csv"
        segments.write_text("\n".join([header, first.rsplit(",", 1)[0] + ",bogus", *rest]) + "\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("segment_id,class\n" + "".join(f"{row.split(',')[0]},{i % 5}\n"
                                                         for i, row in enumerate([first, *rest])))
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--task", "sent", "--features", str(corpus / "data" / "features" / "modal_a"),
                      "--segments", str(segments), "--labels", str(labels), "--out", str(out), "--epochs", "1"],
            "discretize": ["discretize", "--gold", str(corpus / "gold"), "--segments", str(segments),
                           "--target", "arousal", "--out", str(out / "labels.csv")],
        }[command]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 3
        assert f"data error: {segments}: segment '{first.split(',')[0]}': unknown split 'bogus'" in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists()

    @staticmethod
    def _shift(path: Path, by_ms: int) -> None:
        """Move every timestamp of a ``timestamp_ms,value`` file ``by_ms`` later."""
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header, *(f"{int(t) + by_ms},{v}" for t, v in (r.split(",") for r in rows))]) + "\n")

    def test_rater_files_off_the_zero_origin_exit_3(self, corpus, tmp_path, capsys):
        ann = tmp_path / "ann"
        shutil.copytree(corpus / "data" / "annotations" / "rec_000", ann / "rec_000")
        raters = sorted((ann / "rec_000" / "arousal").glob("*.csv"))
        for path in raters:
            self._shift(path, 5000)
        rc = main(["raaw", "--annotations", str(ann), "--kind", "arousal", "--out", str(tmp_path / "g")])
        captured = capsys.readouterr()
        assert rc == 3
        assert f"data error: {raters[0]}: the time grid starts at 5000 ms, not 0" in captured.err
        assert not (tmp_path / "g").exists()

    def test_eda_file_off_the_zero_origin_exit_3(self, corpus, tmp_path, capsys):
        ann, eda = tmp_path / "ann", tmp_path / "eda" / "rec_000.csv"
        shutil.copytree(corpus / "data" / "annotations" / "rec_000", ann / "rec_000")
        eda.parent.mkdir()
        shutil.copy(corpus / "data" / "eda" / "rec_000.csv", eda)
        self._shift(eda, 5000)
        rc = main(["physio", "--annotations", str(ann), "--kind", "arousal", "--eda", str(eda.parent),
                   "--out", str(tmp_path / "g")])
        captured = capsys.readouterr()
        assert rc == 3
        assert f"data error: {eda}: the time grid starts at 5000 ms, not 0" in captured.err
        assert not (tmp_path / "g").exists()

    def test_features_sharing_no_recording_with_gold_exit_3(self, corpus, tmp_path, capsys):
        features = tmp_path / "features"
        features.mkdir()
        shutil.copy(corpus / "data" / "features" / "modal_a" / "rec_000.csv", features / "elsewhere.csv")
        rc = main(["train", "--task", "stress", "--features", str(features), "--gold", str(corpus / "gold"),
                   "--partitions", str(corpus / "data" / "partitions.csv"), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 3
        assert f"data error: no gold file under {corpus / 'gold'} has a feature file under {features}" in captured.err
        assert "Traceback" not in captured.err

    def test_streams_covering_no_item_exit_3(self, corpus, tmp_path, capsys):
        streams = [tmp_path / "a", tmp_path / "b"]
        for d in streams:
            d.mkdir()
        gold, partitions = corpus / "gold", corpus / "data" / "partitions.csv"
        rc = main(["fuse-late", "--task", "stress", "--streams", *map(str, streams), "--gold", str(gold),
                   "--partitions", str(partitions), "--out", str(tmp_path / "f"), "--epochs", "1"])
        captured = capsys.readouterr()
        assert rc == 3
        assert f"data error: {streams[0]}: {streams[1]}: {gold}: {partitions}: late fusion has no item" in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "f").exists()


def _shift_rows(path: Path, by_ms: int) -> None:
    """Move the first column, the timestamp, of every data row of a CSV ``by_ms`` later."""
    header, *rows = path.read_text().splitlines()
    moved = (f"{int(t) + by_ms},{rest}" for t, _, rest in (r.partition(",") for r in rows))
    path.write_text("\n".join([header, *moved]) + "\n")


class TestPairedOnTimestamps:
    """Series paired frame by frame share their time grid; features cover some of the gold grid."""

    def test_eval_predictions_on_another_grid_exit_3(self, corpus, trained, tmp_path, capsys):
        pred = tmp_path / "pred"
        shutil.copytree(trained / "modal_a" / "preds" / "devel", pred)
        moved = sorted(pred.glob("*.csv"))
        for path in moved:
            _shift_rows(path, 60_000)
        rc = main(["eval", "--pred", str(pred), "--gold", str(corpus / "gold")])
        captured = capsys.readouterr()
        assert rc == 3
        gold = corpus / "gold" / moved[0].name
        assert f"data error: {moved[0]}: data row 1 is at 60000 ms, but in {gold} it is at 0 ms" in captured.err
        assert "ccc=" not in captured.out

    def test_fuse_late_stream_on_another_grid_exit_3(self, corpus, trained, tmp_path, capsys):
        stream = tmp_path / "moved"
        shutil.copytree(trained / "modal_b" / "preds", stream)
        moved = sorted((stream / "train").glob("*.csv"))[0]
        _shift_rows(moved, 60_000)
        first = trained / "modal_a" / "preds"
        rc = main(["fuse-late", "--task", "stress", "--streams", str(first), str(stream),
                   "--gold", str(corpus / "gold"), "--partitions", str(corpus / "data" / "partitions.csv"),
                   "--out", str(tmp_path / "f"), "--epochs", "1"])
        captured = capsys.readouterr()
        assert rc == 3
        grid = first / "train" / moved.name
        assert f"data error: {moved}: data row 1 is at 60000 ms, but in {grid} it is at 0 ms" in captured.err
        assert not (tmp_path / "f").exists()

    def _moved_features(self, corpus, tmp_path, past_end_ms: int) -> Path:
        """modal_a with each file's first frame moved ``past_end_ms`` after its gold file's last step."""
        features = tmp_path / "features"
        shutil.copytree(corpus / "data" / "features" / "modal_a", features)
        for path in features.glob("*.csv"):
            last = int(read_gold_csv(corpus / "gold" / path.name)[0][-1])
            _shift_rows(path, last + past_end_ms - int(path.read_text().splitlines()[1].split(",")[0]))
        return features

    def test_train_on_features_moved_off_the_gold_grid_exit_3(self, corpus, tmp_path, capsys):
        features = self._moved_features(corpus, tmp_path, 600_000)
        argv = _train_argv(corpus, tmp_path / "out")
        argv[argv.index("--features") + 1] = str(features)
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 3
        fpath, gold = features / "rec_000.csv", corpus / "gold" / "rec_000.csv"
        assert f"data error: {fpath}: no feature frame within half a label step of {gold} (0 to " in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("past_end_ms, rc", [(250, 0), (251, 3)], ids=["half-step", "beyond"])
    def test_half_a_label_step_past_the_grid_still_counts(self, corpus, tmp_path, capsys, past_end_ms, rc):
        # the 2 Hz gold grid steps 500 ms: a frame 250 ms past its end is aligned to the last step, and zero fill
        # covers the rest
        features = self._moved_features(corpus, tmp_path, past_end_ms)
        argv = _train_argv(corpus, tmp_path / "out")
        argv[argv.index("--features") + 1] = str(features)
        assert main(argv) == rc
        assert ("no feature frame within half a label step" in capsys.readouterr().err) == (rc == 3)

    @staticmethod
    def _word_features(corpus, tmp_path, covered_steps: int) -> Path:
        """One word [t + 100, t + 200] after each gold step t; the first ``covered_steps`` words start on t."""
        features = tmp_path / "words"
        features.mkdir()
        rng = np.random.default_rng(5)
        for gold in sorted((corpus / "gold").glob("*.csv")):
            ts = read_gold_csv(gold)[0][:-1]
            starts = ts + 100
            starts[:covered_steps] = ts[:covered_steps]
            write_feature_csv(features / gold.name,
                              FeatureSequence(gold.stem, "words", rng.normal(size=(ts.size, 4)), starts, ts + 200))
        return features

    def test_train_on_words_between_the_label_steps_exit_3(self, corpus, tmp_path, capsys):
        # every word lies strictly between two 500 ms label steps, so align_to_labels would give all-zero inputs
        features = self._word_features(corpus, tmp_path, covered_steps=0)
        argv = _train_argv(corpus, tmp_path / "out")
        argv[argv.index("--features") + 1] = str(features)
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 3
        fpath, gold = features / "rec_000.csv", corpus / "gold" / "rec_000.csv"
        assert f"data error: {fpath}: no feature word covering a label step of {gold} (0 to " in captured.err
        assert not (tmp_path / "out").exists()

    def test_words_covering_one_label_step_train(self, corpus, tmp_path, capsys):
        # one covered step per file is enough: every other step is zero-filled
        features = self._word_features(corpus, tmp_path, covered_steps=1)
        argv = _train_argv(corpus, tmp_path / "out")
        argv[argv.index("--features") + 1] = str(features)
        assert main(argv) == 0
        assert "devel_ccc=" in capsys.readouterr().out

    def test_partitions_file_lacking_a_recording_is_named(self, corpus, tmp_path, capsys):
        partitions = tmp_path / "partitions.csv"
        header, first, *rest = (corpus / "data" / "partitions.csv").read_text().splitlines()
        partitions.write_text("\n".join([header, *rest]) + "\n")
        rec = first.split(",")[0]
        argv = _train_argv(corpus, tmp_path / "out")
        argv[argv.index("--partitions") + 1] = str(partitions)
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 3
        assert f"data error: {partitions}: recording '{rec}' missing from the partition map" in captured.err
        assert not (tmp_path / "out").exists()


class TestSegmentRows:
    """A segment takes the frames inside it and the words that overlap it, and must take at least one."""

    @staticmethod
    def _sent_argv(corpus, features: Path, tmp_path) -> list[str]:
        segments = corpus / "data" / "segments.csv"
        labels = tmp_path / "labels.csv"
        labels.write_text("segment_id,class\n" + "".join(
            f"{s.segment_id},{i % 5}\n" for i, s in enumerate(read_segments_csv(segments))
        ))
        return ["train", "--task", "sent", "--features", str(features), "--segments", str(segments),
                "--labels", str(labels), "--out", str(tmp_path / "out"), "--epochs", "1", "--hidden", "4"]

    @staticmethod
    def _words(corpus, tmp_path, spans) -> Path:
        """The same words, ``[start, end]`` pairs, for every recording of the corpus."""
        features = tmp_path / "words"
        features.mkdir()
        starts, ends = np.array(spans).T
        rng = np.random.default_rng(5)
        for rec in sorted({s.recording_id for s in read_segments_csv(corpus / "data" / "segments.csv")}):
            write_feature_csv(features / f"{rec}.csv",
                              FeatureSequence(rec, "words", rng.normal(size=(len(spans), 4)), starts, ends))
        return features

    def test_words_covering_a_segment_from_before_it_train(self, corpus, tmp_path, capsys):
        # two words per 40 s recording: a segment starting after 20000 ms has no word starting in it
        features = self._words(corpus, tmp_path, [(0, 20_000), (20_000, 40_000)])
        assert main(self._sent_argv(corpus, features, tmp_path)) == 0
        assert "devel_f1=" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["frames", "words"])
    def test_segment_taking_no_row_names_its_files(self, corpus, tmp_path, capsys, kind):
        segments = corpus / "data" / "segments.csv"
        seg = read_segments_csv(segments)[1]
        if kind == "frames":
            features = tmp_path / "frames"
            shutil.copytree(corpus / "data" / "features" / "modal_a", features)
            path = features / f"{seg.recording_id}.csv"
            header, *rows = path.read_text().splitlines()
            kept = [r for r in rows if not seg.start_ms <= int(r.split(",")[0]) < seg.end_ms]
            path.write_text("\n".join([header, *kept]) + "\n")
        else:  # one word ends just before the segment, the other starts at its end
            features = self._words(corpus, tmp_path, [(0, seg.start_ms - 1), (seg.end_ms, 40_000)])
        rc = main(self._sent_argv(corpus, features, tmp_path))
        captured = capsys.readouterr()
        assert rc == 3
        fpath = features / f"{seg.recording_id}.csv"
        assert f"data error: {fpath}: no feature row in segment {seg.segment_id!r} of {segments}" in captured.err
        assert not (tmp_path / "out").exists()


class TestRepeatedKey:
    """A segments, labels or logits file lists each segment id once; a repeat names the file, id and rows."""

    @pytest.mark.parametrize("command", ["discretize", "train"])
    def test_repeated_segment_id_exit_3(self, corpus, tmp_path, capsys, command):
        segments = tmp_path / "segments.csv"
        text = (corpus / "data" / "segments.csv").read_text()
        assert "\nseg_00001," in text and "\nseg_00002," in text
        segments.write_text(text.replace("\nseg_00002,", "\nseg_00001,"))
        if command == "discretize":
            argv = ["discretize", "--gold", str(corpus / "gold"), "--segments", str(segments), "--target", "arousal",
                    "--method", "kmeans", "--out", str(tmp_path / "out")]
        else:
            argv = TestSegmentRows._sent_argv(corpus, corpus / "data" / "features" / "modal_a", tmp_path)
            argv[argv.index("--segments") + 1] = str(segments)
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 3
        assert f"data error: {segments}: segment 'seg_00001' in data rows 2 and 3" in captured.err
        assert not (tmp_path / "out").exists()

    def test_repeated_predicted_label_exit_3(self, tmp_path, capsys):
        pred, gold = tmp_path / "pred.csv", tmp_path / "gold.csv"
        pred.write_text("segment_id,class\ns0,1\ns1,2\ns0,0\n")
        gold.write_text("segment_id,class\ns0,1\ns1,2\n")
        rc = main(["eval", "--pred-labels", str(pred), "--gold-labels", str(gold)])
        captured = capsys.readouterr()
        assert rc == 3
        assert f"data error: {pred}: segment 's0' in data rows 1 and 3" in captured.err
        assert "macro_f1=" not in captured.out

    def test_repeated_logit_row_exit_3(self, tmp_path, capsys):
        labels = _logit_streams(tmp_path, ["a", "b"])
        train = tmp_path / "a" / "train_logits.csv"
        train.write_text(train.read_text() + "t0,0.1,0.2,0.3,0.4,0.5\n")
        rc = main(["fuse-late", "--task", "sent", "--streams", str(tmp_path / "a"), str(tmp_path / "b"),
                   "--gold-labels", str(labels), "--out", str(tmp_path / "fused"), "--epochs", "1"])
        captured = capsys.readouterr()
        assert rc == 3
        assert f"data error: {train}: segment 't0' in data rows 1 and 7" in captured.err
        assert not (tmp_path / "fused").exists()


class TestWindowOne:
    def test_train_exit_2(self, corpus, tmp_path, capsys):
        rc = main(_train_argv(corpus, tmp_path / "m") + ["--window", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "window needs at least 2 samples, got window 1" in captured.err

    def test_fuse_late_exit_2(self, corpus, trained, tmp_path, capsys):
        rc = main(
            ["fuse-late", "--task", "stress", "--streams", str(trained / "modal_a" / "preds"),
             str(trained / "modal_b" / "preds"), "--gold", str(corpus / "gold"),
             "--partitions", str(corpus / "data" / "partitions.csv"), "--out", str(tmp_path / "f"),
             "--window", "1", "--epochs", "1"]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "window needs at least 2 samples, got window 1" in captured.err


# The smallest argument list each subcommand parses; --jobs is checked before
# any of these paths is touched.
MINIMAL_ARGV = {
    "synth": ["--out", "{t}/out"],
    "raaw": ["--annotations", "{t}/ann", "--out", "{t}/out"],
    "physio": ["--annotations", "{t}/ann", "--eda", "{t}/eda", "--out", "{t}/out"],
    "discretize": ["--gold", "{t}/gold", "--segments", "{t}/s.csv", "--target", "valence",
                   "--out", "{t}/out"],
    "train": ["--task", "stress", "--features", "{t}/f", "--out", "{t}/out"],
    "eval": [],
    "fuse-late": ["--task", "stress", "--streams", "{t}/a", "{t}/b", "--out", "{t}/out"],
}


class TestHelp:
    @pytest.mark.parametrize("command", [sp.prog.split()[-1] for sp in build_parser()[1]])
    def test_every_subcommand_help_exits_0(self, capsys, command):
        # argparse %-formats help strings only when it prints them, so a bare % shows nowhere else
        assert main([command, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: affectfuse {command} ")


class TestJobs:
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    @pytest.mark.parametrize("command", list(MINIMAL_ARGV))
    def test_below_one_exit_2(self, tmp_path, capsys, command, jobs):
        argv = [command] + [a.replace("{t}", str(tmp_path)) for a in MINIMAL_ARGV[command]]
        rc = main(argv + ["--jobs", jobs])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"argument --jobs: must be >= 1, got {jobs}" in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--config", "--conf"])  # argparse takes an unambiguous prefix of a flag
    def test_below_one_from_config_exit_2(self, tmp_path, capsys, flag):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("jobs = 0\n")
        rc = main(["synth", "--out", str(tmp_path / "out"), flag, str(cfg)])
        assert rc == 2
        assert "argument --jobs: must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_accepted_by_every_subcommand(self):
        _, subparsers = build_parser()
        assert len(subparsers) == 7
        for sp in subparsers:
            assert any("--jobs" in a.option_strings for a in sp._actions)


# Every path option besides --config, which every subcommand has; each resolves
# a relative path against AFFECTFUSE_DATA_ROOT through its argparse type.
PATH_OPTIONS = (
    ("synth", "--out"),
    *((command, flag) for command in ("raaw", "physio") for flag in ("--annotations", "--out", "--dump-paths")),
    ("physio", "--eda"),
    ("discretize", "--gold"), ("discretize", "--segments"), ("discretize", "--out"), ("discretize", "--model-out"),
    ("train", "--gold"), ("train", "--partitions"), ("train", "--out"), ("train", "--features"),
    ("train", "--segments"), ("train", "--labels"),
    ("eval", "--pred"), ("eval", "--gold"), ("eval", "--pred2"), ("eval", "--gold2"),
    ("eval", "--pred-labels"), ("eval", "--gold-labels"),
    ("fuse-late", "--gold"), ("fuse-late", "--partitions"), ("fuse-late", "--out"), ("fuse-late", "--streams"),
    ("fuse-late", "--gold-labels"),
)
# options whose value is a plain string: a path option without the path type would show up here
STRING_OPTIONS = {("eval", "--name"), ("eval", "--name2")}


def _path_cases() -> list:
    """(command, flag, source) of every path option as a flag, and as a config value unless
    it is required (given as a flag only) or --config itself."""
    required = {(sp.prog.split()[-1], a.option_strings[0]) for sp in build_parser()[1] for a in sp._actions
                if a.required}
    return [pytest.param(command, flag, source, id=f"{command}{flag}-{source}")
            for command, flag in PATH_OPTIONS + tuple((command, "--config") for command in MINIMAL_ARGV)
            for source in ("flag", "config")
            if source == "flag" or (flag != "--config" and (command, flag) not in required)]


@pytest.fixture
def parse(monkeypatch):
    """``main(argv)`` up to the parsed arguments, which every subcommand hands back instead of running."""
    seen = []
    for name in ("cmd_synth", "_run_fusion", "cmd_discretize", "cmd_train", "cmd_eval", "cmd_fuse_late"):
        monkeypatch.setattr(cli, name, lambda args: seen.append(args) or 0)

    def run(argv):
        assert main(argv) == 0
        return seen.pop()

    return run


class TestPathOptions:
    def test_every_path_option_is_listed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AFFECTFUSE_DATA_ROOT", str(tmp_path))
        resolving, plain = set(), set()
        for sp in build_parser()[1]:
            command = sp.prog.split()[-1]
            for action in (a for a in sp._actions if a.option_strings and a.nargs != 0):
                flag = action.option_strings[0]
                if action.type is None and action.choices is None:
                    plain.add((command, flag))
                    continue
                try:
                    if action.type("x") == tmp_path / "x":
                        resolving.add((command, flag))
                except (TypeError, ValueError, argparse.ArgumentTypeError):  # no type, or one that rejects "x"
                    pass
        assert plain == STRING_OPTIONS
        assert resolving == set(PATH_OPTIONS) | {(command, "--config") for command in MINIMAL_ARGV}

    @pytest.mark.parametrize(("command", "flag", "source"), _path_cases())
    def test_relative_path_resolves_against_data_root(self, tmp_path, monkeypatch, parse, command, flag, source):
        root = tmp_path / "root"
        (root / "rel").mkdir(parents=True)
        (root / "rel" / "p").write_text("")  # an empty config file, for --config
        monkeypatch.setenv("AFFECTFUSE_DATA_ROOT", str(root))
        argv = [command] + [a.replace("{t}", str(tmp_path)) for a in MINIMAL_ARGV[command]]
        dest = flag[2:].replace("-", "_")
        if source == "flag":
            argv += [flag, "rel/p"]
        else:
            (root / "run.cfg").write_text(f"{dest} = rel/p\n")
            argv += ["--config", "run.cfg"]  # itself relative to the data root
        value = getattr(parse(argv), dest)
        assert value == ([root / "rel" / "p"] if flag == "--streams" else root / "rel" / "p")

    @pytest.mark.parametrize("argv", [["synth", "--out", "{t}/c", "--config", ""], ["eval", "--pred", "", "--gold", "{t}"]],
                             ids=["config", "pred"])
    def test_empty_path_exit_2(self, tmp_path, capsys, argv):
        rc = main([a.replace("{t}", str(tmp_path)) for a in argv])
        assert rc == 2
        assert "expected a path, got ''" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()


def _float_options() -> list:
    """(command, flag, config key) of each synth, raaw, physio and train option whose type makes "0.5" a float."""
    found = []
    for sp in build_parser()[1]:
        command = sp.prog.split()[-1]
        for action in sp._actions if command in ("synth", "raaw", "physio", "train") else ():
            try:
                if isinstance(action.type("0.5"), float):
                    found.append(pytest.param(command, action.option_strings[0], action.dest,
                                              id=f"{command}{action.option_strings[0]}"))
            except (TypeError, ValueError, argparse.ArgumentTypeError):  # no type, or one that rejects "0.5"
                pass
    return found


class TestNonFiniteFloatOptions:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(("command", "flag", "key"), _float_options())
    def test_exit_2_naming_the_option(self, tmp_path, capsys, command, flag, key, source, value):
        argv = [command] + [a.replace("{t}", str(tmp_path)) for a in MINIMAL_ARGV[command]]
        if source == "flag":
            argv.append(f"{flag}={value}")
        else:
            (tmp_path / "run.cfg").write_text(f"{key} = {value}\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert f"argument {flag}: expected a finite number, got '{value}'" in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "out").exists()


# Command shapes of the subcommand fuzz test; `fuzz_inputs` gives each its argv
# (without --out) and the input file it replaces. `synth` reads no input file.
FUZZ_SHAPES = ("raaw", "physio", "discretize", "discretize-segments", "train", "train-sent", "train-sent-segments",
               "eval", "eval-labels", "fuse-late")


@pytest.fixture(scope="module")
def fuzz_inputs(corpus, trained, tmp_path_factory):
    """``FUZZ_SHAPES`` over the shared corpus, with raaw and physio cut to one recording to stay quick."""
    root = tmp_path_factory.mktemp("fuzz")
    data, gold, preds = corpus / "data", corpus / "gold", trained / "modal_a" / "preds"
    shutil.copytree(data / "annotations" / "rec_000", root / "annotations" / "rec_000")
    shutil.copytree(data / "eda", root / "eda", ignore=lambda d, names: [n for n in names if n != "rec_000.csv"])
    labels = root / "labels.csv"
    assert main(["discretize", "--gold", str(gold), "--segments", str(data / "segments.csv"), "--target", "arousal",
                 "--method", "kmeans", "--out", str(labels)]) == 0
    fusion = ["--annotations", str(root / "annotations"), "--kind", "arousal"]
    fit = ["--gold", str(gold), "--partitions", str(data / "partitions.csv"), "--epochs", "1", "--batch", "8"]
    features = ["--features", str(data / "features" / "modal_a"), "--hidden", "4"]
    segments = ["--segments", str(data / "segments.csv")]
    shapes = {
        "raaw": (["raaw", *fusion], sorted((root / "annotations" / "rec_000" / "arousal").glob("*.csv"))[0]),
        "physio": (["physio", *fusion, "--eda", str(root / "eda")], root / "eda" / "rec_000.csv"),
        "discretize": (["discretize", "--gold", str(gold), *segments, "--target", "arousal"], gold / "rec_000.csv"),
        "discretize-segments": (["discretize", "--gold", str(gold), *segments, "--target", "arousal"],
                                data / "segments.csv"),
        "train": (["train", "--task", "stress", *fit, *features, "--window", "30"],
                  data / "features" / "modal_a" / "rec_000.csv"),
        "train-sent": (["train", "--task", "sent", *features, *segments, "--labels", str(labels), "--epochs", "1"],
                       labels),
        "train-sent-segments": (["train", "--task", "sent", *features, *segments, "--labels", str(labels),
                                 "--epochs", "1"], data / "segments.csv"),
        "eval": (["eval", "--pred", str(preds / "devel"), "--gold", str(gold)], sorted((preds / "devel").glob("*"))[0]),
        "eval-labels": (["eval", "--pred-labels", str(labels), "--gold-labels", str(labels)], labels),
        "fuse-late": (["fuse-late", "--task", "stress", *fit, "--streams", str(preds), str(trained / "modal_b" / "preds")],
                      sorted((preds / "train").glob("*"))[0]),
    }
    assert set(shapes) == set(FUZZ_SHAPES)
    return root / "out", shapes


# A few bytes to splice in: anything, or text close to the CSV alphabet.
JUNK = st.binary(max_size=12) | st.text("0123456789,.-+eEnaif \n\xff", max_size=12).map(str.encode)


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(FUZZ_SHAPES), data=st.data())
def test_every_subcommand_exits_with_a_contract_code_on_any_input_file(fuzz_inputs, shape, data):
    out, shapes = fuzz_inputs
    argv, target = shapes[shape]
    original = target.read_bytes()
    spliced = st.builds(
        lambda i, n, junk: original[:i] + junk + original[i + n:], st.integers(0, len(original)), st.integers(0, 40), JUNK
    )
    content = data.draw(st.binary(max_size=80) | spliced, label="content")
    try:
        target.write_bytes(content)
        rc = main(argv + ([] if shape.startswith("eval") else ["--out", str(out)]))
    finally:
        target.write_bytes(original)
        if out.is_dir():
            shutil.rmtree(out)
        out.unlink(missing_ok=True)  # discretize writes a file
    assert rc in (0, 3, 4)
