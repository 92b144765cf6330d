from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectfuse.cli import build_parser, main
from affectfuse.dataio import (
    read_gold_csv,
    read_labels_csv,
    read_prediction_csv,
    read_segments_csv,
)


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
        assert rc == 2
        assert "rec_x" in captured.err


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
        assert rc == 2
        assert "rec_001.csv" in captured.err


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
        assert "tol must be positive and finite" in captured.err
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("command", ["raaw", "physio"])
    def test_config_exit_2(self, corpus, tmp_path, capsys, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol = nan\n")
        rc = main(_fusion_argv(command, corpus, tmp_path / "g") + ["--config", str(cfg)])
        assert rc == 2
        assert "tol must be positive and finite" in capsys.readouterr().err
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


class TestJobs:
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    @pytest.mark.parametrize("command", list(MINIMAL_ARGV))
    def test_below_one_exit_2(self, tmp_path, capsys, command, jobs):
        argv = [command] + [a.replace("{t}", str(tmp_path)) for a in MINIMAL_ARGV[command]]
        rc = main(argv + ["--jobs", jobs])
        captured = capsys.readouterr()
        assert rc == 2
        assert "--jobs" in captured.err
        assert not (tmp_path / "out").exists()

    def test_below_one_from_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("jobs = 0\n")
        rc = main(["synth", "--out", str(tmp_path / "out"), "--config", str(cfg)])
        assert rc == 2
        assert not (tmp_path / "out").exists()

    def test_accepted_by_every_subcommand(self):
        _, subparsers = build_parser()
        assert len(subparsers) == 7
        for sp in subparsers:
            assert any("--jobs" in a.option_strings for a in sp._actions)


# Command shapes of the subcommand fuzz test; `fuzz_inputs` gives each its argv
# (without --out) and the input file it replaces. `synth` reads no input file.
FUZZ_SHAPES = ("raaw", "physio", "discretize", "train", "train-sent", "eval", "eval-labels", "fuse-late")


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
        "train": (["train", "--task", "stress", *fit, *features, "--window", "30"],
                  data / "features" / "modal_a" / "rec_000.csv"),
        "train-sent": (["train", "--task", "sent", *features, *segments, "--labels", str(labels), "--epochs", "1"],
                       labels),
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
    assert rc in (0, 2, 3, 4)
