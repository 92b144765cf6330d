from __future__ import annotations

import numpy as np
import pytest

from affectfuse.dataio import WindowSpec
from affectfuse.errors import ParameterError
from affectfuse.latefusion import REGRESSION_FUSION, SENT_FUSION, fuse_predictions
from affectfuse.seqmodel import evaluate


def _regression_setup(rng, n_train=4, n_devel=2, n_test=2, t=40):
    # two noisy views of one target per recording; fusion should help
    streams = {"a": {}, "b": {}}
    gold = {}
    splits = {"train": [], "devel": [], "test": []}
    counts = [("train", n_train), ("devel", n_devel), ("test", n_test)]
    i = 0
    for split, n in counts:
        for _ in range(n):
            rid = f"rec{i:02d}"
            target = np.sin(np.arange(t) / 5.0 + rng.uniform(0, 6.0))
            streams["a"][rid] = target + rng.normal(0, 0.3, t)
            streams["b"][rid] = target + rng.normal(0, 0.3, t)
            if split != "test":
                gold[rid] = target
            splits[split].append(rid)
            i += 1
    return streams, gold, {k: tuple(v) for k, v in splits.items()}


def _sent_setup(rng, n_train=20, n_devel=8, n_classes=5):
    streams = {"a": {}, "b": {}}
    gold = {}
    splits = {"train": [], "devel": []}
    i = 0
    for split, n in (("train", n_train), ("devel", n_devel)):
        for _ in range(n):
            sid = f"seg{i:03d}"
            label = i % n_classes
            base = -np.ones(n_classes)
            base[label] = 2.0
            streams["a"][sid] = base + rng.normal(0, 0.4, n_classes)
            streams["b"][sid] = base + rng.normal(0, 0.4, n_classes)
            gold[sid] = label
            splits[split].append(sid)
            i += 1
    return streams, gold, {k: tuple(v) for k, v in splits.items()}


class TestFusionChecks:
    """Each input check of late fusion, in the one place it lives: two streams and
    whole streams in ``fuse_predictions``, splits and gold in ``seqmodel.fit``."""

    def test_requires_two_streams(self):
        with pytest.raises(ParameterError, match="two"):
            fuse_predictions(
                streams={"only": {"r": np.zeros(3)}},
                gold={"r": np.zeros(3)},
                splits={"train": ("r",), "devel": ("r",)},
            )

    def test_requires_train_and_devel(self):
        streams = {"a": {"r": np.zeros(3)}, "b": {"r": np.zeros(3)}}
        with pytest.raises(ParameterError, match="devel"):
            fuse_predictions(streams, {"r": np.zeros(3)}, {"train": ("r",)})
        with pytest.raises(ParameterError, match="train"):
            fuse_predictions(streams, {"r": np.zeros(3)}, {"train": (), "devel": ("r",)})

    def test_stream_must_cover_all_items(self):
        streams = {"a": {"r1": np.zeros(3), "r2": np.zeros(3)}, "b": {"r1": np.zeros(3)}}
        with pytest.raises(ParameterError, match="stream 'b' is missing item 'r2'"):
            fuse_predictions(
                streams,
                gold={"r1": np.zeros(3), "r2": np.zeros(3)},
                splits={"train": ("r1",), "devel": ("r2",)},
            )

    def test_gold_required_for_train_devel_only(self):
        streams = {
            "a": {"r1": np.zeros(3), "r2": np.zeros(3), "r3": np.zeros(3)},
            "b": {"r1": np.zeros(3), "r2": np.zeros(3), "r3": np.zeros(3)},
        }
        with pytest.raises(ParameterError, match="no gold"):
            fuse_predictions(
                streams,
                gold={"r1": np.zeros(3)},
                splits={"train": ("r1",), "devel": ("r2",)},
            )
        # test items need no gold
        _, _, outputs = fuse_predictions(
            streams,
            gold={"r1": np.zeros(3), "r2": np.zeros(3)},
            splits={"train": ("r1",), "devel": ("r2",), "test": ("r3",)},
            max_epochs=1,
        )
        assert tuple(outputs["test"]) == ("r3",)


class TestRegressionFusion:
    def test_fuses_and_predicts_all_splits(self):
        rng = np.random.default_rng(1)
        streams, gold, splits = _regression_setup(rng)
        model, history, outputs = fuse_predictions(
            streams, gold, splits, "regression", seed=5, max_epochs=30, patience=30
        )
        assert model.config.input_dim == 2
        assert model.config.hidden_dim == REGRESSION_FUSION["hidden_dim"]
        for split, ids in splits.items():
            assert set(outputs[split]) == set(ids)
            for rid in ids:
                assert outputs[split][rid].shape == (40,)
        # the returned model is the one whose devel score was reported, on
        # inputs stacked in the streams' key order: a, then b
        devel_items = [
            (np.stack([streams["a"][rid], streams["b"][rid]], axis=1), gold[rid])
            for rid in splits["devel"]
        ]
        assert evaluate(model, devel_items) == history.best_metric()

    def test_stream_length_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        streams, gold, splits = _regression_setup(rng, n_train=2, n_devel=1, n_test=0)
        rid = splits["train"][0]
        streams["b"][rid] = streams["b"][rid][:-3]
        with pytest.raises(ParameterError, match="lengths disagree"):
            fuse_predictions(streams, gold, splits, "regression")

    def test_gold_length_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        streams, gold, splits = _regression_setup(rng, n_train=2, n_devel=1, n_test=0)
        rid = splits["train"][0]
        gold[rid] = gold[rid][:-5]
        with pytest.raises(ParameterError, match="gold length"):
            fuse_predictions(streams, gold, splits, "regression")

    def test_windowed_training_runs(self):
        rng = np.random.default_rng(4)
        streams, gold, splits = _regression_setup(rng, t=60)
        _, _, outputs = fuse_predictions(
            streams, gold, splits, "regression", WindowSpec(window=20, hop=10),
            seed=6, max_epochs=10, patience=10, batch_size=4,
        )
        # devel predictions stay full-length even with windowed training
        rid = splits["devel"][0]
        assert outputs["devel"][rid].shape == (60,)

    def test_unknown_task_rejected(self):
        rng = np.random.default_rng(5)
        streams, gold, splits = _regression_setup(rng, n_train=1, n_devel=1, n_test=0)
        with pytest.raises(ParameterError, match="task"):
            fuse_predictions(streams, gold, splits, task="ranking")


class TestSentFusion:
    def test_stacks_logits_and_classifies(self):
        rng = np.random.default_rng(6)
        streams, gold, splits = _sent_setup(rng)
        model, history, outputs = fuse_predictions(
            streams, gold, splits, "sent", seed=7, max_epochs=25, patience=25, batch_size=8
        )
        # two 5-class logit streams concatenate to a width-10 single step
        assert model.config.input_dim == 10
        assert model.config.head == "classification"
        assert model.config.hidden_dim == SENT_FUSION["hidden_dim"]
        preds = outputs["devel"]
        assert all(isinstance(v, int) for v in preds.values())
        assert history.best_metric() > 0.5

    def test_head_sized_from_logit_width(self):
        # seven-class logits with gold classes 5 and 6: the head needs 7 outputs
        rng = np.random.default_rng(9)
        streams, gold, splits = _sent_setup(rng, n_classes=7)
        model, _, outputs = fuse_predictions(streams, gold, splits, "sent", max_epochs=3, batch_size=8)
        assert model.config.n_classes == 7
        assert model.config.input_dim == 14
        assert all(0 <= v < 7 for v in outputs["devel"].values())

    def test_fusion_beats_or_matches_collapsed_stream(self):
        # one stream is pure noise; the trained fusion should still lean on
        # the informative one and beat chance
        rng = np.random.default_rng(7)
        streams, gold, splits = _sent_setup(rng, n_train=30, n_devel=10)
        for sid in streams["b"]:
            streams["b"][sid] = rng.normal(0, 1.0, 5)
        _, history, _ = fuse_predictions(
            streams, gold, splits, "sent", seed=8, max_epochs=30, patience=30, batch_size=8
        )
        assert history.best_metric() > 0.4
