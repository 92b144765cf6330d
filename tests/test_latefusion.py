from __future__ import annotations

import numpy as np
import pytest

from affectfuse.dataio import WindowSpec
from affectfuse.errors import ParameterError
from affectfuse.latefusion import (
    REGRESSION_FUSION,
    SENT_FUSION,
    FusionPlan,
    FusionResult,
    fuse_predictions,
)
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


class TestFusionPlan:
    def test_requires_two_streams(self):
        with pytest.raises(ParameterError, match="two"):
            FusionPlan(
                streams={"only": {"r": np.zeros(3)}},
                gold={"r": np.zeros(3)},
                splits={"train": ("r",), "devel": ("r",)},
            )

    def test_requires_train_and_devel(self):
        streams = {"a": {"r": np.zeros(3)}, "b": {"r": np.zeros(3)}}
        with pytest.raises(ParameterError, match="devel"):
            FusionPlan(streams=streams, gold={"r": np.zeros(3)}, splits={"train": ("r",)})
        with pytest.raises(ParameterError, match="train"):
            FusionPlan(
                streams=streams,
                gold={"r": np.zeros(3)},
                splits={"train": (), "devel": ("r",)},
            )

    def test_stream_must_cover_all_items(self):
        streams = {"a": {"r1": np.zeros(3), "r2": np.zeros(3)}, "b": {"r1": np.zeros(3)}}
        with pytest.raises(ParameterError, match="missing items"):
            FusionPlan(
                streams=streams,
                gold={"r1": np.zeros(3), "r2": np.zeros(3)},
                splits={"train": ("r1",), "devel": ("r2",)},
            )

    def test_gold_required_for_train_devel_only(self):
        streams = {
            "a": {"r1": np.zeros(3), "r2": np.zeros(3), "r3": np.zeros(3)},
            "b": {"r1": np.zeros(3), "r2": np.zeros(3), "r3": np.zeros(3)},
        }
        with pytest.raises(ParameterError, match="no gold"):
            FusionPlan(
                streams=streams,
                gold={"r1": np.zeros(3)},
                splits={"train": ("r1",), "devel": ("r2",)},
            )
        # test items need no gold
        plan = FusionPlan(
            streams=streams,
            gold={"r1": np.zeros(3), "r2": np.zeros(3)},
            splits={"train": ("r1",), "devel": ("r2",), "test": ("r3",)},
        )
        assert plan.splits["test"] == ("r3",)


class TestRegressionFusion:
    def test_fuses_and_predicts_all_splits(self):
        rng = np.random.default_rng(1)
        streams, gold, splits = _regression_setup(rng)
        plan = FusionPlan(
            streams=streams, gold=gold, splits=splits, seed=5, max_epochs=30, patience=30
        )
        result = fuse_predictions(plan, task="regression")
        assert isinstance(result, FusionResult)
        assert result.stream_order == ("a", "b")
        assert result.config.input_dim == 2
        assert result.config.hidden_dim == REGRESSION_FUSION["hidden_dim"]
        for split, ids in splits.items():
            assert set(result.predictions[split]) == set(ids)
            for rid in ids:
                assert result.predictions[split][rid].shape == (40,)
        # the returned model is the one whose devel score was reported
        devel_items = [
            (np.stack([streams["a"][rid], streams["b"][rid]], axis=1), gold[rid])
            for rid in splits["devel"]
        ]
        assert evaluate(result.model, devel_items) == result.devel_score

    def test_stream_length_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        streams, gold, splits = _regression_setup(rng, n_train=2, n_devel=1, n_test=0)
        rid = splits["train"][0]
        streams["b"][rid] = streams["b"][rid][:-3]
        plan = FusionPlan(streams=streams, gold=gold, splits=splits)
        with pytest.raises(ParameterError, match="lengths disagree"):
            fuse_predictions(plan, task="regression")

    def test_gold_length_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        streams, gold, splits = _regression_setup(rng, n_train=2, n_devel=1, n_test=0)
        rid = splits["train"][0]
        gold[rid] = gold[rid][:-5]
        plan = FusionPlan(streams=streams, gold=gold, splits=splits)
        with pytest.raises(ParameterError, match="gold length"):
            fuse_predictions(plan, task="regression")

    def test_windowed_training_runs(self):
        rng = np.random.default_rng(4)
        streams, gold, splits = _regression_setup(rng, t=60)
        plan = FusionPlan(
            streams=streams,
            gold=gold,
            splits=splits,
            window_spec=WindowSpec(window=20, hop=10),
            seed=6,
            max_epochs=10,
            patience=10,
            batch_size=4,
        )
        result = fuse_predictions(plan, task="regression")
        # devel predictions stay full-length even with windowed training
        rid = splits["devel"][0]
        assert result.predictions["devel"][rid].shape == (60,)

    def test_unknown_task_rejected(self):
        rng = np.random.default_rng(5)
        streams, gold, splits = _regression_setup(rng, n_train=1, n_devel=1, n_test=0)
        plan = FusionPlan(streams=streams, gold=gold, splits=splits)
        with pytest.raises(ParameterError, match="task"):
            fuse_predictions(plan, task="ranking")


class TestSentFusion:
    def test_stacks_logits_and_classifies(self):
        rng = np.random.default_rng(6)
        streams, gold, splits = _sent_setup(rng)
        plan = FusionPlan(
            streams=streams,
            gold=gold,
            splits=splits,
            seed=7,
            max_epochs=25,
            patience=25,
            batch_size=8,
        )
        result = fuse_predictions(plan, task="sent")
        # two 5-class logit streams concatenate to a width-10 single step
        assert result.config.input_dim == 10
        assert result.config.head == "classification"
        assert result.config.hidden_dim == SENT_FUSION["hidden_dim"]
        preds = result.predictions["devel"]
        assert all(isinstance(v, int) for v in preds.values())
        assert result.devel_score > 0.5

    def test_head_sized_from_logit_width(self):
        # seven-class logits with gold classes 5 and 6: the head needs 7 outputs
        rng = np.random.default_rng(9)
        streams, gold, splits = _sent_setup(rng, n_classes=7)
        plan = FusionPlan(streams=streams, gold=gold, splits=splits, max_epochs=3, batch_size=8)
        result = fuse_predictions(plan, task="sent")
        assert result.config.n_classes == 7
        assert result.config.input_dim == 14
        assert all(0 <= v < 7 for v in result.predictions["devel"].values())

    def test_fusion_beats_or_matches_collapsed_stream(self):
        # one stream is pure noise; the trained fusion should still lean on
        # the informative one and beat chance
        rng = np.random.default_rng(7)
        streams, gold, splits = _sent_setup(rng, n_train=30, n_devel=10)
        for sid in streams["b"]:
            streams["b"][sid] = rng.normal(0, 1.0, 5)
        plan = FusionPlan(
            streams=streams,
            gold=gold,
            splits=splits,
            seed=8,
            max_epochs=30,
            patience=30,
            batch_size=8,
        )
        result = fuse_predictions(plan, task="sent")
        assert result.devel_score > 0.4
