"""The late-fusion model shapes, fitted by ``seqmodel.fit`` on streams stacked per item in stream order,
as ``fuse-late`` stacks them. Its input checks live elsewhere: two streams and stream lengths in the
``fuse-late`` CLI tests, splits and gold in ``tests/test_seqmodel.py``'s ``TestFit``."""

from __future__ import annotations

import numpy as np

from affectfuse.dataio import WindowSpec
from affectfuse.latefusion import REGRESSION_FUSION, SENT_FUSION
from affectfuse.seqmodel import RegressorConfig, evaluate, fit


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


def _sent_setup(rng, n_train=20, n_devel=8):
    n_classes = 5
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


def _fit_regression(streams, gold, splits, window_spec=None, **knobs):
    """``REGRESSION_FUSION`` fitted on each recording's traces stacked as (T, n_streams) columns."""
    inputs = {r: np.stack([s[r] for s in streams.values()], axis=1) for ids in splits.values() for r in ids}
    config = RegressorConfig(input_dim=len(streams), **REGRESSION_FUSION, **knobs)
    return fit(config, inputs, gold, splits, window_spec)


def _fit_sent(streams, gold, splits, **knobs):
    """``SENT_FUSION`` fitted on each segment's logit rows concatenated into one step."""
    inputs = {i: np.concatenate([s[i] for s in streams.values()])[None, :] for ids in splits.values() for i in ids}
    width = next(iter(inputs.values())).shape[1]
    config = RegressorConfig(input_dim=width, **SENT_FUSION, head="classification", n_classes=5, **knobs)
    return fit(config, inputs, gold, splits)


class TestRegressionFusion:
    def test_fuses_and_predicts_all_splits(self):
        rng = np.random.default_rng(1)
        streams, gold, splits = _regression_setup(rng)
        model, history, outputs = _fit_regression(streams, gold, splits, seed=5, max_epochs=30, patience=30)
        assert model.config.input_dim == 2
        assert model.config.hidden_dim == REGRESSION_FUSION["hidden_dim"]
        for split, ids in splits.items():
            assert set(outputs[split]) == set(ids)
            for rid in ids:
                assert outputs[split][rid].shape == (40,)
        # the returned model is the one whose devel score was reported, on
        # inputs stacked in the streams' order: a, then b
        devel_items = [
            (np.stack([streams["a"][rid], streams["b"][rid]], axis=1), gold[rid])
            for rid in splits["devel"]
        ]
        assert evaluate(model, devel_items) == history.best_metric()

    def test_windowed_training_runs(self):
        rng = np.random.default_rng(4)
        streams, gold, splits = _regression_setup(rng, t=60)
        _, _, outputs = _fit_regression(
            streams, gold, splits, WindowSpec(window=20, hop=10),
            seed=6, max_epochs=10, patience=10, batch_size=4,
        )
        # devel predictions stay full-length even with windowed training
        rid = splits["devel"][0]
        assert outputs["devel"][rid].shape == (60,)

    def test_test_items_need_no_gold(self):
        rng = np.random.default_rng(2)
        streams, gold, splits = _regression_setup(rng, n_train=1, n_devel=1, n_test=1)
        assert splits["test"][0] not in gold
        _, _, outputs = _fit_regression(streams, gold, splits, max_epochs=1)
        assert tuple(outputs["test"]) == splits["test"]


class TestSentFusion:
    def test_stacks_logits_and_classifies(self):
        rng = np.random.default_rng(6)
        streams, gold, splits = _sent_setup(rng)
        model, history, _ = _fit_sent(streams, gold, splits, seed=7, max_epochs=25, patience=25, batch_size=8)
        # two 5-class logit streams concatenate to a width-10 single step
        assert model.config.input_dim == 10
        assert model.config.head == "classification"
        assert {k: getattr(model.config, k) for k in SENT_FUSION} == SENT_FUSION
        assert history.best_metric() > 0.5

    def test_fusion_beats_or_matches_collapsed_stream(self):
        # one stream is pure noise; the trained fusion should still lean on
        # the informative one and beat chance
        rng = np.random.default_rng(7)
        streams, gold, splits = _sent_setup(rng, n_train=30, n_devel=10)
        for sid in streams["b"]:
            streams["b"][sid] = rng.normal(0, 1.0, 5)
        _, history, _ = _fit_sent(streams, gold, splits, seed=8, max_epochs=30, patience=30, batch_size=8)
        assert history.best_metric() > 0.4
