from __future__ import annotations

import json
import re

import numpy as np
import pytest

from affectfuse import seqmodel
from affectfuse.dataio import WindowSpec
from affectfuse.errors import DegenerateInputError, NumericError, ParameterError
from affectfuse.synth import SynthConfig
from affectfuse.seqmodel import (
    Adam,
    RegressorConfig,
    SequenceModel,
    ccc_loss,
    cross_entropy_loss,
    evaluate,
    fit,
    load_checkpoint,
    save_checkpoint,
    train,
)

from _oracles import PerArrayAdam, fd_gradient, loop_lstm_loss_and_grads, per_array_loss_and_grads


def _toy_regression(rng, n_items=6, t=20, d=3):
    items = []
    for _ in range(n_items):
        x = rng.normal(size=(t, d))
        y = np.tanh(x @ np.array([0.5, -0.3, 0.2])) + 0.1 * rng.normal(size=t)
        items.append((x, y))
    return items


def _toy_classification(rng, n_items=10, t=15, d=3, n_classes=5):
    items = []
    for i in range(n_items):
        label = i % n_classes
        x = rng.normal(size=(t, d)) + label * 0.5
        items.append((x, label))
    return items


class TestConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            RegressorConfig(input_dim=0)
        with pytest.raises(ParameterError):
            RegressorConfig(input_dim=3, hidden_dim=0)
        with pytest.raises(ParameterError):
            RegressorConfig(input_dim=3, layers=0)
        with pytest.raises(ParameterError):
            RegressorConfig(input_dim=3, head="ranking")
        with pytest.raises(ParameterError):
            RegressorConfig(input_dim=3, learning_rate=0.0)
        with pytest.raises(ParameterError):
            RegressorConfig(input_dim=3, patience=-1)

    # every float field of the two library configs a run is built from
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(("config", "name"), [
        *((RegressorConfig, name) for name in ("learning_rate", "l2_penalty", "loss_eps")),
        *((SynthConfig, name) for name in ("duration_s", "rate_hz", "max_lag_s", "noise_sigma",
                                           "scale_jitter", "feature_noise")),
    ], ids=lambda v: getattr(v, "__name__", v))
    def test_non_finite_float_rejected_naming_the_field(self, config, name, value):
        required = {"input_dim": 3} if config is RegressorConfig else {}
        with pytest.raises(ParameterError, match=f"^{name} must be finite, got {value!r}$"):
            config(**required, **{name: value})


class TestInit:
    def test_param_count_formula(self):
        # per direction and layer: W (d_in x 4h) + U (h x 4h) + b (4h)
        cfg = RegressorConfig(input_dim=3, hidden_dim=4, layers=2, bidirectional=True)
        model = SequenceModel(cfg)
        h = 4
        layer1 = 2 * (3 * 4 * h + h * 4 * h + 4 * h)  # both directions read 3 dims
        layer2 = 2 * (2 * h * 4 * h + h * 4 * h + 4 * h)  # reads the 2h concat
        head = 2 * h + 1
        assert model.param_count() == layer1 + layer2 + head == 681

    def test_param_count_classification_head(self):
        cfg = RegressorConfig(
            input_dim=3, hidden_dim=4, layers=2, bidirectional=True, head="classification"
        )
        assert SequenceModel(cfg).param_count() == 717

    @pytest.mark.parametrize("hidden", [3_000_000_000, 10**30])
    def test_layout_numpy_cannot_index_rejected(self, hidden):
        # U alone holds 4 * hidden**2 values: past int64 for 3e9, where np.prod would wrap negative
        message = rf"^a model with hidden_dim {hidden} and layers 1: \S+ float64 values, more than numpy can index"
        with pytest.raises(ParameterError, match=message):
            SequenceModel(RegressorConfig(input_dim=3, hidden_dim=hidden))

    def test_deterministic_init(self):
        cfg = RegressorConfig(input_dim=3, hidden_dim=8, seed=9)
        m1, m2 = SequenceModel(cfg), SequenceModel(cfg)
        for name in m1.param_names:
            assert np.array_equal(m1.params[name], m2.params[name])

    def test_forget_gate_bias_offset(self):
        cfg = RegressorConfig(input_dim=3, hidden_dim=5)
        model = SequenceModel(cfg)
        b = model.params["l0f_b"]
        h = 5
        scale = 1.0 / np.sqrt(h)
        # forget slice carries the +1 offset; the other gates stay within
        # the init range
        assert np.all(b[h : 2 * h] > 1.0 - scale)
        assert np.all(np.abs(np.concatenate([b[:h], b[2 * h :]])) <= scale)


class TestCccLoss:
    def test_perfect_prediction_near_zero(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=50)
        loss, _ = ccc_loss(y, y)
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_sign_flip_near_two(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=80)
        y = y - y.mean()
        loss, _ = ccc_loss(-y, y)
        assert loss == pytest.approx(2.0, abs=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        pred = rng.normal(size=30)
        gold = rng.normal(size=30)
        _, grad = ccc_loss(pred, gold)
        num = fd_gradient(lambda p: ccc_loss(p, gold)[0], pred)
        assert np.allclose(grad, num, atol=1e-7)

    def test_guarded_ccc_handles_constant(self):
        assert 1.0 - ccc_loss(np.ones(10), np.arange(10.0))[0] == pytest.approx(0.0, abs=1e-6)


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss, grad = cross_entropy_loss(np.zeros(5), 2)
        assert loss == pytest.approx(np.log(5.0))
        expect = np.full(5, 0.2)
        expect[2] -= 1.0
        assert np.allclose(grad, expect)

    def test_large_logits_stable(self):
        logits = np.array([1e4, 0.0, -1e4])
        loss, grad = cross_entropy_loss(logits, 0)
        assert np.isfinite(loss)
        assert loss == pytest.approx(0.0, abs=1e-30)
        assert np.all(np.isfinite(grad))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=5)
        _, grad = cross_entropy_loss(logits, 3)
        num = fd_gradient(lambda z: cross_entropy_loss(z, 3)[0], logits)
        assert np.allclose(grad, num, atol=1e-8)


class TestGradients:
    def _check_model(self, cfg, batch, tol=1e-4):
        model = SequenceModel(cfg)
        _, flat_analytic = model.loss_and_grads(batch)

        def loss_at(theta):
            saved = model.theta.copy()
            model.theta[...] = theta
            loss, _ = model.loss_and_grads(batch)
            model.theta[...] = saved
            return loss

        theta0 = model.theta.copy()
        rng = np.random.default_rng(0)
        idx = rng.choice(theta0.size, size=min(60, theta0.size), replace=False)
        for i in idx:
            step = np.zeros_like(theta0)
            step[i] = 1e-5
            num = (loss_at(theta0 + step) - loss_at(theta0 - step)) / 2e-5
            denom = max(abs(num), abs(flat_analytic[i]), 1e-8)
            assert abs(num - flat_analytic[i]) / denom < tol

    def test_regression_gradients(self):
        rng = np.random.default_rng(5)
        cfg = RegressorConfig(input_dim=3, hidden_dim=4, layers=1, seed=2)
        batch = [(rng.normal(size=(12, 3)), rng.normal(size=12)) for _ in range(2)]
        self._check_model(cfg, batch)

    def test_bidirectional_with_l2_gradients(self):
        rng = np.random.default_rng(6)
        cfg = RegressorConfig(
            input_dim=3, hidden_dim=4, layers=2, bidirectional=True, l2_penalty=0.01, seed=3
        )
        batch = [(rng.normal(size=(10, 3)), rng.normal(size=10))]
        self._check_model(cfg, batch)

    def test_classification_gradients(self):
        rng = np.random.default_rng(7)
        cfg = RegressorConfig(input_dim=3, hidden_dim=4, head="classification", seed=4)
        batch = [(rng.normal(size=(9, 3)), 2), (rng.normal(size=(9, 3)), 4)]
        self._check_model(cfg, batch)

    def test_l2_applies_to_weights_not_biases(self):
        rng = np.random.default_rng(8)
        cfg0 = RegressorConfig(input_dim=3, hidden_dim=4, l2_penalty=0.0, seed=5)
        cfg1 = RegressorConfig(input_dim=3, hidden_dim=4, l2_penalty=0.5, seed=5)
        batch = [(rng.normal(size=(8, 3)), rng.normal(size=8))]
        m0, m1 = SequenceModel(cfg0), SequenceModel(cfg1)
        loss0, flat0 = m0.loss_and_grads(batch)
        loss1, flat1 = m1.loss_and_grads(batch)
        g0, g1 = m0.named(flat0), m1.named(flat1)
        w_sq = sum(
            float(np.sum(m0.params[n] ** 2)) for n in m0.param_names if not n.endswith("_b")
        )
        assert loss1 - loss0 == pytest.approx(0.5 * w_sq, rel=1e-9)
        for n in m0.param_names:
            if n.endswith("_b"):
                assert np.allclose(g0[n], g1[n])
            else:
                assert np.allclose(g1[n] - g0[n], 2 * 0.5 * m0.params[n])


def _ragged_batch(rng, head, lengths, d=3):
    return [
        (rng.normal(size=(n, d)), rng.normal(size=n) if head == "regression" else i % 5)
        for i, n in enumerate(lengths)
    ]


def _assert_matches_loop(model, batch):
    loss, grad = model.loss_and_grads(batch)
    grads = model.named(grad)
    ref_loss, ref_grads = loop_lstm_loss_and_grads(model, batch)
    assert loss == pytest.approx(ref_loss, rel=1e-10, abs=0)
    for name in model.param_names:
        # relative to the largest entry of each gradient array
        scale = np.max(np.abs(ref_grads[name]))
        assert np.max(np.abs(grads[name] - ref_grads[name])) <= 1e-10 * scale, name


class TestBatchedAgainstLoop:
    @pytest.mark.parametrize("head", ["regression", "classification"])
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_ragged_batch_matches_step_loop(self, head, layers, bidirectional):
        cfg = RegressorConfig(
            input_dim=3, hidden_dim=5, layers=layers, bidirectional=bidirectional,
            head=head, l2_penalty=0.01, seed=23,
        )
        batch = _ragged_batch(np.random.default_rng(24), head, [7, 2, 9, 7, 2])
        _assert_matches_loop(SequenceModel(cfg), batch)

    def test_length_one_classification_items(self):
        # sent fusion feeds one-step items; pooling must use valid steps only
        cfg = RegressorConfig(
            input_dim=3, hidden_dim=4, layers=2, bidirectional=True, head="classification", seed=25
        )
        batch = _ragged_batch(np.random.default_rng(26), "classification", [1, 1, 7, 1])
        _assert_matches_loop(SequenceModel(cfg), batch)

    @pytest.mark.parametrize("head", ["regression", "classification"])
    def test_padding_does_not_leak(self, head):
        cfg = RegressorConfig(
            input_dim=3, hidden_dim=5, layers=2, bidirectional=True, head=head, seed=27
        )
        model = SequenceModel(cfg)
        rng = np.random.default_rng(28)
        xs = [rng.normal(size=(n, 3)) for n in (4, 2)]
        alone, _ = model.forward_batch(xs)
        padded, _ = model.forward_batch(xs + [rng.normal(size=(11, 3))])
        for a, b in zip(alone, padded):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-12
        for x, a in zip(xs, alone):
            assert np.max(np.abs(model.predict(x) - a)) <= 1e-12

    def test_mixed_width_batch_rejected(self):
        model = SequenceModel(RegressorConfig(input_dim=3, hidden_dim=4))
        rng = np.random.default_rng(29)
        batch = [(rng.normal(size=(5, 3)), rng.normal(size=5)), (rng.normal(size=(5, 2)), rng.normal(size=5))]
        with pytest.raises(ParameterError, match=r"expected input dim 3, got a sequence of shape \(5, 2\)"):
            model.loss_and_grads(batch)


class TestForward:
    def test_regression_output_shape(self):
        cfg = RegressorConfig(input_dim=4, hidden_dim=6)
        model = SequenceModel(cfg)
        out = model.predict(np.zeros((25, 4)))
        assert out.shape == (25,)

    def test_classification_logits_and_argmax(self):
        cfg = RegressorConfig(input_dim=4, hidden_dim=6, head="classification", n_classes=5)
        model = SequenceModel(cfg)
        x = np.random.default_rng(1).normal(size=(12, 4))
        out = model.predict(x)
        assert out.shape == (5,)
        assert np.array_equal(model.forward_batch([x])[0][0], out)

    def test_wrong_input_width_rejected(self):
        model = SequenceModel(RegressorConfig(input_dim=4))
        with pytest.raises(ParameterError):
            model.predict(np.zeros((10, 3)))

    def test_bidirectional_uses_future_context(self):
        # flipping a late frame changes an early prediction only for the
        # bidirectional model
        rng = np.random.default_rng(9)
        x = rng.normal(size=(20, 3))
        x2 = x.copy()
        x2[-1] += 5.0
        uni = SequenceModel(RegressorConfig(input_dim=3, hidden_dim=6, seed=7))
        bi = SequenceModel(
            RegressorConfig(input_dim=3, hidden_dim=6, bidirectional=True, seed=7)
        )
        assert uni.predict(x)[0] == uni.predict(x2)[0]
        assert bi.predict(x)[0] != bi.predict(x2)[0]


class TestAdam:
    def test_single_step_hand_computed(self):
        cfg = RegressorConfig(input_dim=2, hidden_dim=3, learning_rate=0.1, seed=1)
        model = SequenceModel(cfg)
        before = model.params["head_W"].copy()
        grad = np.zeros_like(model.theta)
        model.named(grad)["head_W"][...] = 1.0
        adam = Adam(model)
        adam.step(model, grad)
        # with m_hat = g and v_hat = g*g, the first update is lr * g/(|g|+eps)
        expect = before - 0.1 * 1.0 / (1.0 + 1e-8)
        assert np.allclose(model.params["head_W"], expect, atol=1e-12)
        assert adam.t == 1

    def test_zero_grad_leaves_params(self):
        model = SequenceModel(RegressorConfig(input_dim=2, hidden_dim=3))
        adam = Adam(model)
        before = model.theta.copy()
        adam.step(model, np.zeros_like(model.theta))
        assert np.array_equal(model.theta, before)


    def test_wrong_shaped_gradient_rejected(self):
        model = SequenceModel(RegressorConfig(input_dim=2, hidden_dim=3))
        adam = Adam(model)
        with pytest.raises(ParameterError, match="gradient of shape"):
            adam.step(model, np.zeros(1))
        assert adam.t == 0


def _bits(flat):
    return np.ascontiguousarray(flat).tobytes()


class TestFlatAgainstPerArray:
    """Flat gradient and in-place Adam against the per-array oracles, bit for bit."""

    @pytest.mark.parametrize(
        "cfg, lengths",
        [
            (RegressorConfig(input_dim=3, hidden_dim=5, learning_rate=1e-2, l2_penalty=0.05, seed=41), [9, 4, 9]),
            (
                RegressorConfig(
                    input_dim=3, hidden_dim=4, layers=2, bidirectional=True, head="classification",
                    learning_rate=1e-2, l2_penalty=0.05, seed=42,
                ),
                [6, 1, 8, 3],
            ),
        ],
        ids=["regression", "bidirectional-classification"],
    )
    def test_rounds_bit_equal(self, cfg, lengths):
        batch = _ragged_batch(np.random.default_rng(43), cfg.head, lengths)
        model, ref = SequenceModel(cfg), SequenceModel(cfg)
        adam, ref_adam = Adam(model), PerArrayAdam(ref)

        def flat(named):
            return np.concatenate([named[n].ravel() for n in model.param_names])

        for _ in range(6):
            loss, grad = model.loss_and_grads(batch)
            ref_loss, ref_grads = per_array_loss_and_grads(ref, batch)
            assert loss == ref_loss
            assert _bits(grad) == _bits(flat(ref_grads))
            adam.step(model, grad)
            ref_adam.step(ref, ref_grads)
            assert _bits(model.theta) == _bits(flat(ref.params))
            assert _bits(adam.m) == _bits(flat(ref_adam.m))
            assert _bits(adam.v) == _bits(flat(ref_adam.v))
        assert not np.array_equal(model.theta, SequenceModel(cfg).theta)


def _assert_params_view_theta(model):
    for n, p in model.params.items():
        assert np.shares_memory(p, model.theta), n
    before = {n: p.copy() for n, p in model.params.items()}
    Adam(model).step(model, np.ones_like(model.theta))
    for n, p in model.params.items():
        assert not np.array_equal(p, before[n]), n


class TestParamsAreViews:
    CFG = RegressorConfig(
        input_dim=3, hidden_dim=4, layers=2, bidirectional=True, learning_rate=5e-3,
        max_epochs=4, patience=1, seed=44,
    )

    def test_after_construction(self):
        _assert_params_view_theta(SequenceModel(self.CFG))

    def test_after_training_restores_best_epoch(self):
        items = _toy_regression(np.random.default_rng(45), n_items=3, t=10)
        model = SequenceModel(self.CFG)
        train(model, items, items)
        _assert_params_view_theta(model)

    def test_after_load_checkpoint(self, tmp_path):
        model = SequenceModel(self.CFG)
        save_checkpoint(tmp_path / "model.json", model)
        back = load_checkpoint(tmp_path / "model.json")
        _assert_params_view_theta(back)


class TestTraining:
    def test_loss_decreases_on_learnable_data(self):
        rng = np.random.default_rng(10)
        items = _toy_regression(rng)
        cfg = RegressorConfig(
            input_dim=3, hidden_dim=8, learning_rate=5e-3, max_epochs=30, patience=30, seed=11
        )
        model = SequenceModel(cfg)
        history = train(model, items, items)
        losses = [row[1] for row in history.rows]
        assert losses[-1] < losses[0]
        assert history.best_metric() > 0.3

    def test_patience_zero_stops_at_first_non_improvement(self):
        rng = np.random.default_rng(11)
        items = _toy_regression(rng, n_items=3)
        # lr so small nothing changes: epoch 2 cannot improve on epoch 1
        cfg = RegressorConfig(
            input_dim=3, hidden_dim=4, learning_rate=1e-30, max_epochs=50, patience=0, seed=12
        )
        history = train(SequenceModel(cfg), items, items)
        assert len(history.rows) == 2

    def test_best_snapshot_restored(self):
        rng = np.random.default_rng(12)
        items = _toy_regression(rng, n_items=4)
        cfg = RegressorConfig(
            input_dim=3, hidden_dim=6, learning_rate=5e-3, max_epochs=15, patience=15, seed=13
        )
        model = SequenceModel(cfg)
        history = train(model, items, items)
        assert evaluate(model, items) == pytest.approx(history.best_metric(), abs=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_gold_raises_numeric_error(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(10, 3))
        y = np.full(10, 1e200)
        y[0] = -1e200
        cfg = RegressorConfig(
            input_dim=3, hidden_dim=4, learning_rate=1e-2, max_epochs=5, patience=5, seed=14
        )
        with pytest.raises(NumericError):
            train(SequenceModel(cfg), [(x, y)], [(x, y)])

    def test_empty_training_set_rejected(self):
        model = SequenceModel(RegressorConfig(input_dim=3))
        with pytest.raises(ParameterError):
            train(model, [], [])

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(14)
        items = _toy_regression(rng, n_items=4)
        cfg = RegressorConfig(
            input_dim=3, hidden_dim=5, learning_rate=2e-3, max_epochs=8, patience=8, seed=21
        )
        m1, m2 = SequenceModel(cfg), SequenceModel(cfg)
        h1 = train(m1, items, items)
        h2 = train(m2, items, items)
        assert h1.rows == h2.rows
        for n in m1.param_names:
            assert np.array_equal(m1.params[n], m2.params[n])

    def test_classification_training_improves_f1(self):
        rng = np.random.default_rng(15)
        items = _toy_classification(rng, n_items=20)
        cfg = RegressorConfig(
            input_dim=3,
            hidden_dim=8,
            head="classification",
            learning_rate=1e-2,
            max_epochs=40,
            patience=40,
            batch_size=4,
            seed=16,
        )
        model = SequenceModel(cfg)
        before = evaluate(model, items)
        history = train(model, items, items)
        assert history.best_metric() > before
        assert history.best_metric() > 0.8


class TestFit:
    """``fit``'s windowing rule, seen through the training set it hands to ``train``."""

    @pytest.fixture
    def seen(self, monkeypatch):
        seen = {}
        real_train = seqmodel.train

        def spy(model, train_set, devel_set, progress=None):
            seen["train"], seen["devel"] = list(train_set), list(devel_set)
            return real_train(model, train_set, devel_set, progress)

        monkeypatch.setattr(seqmodel, "train", spy)
        return seen

    @staticmethod
    def _items(rng, lengths, d=2):
        return {f"r{i}": rng.normal(size=(n, d)) for i, n in enumerate(lengths)}

    def test_regression_windows_keep_gold_slices_and_drop_short_ones(self, seen):
        rng = np.random.default_rng(3)
        inputs = self._items(rng, (7, 5, 6, 4))
        targets = {i: rng.normal(size=len(x)) for i, x in inputs.items()}
        splits = {"train": ("r0", "r1"), "devel": ("r2",), "test": ("r3",)}
        cfg = RegressorConfig(input_dim=2, hidden_dim=3, max_epochs=1)
        fit(cfg, inputs, targets, splits, WindowSpec(window=3, hop=3))
        # r0 (7 steps): [0:3], [3:6], [6:7] dropped; r1 (5 steps): [0:3], [3:5]
        expected = [("r0", 0, 3), ("r0", 3, 6), ("r1", 0, 3), ("r1", 3, 5)]
        assert len(seen["train"]) == len(expected)
        for (x, y), (item, lo, hi) in zip(seen["train"], expected):
            assert np.array_equal(x, inputs[item][lo:hi])
            assert np.array_equal(y, targets[item][lo:hi])
        # devel items stay whole
        assert np.array_equal(seen["devel"][0][0], inputs["r2"])

    def test_class_windows_keep_the_item_label(self, seen):
        rng = np.random.default_rng(4)
        inputs = self._items(rng, (5, 3, 4))
        targets = {"r0": 2, "r1": 4, "r2": 1}
        splits = {"train": ("r0", "r1"), "devel": ("r2",)}
        cfg = RegressorConfig(input_dim=2, hidden_dim=3, head="classification", max_epochs=1)
        fit(cfg, inputs, targets, splits, WindowSpec(window=2, hop=2))
        # every window is kept, a length-1 tail included
        assert [y for _, y in seen["train"]] == [2, 2, 2, 4, 4]
        assert [len(x) for x, _ in seen["train"]] == [2, 2, 1, 2, 1]

    def test_without_spec_items_stay_whole(self, seen):
        rng = np.random.default_rng(5)
        inputs = self._items(rng, (9, 1, 6))
        targets = {"r0": 0, "r1": 3, "r2": 1}
        splits = {"train": ("r0", "r1"), "devel": ("r2",)}
        cfg = RegressorConfig(input_dim=2, hidden_dim=3, head="classification", max_epochs=1)
        fit(cfg, inputs, targets, splits)
        assert len(seen["train"]) == 2
        for (x, y), item in zip(seen["train"], ("r0", "r1")):
            assert x is inputs[item] and y == targets[item]

    def test_outputs_cover_every_split_item(self):
        rng = np.random.default_rng(6)
        inputs = self._items(rng, (8, 8, 6, 5, 7))
        targets = {i: rng.normal(size=len(inputs[i])) for i in ("r0", "r1", "r2")}
        splits = {"train": ("r0", "r1"), "devel": ("r2",), "test": ("r3", "r4")}
        cfg = RegressorConfig(input_dim=2, hidden_dim=3, max_epochs=2)
        model, history, outputs = fit(cfg, inputs, targets, splits, WindowSpec(window=4, hop=2))
        assert {s: tuple(o) for s, o in outputs.items()} == splits
        for split, ids in splits.items():
            for i in ids:
                assert np.array_equal(outputs[split][i], model.predict(inputs[i]))
        assert len(history.rows) == 2

    def test_gold_length_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        inputs = self._items(rng, (6, 6))
        targets = {"r0": rng.normal(size=6), "r1": rng.normal(size=5)}
        cfg = RegressorConfig(input_dim=2, hidden_dim=3, max_epochs=1)
        with pytest.raises(ParameterError, match="gold length mismatch for item 'r1'"):
            fit(cfg, inputs, targets, {"train": ("r0",), "devel": ("r1",)})

    def test_requires_train_and_devel(self, seen):
        rng = np.random.default_rng(9)
        inputs = self._items(rng, (6, 6))
        targets = {i: rng.normal(size=6) for i in inputs}
        cfg = RegressorConfig(input_dim=2, hidden_dim=3, max_epochs=1)
        with pytest.raises(ParameterError, match="non-empty 'devel' split") as info:
            fit(cfg, inputs, targets, {"train": ("r0",)})
        assert info.type is DegenerateInputError  # still a ParameterError to library callers
        with pytest.raises(ParameterError, match="non-empty 'train' split"):
            fit(cfg, inputs, targets, {"train": (), "devel": ("r1",)})
        assert not seen  # rejected before an epoch is trained

    def test_missing_target_rejected(self, seen):
        rng = np.random.default_rng(10)
        inputs = self._items(rng, (6, 6, 6))
        targets = {"r0": 1, "r2": 0}
        cfg = RegressorConfig(input_dim=2, hidden_dim=3, head="classification", max_epochs=1)
        with pytest.raises(ParameterError, match="no gold for train item 'r1'"):
            fit(cfg, inputs, targets, {"train": ("r0", "r1"), "devel": ("r2",)})
        with pytest.raises(ParameterError, match="no gold for devel item 'r1'"):
            fit(cfg, inputs, targets, {"train": ("r0",), "devel": ("r1",)})
        assert not seen

    def test_regression_window_below_two_samples_rejected(self, seen):
        rng = np.random.default_rng(8)
        inputs = self._items(rng, (6, 6))
        targets = {i: rng.normal(size=6) for i in inputs}
        cfg = RegressorConfig(input_dim=2, hidden_dim=3, max_epochs=1)
        with pytest.raises(ParameterError, match="window needs at least 2 samples, got window 1"):
            fit(cfg, inputs, targets, {"train": ("r0",), "devel": ("r1",)}, WindowSpec(window=1, hop=1))
        assert not seen


class TestHistory:
    def test_csv_format(self, tmp_path):
        from affectfuse.seqmodel import TrainHistory

        history = TrainHistory(rows=[(1, 0.5, 0.1), (2, 0.25, 0.4)], best_epoch=2)
        path = tmp_path / "history.csv"
        history.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,devel_metric"
        assert lines[1] == "1,0.5,0.1"
        assert history.best_metric() == 0.4

    def test_best_metric_unknown_epoch(self):
        from affectfuse.seqmodel import TrainHistory

        assert TrainHistory().best_metric() == float("-inf")


class TestCheckpoint:
    def test_roundtrip_exact(self, tmp_path):
        cfg = RegressorConfig(input_dim=3, hidden_dim=5, bidirectional=True, seed=31)
        model = SequenceModel(cfg)
        adam = Adam(model)
        rng = np.random.default_rng(17)
        batch = [(rng.normal(size=(8, 3)), rng.normal(size=8))]
        _, grad = model.loss_and_grads(batch)
        adam.step(model, grad)
        path = tmp_path / "model.json"
        save_checkpoint(path, model)
        # the optimizer state earlier versions saved is ignored, even one they rejected
        old, damaged = tmp_path / "old.json", tmp_path / "damaged.json"
        payload = json.loads(path.read_text())
        payload["optimizer"] = {
            "t": adam.t,
            "lr": adam.lr,
            "m": {n: a.tolist() for n, a in model.named(adam.m).items()},
            "v": {n: a.tolist() for n, a in model.named(adam.v).items()},
        }
        old.write_text(json.dumps(payload))
        del payload["optimizer"]["v"]
        damaged.write_text(json.dumps(payload))
        for back in map(load_checkpoint, (path, old, damaged)):
            assert back.config == cfg
            for n in model.param_names:
                assert _bits(back.params[n]) == _bits(model.params[n])

    def test_roundtrip_without_optimizer(self, tmp_path):
        model = SequenceModel(RegressorConfig(input_dim=2, hidden_dim=3))
        path = tmp_path / "model.json"
        save_checkpoint(path, model)
        back = load_checkpoint(path)
        x = np.random.default_rng(0).normal(size=(6, 2))
        assert np.array_equal(back.predict(x), model.predict(x))

    def test_rejects_foreign_payload(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"kind": "class_model", "format_version": 1}\n')
        with pytest.raises(ParameterError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "section, name, value, message",
        [
            ("params", "l0f_U", [[0.0] * 20] * 4, r"parameter 'l0f_U' has shape \(4, 20\), expected \(5, 20\)"),
            ("params", "head_b", None, r"missing parameter 'head_b'"),
            ("params", "l9f_W", [0.0], r"unknown parameter 'l9f_W'"),
            ("params", "head_W", [[0.0], [1.0, 2.0]], r"parameter 'head_W' is not a numeric array"),
        ],
        ids=["wrong-shape", "missing", "unknown", "ragged"],
    )
    def test_malformed_entries_rejected(self, tmp_path, section, name, value, message):
        model = SequenceModel(RegressorConfig(input_dim=3, hidden_dim=5, seed=32))
        path = tmp_path / "model.json"
        save_checkpoint(path, model)
        payload = json.loads(path.read_text())
        entries = payload[section]
        if value is None:
            del entries[name]
        else:
            entries[name] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ParameterError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "damage, key",
        [
            (lambda p: p["config"].update(bogus=1), "bogus"),
            (lambda p: p.pop("config"), "'config'"),
            (lambda p: p.pop("params"), "'params'"),
            (lambda p: p["config"].pop("input_dim"), "input_dim"),
            (lambda p: p["config"].update(hidden_dim="five"), "hidden_dim|str"),
        ],
        ids=["unknown-config-key", "no-config", "no-params", "no-input-dim", "bad-value"],
    )
    def test_malformed_payload_names_file_and_key(self, tmp_path, damage, key):
        model = SequenceModel(RegressorConfig(input_dim=3, hidden_dim=5, seed=33))
        path = tmp_path / "model.json"
        save_checkpoint(path, model)
        payload = json.loads(path.read_text())
        damage(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ParameterError, match=rf"^{re.escape(str(path))}: .*({key})"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "text, reason",
        [(None, "cannot read .*No such file"), ("{not json", "cannot read .*Expecting"), ("[1, 2]", "not a version-1")],
        ids=["missing-file", "invalid-json", "not-an-object"],
    )
    def test_unreadable_file_names_it(self, tmp_path, text, reason):
        path = tmp_path / "model.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ParameterError, match=rf"^{re.escape(str(path))}: {reason}"):
            load_checkpoint(path)

    def test_deterministic_bytes(self, tmp_path):
        model = SequenceModel(RegressorConfig(input_dim=2, hidden_dim=3, seed=5))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(p1, model)
        save_checkpoint(p2, model)
        assert p1.read_bytes() == p2.read_bytes()
