"""Recurrent sequence baselines: batched LSTM forward/backward, CCC loss, Adam, training.

Everything is float64 numpy. A batch of ragged (T_i, D) sequences runs at once,
packed time-major into a zero-padded (T_max, B, D) array with its lengths. Per
layer and direction, ``X @ W + b`` is one matrix product over all steps, the
recurrence steps over time with a (B, H) @ (H, 4H) product, one ``tanh`` gives
every gate (sigmoid(x) = 0.5 * (1 + tanh(x / 2))), and the backward pass forms
dW, dU and dX as matrix products and db as a sum after its time loop (Appleyard,
Kocisky & Blunsom 2016, arXiv:1604.01946). Padding follows each item's last step and the
heads give it zero gradient (regression scores each item's valid slice,
classification mean-pools valid steps); the backward direction reverses each
item within its own length (step t reads step L - 1 - t), padding left in place.
So padding never reaches an output or a gradient. Single-sequence ``predict``
is a batch of one. Gradients are exact reverse-mode BPTT,
checked against finite differences and a per-sequence step-loop reference.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .dataio import WindowSpec, read_model_file, window, write_model_file, write_table
from .errors import DegenerateInputError, NumericError, ParameterError, require_finite
from .metrics import macro_f1, moments

__all__ = [
    "RegressorConfig",
    "SequenceModel",
    "Adam",
    "TrainHistory",
    "ccc_loss",
    "cross_entropy_loss",
    "train",
    "evaluate",
    "check_window",
    "fit",
    "save_checkpoint",
    "load_checkpoint",
]


@dataclass(frozen=True)
class RegressorConfig:
    """Architecture and protocol of one sequence model run."""

    input_dim: int
    hidden_dim: int = 64
    layers: int = 1
    bidirectional: bool = False
    head: str = "regression"  # or "classification"
    n_classes: int = 5
    learning_rate: float = 1e-4
    l2_penalty: float = 0.0
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 15
    seed: int = 101
    loss_eps: float = 1e-12

    def __post_init__(self) -> None:
        require_finite(self)
        if self.input_dim < 1 or self.hidden_dim < 1 or self.layers < 1:
            raise ParameterError("input_dim, hidden_dim, layers must be >= 1")
        if self.head not in ("regression", "classification"):
            raise ParameterError(f"unknown head {self.head!r}")
        if self.head == "classification" and self.n_classes < 2:
            raise ParameterError("classification needs n_classes >= 2")
        if self.learning_rate <= 0:
            raise ParameterError("learning_rate must be positive")
        if self.l2_penalty < 0:
            raise ParameterError("l2_penalty must be >= 0")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 0:
            raise ParameterError("batch_size, max_epochs must be >= 1 and patience >= 0")


def ccc_loss(pred, gold, eps: float = 1e-12) -> tuple[float, np.ndarray]:
    """1 - CCC with an epsilon-guarded denominator, plus d(loss)/d(pred).

    The guard keeps the loss defined for a constant prediction (value <= 2)
    so a transiently collapsed model produces a gradient instead of a crash.
    """
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gold, dtype=np.float64)
    if p.shape != g.shape or p.ndim != 1 or p.size < 2:
        raise ParameterError("ccc_loss needs two equal-length 1-d sequences of length >= 2")
    t = p.size
    m = moments(p, g)
    md = m.mean_p - m.mean_g
    denom = m.var_p + m.var_g + md * md + eps
    loss = 1.0 - 2.0 * m.cov / denom
    dccc = (2.0 * m.dev_g / t * denom - 2.0 * m.cov * (2.0 * m.dev_p / t + 2.0 * md / t)) / denom**2
    return float(loss), -dccc


def cross_entropy_loss(logits, label: int) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy of one logit vector, plus d(loss)/d(logits)."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1:
        raise ParameterError("cross_entropy_loss needs a 1-d logit vector")
    if not 0 <= int(label) < z.size:
        raise ParameterError(f"label {label} outside [0, {z.size - 1}]")
    m = z.max()
    lse = m + np.log(np.exp(z - m).sum())
    probs = np.exp(z - lse)
    grad = probs.copy()
    grad[int(label)] -= 1.0
    return float(lse - z[int(label)]), grad


class SequenceModel:
    """Stacked (optionally bidirectional) LSTM with a regression or class head.

    Gate pre-activations are packed [input, forget, candidate, output].
    Weights start uniform in +-1/sqrt(hidden_dim) with the forget-gate bias
    shifted by +1; the head is a per-step linear map for regression and a
    mean-pool-then-linear map for classification. All parameters live in one
    flat float64 vector ``theta``; ``params`` maps each name to a view of it.
    """

    def __init__(self, config: RegressorConfig, params: dict[str, np.ndarray] | None = None):
        self.config = config
        self._dirs = ("f", "b") if config.bidirectional else ("f",)
        h = config.hidden_dim
        out_dim = h * len(self._dirs)
        self.shapes: dict[str, tuple[int, ...]] = {}
        for layer in range(config.layers):
            d_in = config.input_dim if layer == 0 else out_dim
            for d in self._dirs:
                self.shapes.update({f"l{layer}{d}_W": (d_in, 4 * h), f"l{layer}{d}_U": (h, 4 * h)})
                self.shapes[f"l{layer}{d}_b"] = (4 * h,)
        n_out = 1 if config.head == "regression" else config.n_classes
        self.shapes.update(head_W=(out_dim, n_out), head_b=(n_out,))
        self.param_names = list(self.shapes)
        self._ends = np.cumsum([int(np.prod(shape)) for shape in self.shapes.values()])
        self.theta = np.zeros(self._ends[-1])
        self.params = self.named(self.theta)
        if params is None:
            self._init_params()
        else:
            _copy_named(self.params, params)

    # -- parameter layout ---------------------------------------------------

    def named(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Views of a flat vector laid out like ``theta``, by parameter name."""
        parts = np.split(flat, self._ends[:-1])
        return {name: part.reshape(shape) for (name, shape), part in zip(self.shapes.items(), parts)}

    def _init_params(self) -> None:
        rng = np.random.default_rng([self.config.seed, 0])
        h = self.config.hidden_dim
        # one draw in layout order gives the values of one draw per array
        self.theta[...] = rng.uniform(-1.0 / np.sqrt(h), 1.0 / np.sqrt(h), size=self.theta.size)
        for layer in range(self.config.layers):
            for d in self._dirs:
                self.params[f"l{layer}{d}_b"][h : 2 * h] += 1.0  # forget-gate bias starts open

    def param_count(self) -> int:
        return int(self.theta.size)

    # -- forward ------------------------------------------------------------

    def _pack(self, xs: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Zero-padded time-major (T_max, B, D) array of a batch, plus each item's length."""
        seqs = [np.atleast_2d(np.asarray(x, dtype=np.float64)) for x in xs]
        if not seqs:
            raise ParameterError("empty batch")
        d = self.config.input_dim
        for x in seqs:
            if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] != d:
                raise ParameterError(f"expected input dim {d}, got a sequence of shape {x.shape}")
        lengths = np.array([x.shape[0] for x in seqs])
        packed = np.zeros((lengths.max(), len(seqs), d))
        for b, x in enumerate(seqs):
            packed[: x.shape[0], b] = x
        return packed, lengths

    def _recur(self, x: np.ndarray, layer: int, d: str, order, keep: bool) -> tuple[np.ndarray, dict]:
        """One layer and direction over a packed (T, B, D_in) input, read in step ``order``."""
        h = self.config.hidden_dim
        x = x[order]
        t_len, bsz, d_in = x.shape
        w = self.params[f"l{layer}{d}_W"]
        # one tanh gives every gate: sigmoid(x) = half * tanh(half * x) + shift
        # for input, forget and output, and the candidate is tanh(x) itself
        half = np.repeat([0.5, 0.5, 1.0, 0.5], h)
        shift = np.repeat([0.5, 0.5, 0.0, 0.5], h)
        u = self.params[f"l{layer}{d}_U"] * half
        xw = ((x.reshape(-1, d_in) @ w + self.params[f"l{layer}{d}_b"]) * half).reshape(t_len, bsz, 4 * h)
        hidden = np.empty((t_len, bsz, h))
        gates = np.empty((t_len if keep else 1, bsz, 4 * h))
        cells = np.empty((t_len, bsz, h)) if keep else None
        h_prev = c_prev = np.zeros((bsz, h))
        for t in range(t_len):
            g = gates[t if keep else 0]
            np.tanh(xw[t] + h_prev @ u, out=g)
            g *= half
            g += shift
            c_prev = g[:, h : 2 * h] * c_prev + g[:, :h] * g[:, 2 * h : 3 * h]
            h_prev = g[:, 3 * h :] * np.tanh(c_prev)
            hidden[t] = h_prev
            if keep:
                cells[t] = c_prev
        return hidden[order], {"x": x, "gates": gates, "cells": cells, "hidden": hidden, "order": order}

    def forward_batch(self, xs: Sequence[np.ndarray], keep_cache: bool = True) -> tuple[list[np.ndarray], dict]:
        """Run the full stack on a batch of (T_i, D) sequences; returns (outputs, cache).

        Outputs are per item: per-step predictions (T_i,) for regression,
        class logits (n_classes,) for classification. Without ``keep_cache``
        only each layer's output is held, and the cache cannot be passed to
        :meth:`backward`.
        """
        x, lengths = self._pack(xs)
        steps = np.arange(x.shape[0])[:, None]
        valid = steps < lengths
        # the backward direction reads step L-1-t at step t; padding stays put
        order = {"f": slice(None), "b": (np.where(valid, lengths - 1 - steps, steps), np.arange(x.shape[1]))}
        cache: dict = {"lengths": lengths, "valid": valid, "layers": []}
        current = x
        for layer in range(self.config.layers):
            runs = [self._recur(current, layer, d, order[d], keep_cache) for d in self._dirs]
            if keep_cache:
                cache["layers"].append(dict(zip(self._dirs, (c for _, c in runs))))
            current = np.concatenate([hid for hid, _ in runs], axis=2)
        cache["features"] = current
        head_w, head_b = self.params["head_W"], self.params["head_b"]
        if self.config.head == "regression":
            out = ((current.reshape(-1, current.shape[2]) @ head_w)[:, 0] + head_b[0]).reshape(valid.shape)
            return np.split(out.T[valid.T], np.cumsum(lengths)[:-1]), cache
        pooled = (current * valid[:, :, None]).sum(axis=0) / lengths[:, None]
        cache["pooled"] = pooled
        return list(pooled @ head_w + head_b), cache

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Forward pass on a full sequence without keeping the cache."""
        return self.forward_batch([x], keep_cache=False)[0][0]

    # -- backward -----------------------------------------------------------

    def _recur_back(self, d_hidden: np.ndarray, layer: int, d: str, cache: dict, grads: dict) -> np.ndarray:
        """Backward through one layer and direction; accumulates dW, dU, db and returns dX."""
        h = self.config.hidden_dim
        x, gates, cells, hidden, order = (cache[k] for k in ("x", "gates", "cells", "hidden", "order"))
        d_hidden = d_hidden[order]
        t_len, bsz, d_in = x.shape
        c_prev, h_prev = (np.concatenate([np.zeros((1, bsz, h)), a[:-1]]) for a in (cells, hidden))
        gi, gf, gg, go = (gates[:, :, k * h : (k + 1) * h] for k in range(4))
        tc = np.tanh(cells)
        dc_dh = go * (1.0 - tc * tc)
        # d(pre) = [dc, dc, dc, dh] * local, gate by gate
        local = np.concatenate(
            [gg * gi * (1.0 - gi), c_prev * gf * (1.0 - gf), gi * (1.0 - gg * gg), tc * go * (1.0 - go)],
            axis=2,
        )
        u_t = self.params[f"l{layer}{d}_U"].T
        dpre = np.empty_like(gates)
        dh_next = dc_next = np.zeros((bsz, h))
        for t in range(t_len - 1, -1, -1):
            dh = d_hidden[t] + dh_next
            dc = dh * dc_dh[t] + dc_next
            np.multiply(np.concatenate([dc, dc, dc, dh], axis=1), local[t], out=dpre[t])
            dh_next = dpre[t] @ u_t
            dc_next = dc * gf[t]
        flat = dpre.reshape(t_len * bsz, 4 * h)
        grads[f"l{layer}{d}_W"] += x.reshape(-1, d_in).T @ flat
        grads[f"l{layer}{d}_U"] += h_prev.reshape(-1, h).T @ flat
        grads[f"l{layer}{d}_b"] += flat.sum(axis=0)
        return (flat @ self.params[f"l{layer}{d}_W"].T).reshape(t_len, bsz, d_in)[order]

    def backward(self, d_outs: Sequence[np.ndarray], cache: dict, grads: dict) -> None:
        """Accumulate gradients into ``grads`` given each item's d(loss)/d(output)."""
        cfg = self.config
        features, valid = cache["features"], cache["valid"]
        if cfg.head == "regression":
            d_vec = np.zeros(valid.shape)
            d_vec.T[valid.T] = np.concatenate(d_outs)
            grads["head_W"] += features.reshape(-1, features.shape[2]).T @ d_vec.reshape(-1, 1)
            grads["head_b"] += d_vec.sum()
            d_feat = d_vec[:, :, None] * self.params["head_W"][:, 0]
        else:
            d_logits = np.asarray(d_outs, dtype=np.float64)
            grads["head_W"] += cache["pooled"].T @ d_logits
            grads["head_b"] += d_logits.sum(axis=0)
            d_feat = valid[:, :, None] * ((d_logits @ self.params["head_W"].T) / cache["lengths"][:, None])
        h = cfg.hidden_dim
        for layer in range(cfg.layers - 1, -1, -1):
            d_feat = sum(
                self._recur_back(d_feat[:, :, i * h : (i + 1) * h], layer, d, cache["layers"][layer][d], grads)
                for i, d in enumerate(self._dirs)
            )

    # -- batched loss -------------------------------------------------------

    def loss_and_grads(self, batch: Sequence[tuple]) -> tuple[float, np.ndarray]:
        """Mean loss over a batch of (sequence, target) pairs plus its gradient.

        The whole batch runs as one packed forward and backward pass. The
        gradient is one flat vector laid out like ``theta``. The L2 penalty
        applies to weight matrices only (not biases) and adds
        ``2 * l2_penalty * w`` to each weight gradient.
        """
        if not batch:
            raise ParameterError("empty batch")
        cfg = self.config
        outs, cache = self.forward_batch([x for x, _ in batch])
        losses = [
            ccc_loss(out, y, eps=cfg.loss_eps) if cfg.head == "regression" else cross_entropy_loss(out, y)
            for out, (_, y) in zip(outs, batch)
        ]
        grad = np.zeros_like(self.theta)
        grads = self.named(grad)
        self.backward([d_out for _, d_out in losses], cache, grads)
        n = len(batch)
        grad /= n
        loss_value = sum(loss for loss, _ in losses) / n
        if cfg.l2_penalty > 0.0:
            for name in self.param_names:
                if name.endswith("_b"):
                    continue
                loss_value += cfg.l2_penalty * float(np.sum(self.params[name] ** 2))
                grads[name] += 2.0 * cfg.l2_penalty * self.params[name]
        return loss_value, grad


def _copy_named(views: dict[str, np.ndarray], values: dict) -> None:
    """Copy named parameter arrays into views of the same names and shapes (checked: assignment broadcasts)."""
    for name in values:
        if name not in views:
            raise ParameterError(f"unknown parameter {name!r}")
    for name, view in views.items():
        if name not in values:
            raise ParameterError(f"missing parameter {name!r}")
        try:
            value = np.asarray(values[name], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"parameter {name!r} is not a numeric array: {exc}") from None
        if value.shape != view.shape:
            raise ParameterError(f"parameter {name!r} has shape {value.shape}, expected {view.shape}")
        view[...] = value


class Adam:
    """Adam with bias correction; beta1=0.9, beta2=0.999, eps=1e-8; updates ``theta``, ``m``, ``v`` in place."""

    def __init__(self, model: SequenceModel):
        self.lr = float(model.config.learning_rate)
        self.beta1 = 0.9
        self.beta2 = 0.999
        self.eps = 1e-8
        self.t = 0
        self.m = np.zeros_like(model.theta)
        self.v = np.zeros_like(model.theta)

    def step(self, model: SequenceModel, grad: np.ndarray) -> None:
        if np.shape(grad) != model.theta.shape:
            raise ParameterError(f"gradient of shape {np.shape(grad)}, expected {model.theta.shape}")
        self.t += 1
        corr1 = 1.0 - self.beta1**self.t
        corr2 = 1.0 - self.beta2**self.t
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * grad
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * grad * grad
        model.theta -= self.lr * (self.m / corr1) / (np.sqrt(self.v / corr2) + self.eps)


@dataclass
class TrainHistory:
    """Epoch log plus where the best devel score happened."""

    rows: list[tuple[int, float, float]] = field(default_factory=list)
    best_epoch: int = 0

    def best_metric(self) -> float:
        return next((metric for epoch, _, metric in self.rows if epoch == self.best_epoch), float("-inf"))

    def write_csv(self, path: Path | str) -> None:
        rows = np.array(self.rows, dtype=[("epoch", np.int64), ("loss", np.float64), ("metric", np.float64)])
        write_table(path, "epoch,train_loss,devel_metric", rows["epoch"], rows["loss"], rows["metric"])


def evaluate(model: SequenceModel, dataset: Sequence[tuple]) -> float:
    """Devel-style score on full sequences, run in batches of ``batch_size``.

    Regression: 1 - :func:`ccc_loss`, an epsilon-guarded CCC, on the
    concatenation of all sequences (a collapsed model scores near 0 rather
    than erroring). Classification: macro F1 over items, with absent-class
    warnings silenced since they are routine mid-training.
    """
    if not dataset:
        raise ParameterError("cannot evaluate on an empty dataset")
    size = model.config.batch_size
    outs = [
        out
        for start in range(0, len(dataset), size)
        for out in model.forward_batch([x for x, _ in dataset[start : start + size]], keep_cache=False)[0]
    ]
    if model.config.head == "regression":
        golds = np.concatenate([np.asarray(y, dtype=np.float64) for _, y in dataset])
        return 1.0 - ccc_loss(np.concatenate(outs), golds, eps=model.config.loss_eps)[0]
    pred_labels = np.asarray([int(np.argmax(out)) for out in outs])
    gold_labels = np.asarray([int(y) for _, y in dataset])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return macro_f1(pred_labels, gold_labels, n_classes=model.config.n_classes)


def train(
    model: SequenceModel,
    train_set: Sequence[tuple],
    devel_set: Sequence[tuple],
    progress=None,
) -> TrainHistory:
    """Mini-batch training with early stopping on the devel metric.

    Windows are shuffled each epoch with the run seed and consumed in batches
    of ``config.batch_size``. Training stops once the devel metric has failed
    to improve for ``patience`` consecutive epochs (``patience=0`` stops at
    the first non-improving epoch) or at ``max_epochs``; the parameters of
    the best devel epoch are restored before returning. A non-finite loss or
    parameter aborts with :class:`NumericError`.
    """
    if not train_set:
        raise ParameterError("empty training set")
    cfg = model.config
    shuffle_rng = np.random.default_rng([cfg.seed, 1])
    adam = Adam(model)
    history = TrainHistory()
    best_metric = float("-inf")
    best = model.theta.copy()
    streak = 0
    for epoch in range(1, cfg.max_epochs + 1):
        order = shuffle_rng.permutation(len(train_set))
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_set[i] for i in order[start : start + cfg.batch_size]]
            loss, grad = model.loss_and_grads(batch)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite training loss at epoch {epoch}")
            adam.step(model, grad)
            if not np.all(np.isfinite(model.theta)):
                name = next(n for n, p in model.params.items() if not np.all(np.isfinite(p)))
                raise NumericError(f"non-finite parameter {name!r} at epoch {epoch}")
            losses.append(loss)
        metric = evaluate(model, devel_set)
        history.rows.append((epoch, float(np.mean(losses)), float(metric)))
        if progress is not None:
            progress(epoch, float(np.mean(losses)), float(metric))
        if metric > best_metric:
            best_metric = metric
            best = model.theta.copy()
            history.best_epoch = epoch
            streak = 0
        else:
            streak += 1
            if streak >= max(1, cfg.patience):
                break
    model.theta[...] = best
    return history


def check_window(regression: bool, window_spec: WindowSpec | None) -> None:
    """The rule :func:`fit` holds a train window to: a regression window needs at least 2 samples."""
    if regression and window_spec is not None and window_spec.window < 2:
        raise ParameterError(f"a regression window needs at least 2 samples, got window {window_spec.window}")


def fit(
    config: RegressorConfig,
    inputs: Mapping[str, np.ndarray],
    targets: Mapping[str, np.ndarray | int],
    splits: Mapping[str, Sequence[str]],
    window_spec: WindowSpec | None = None,
    progress=None,
) -> tuple[SequenceModel, TrainHistory, dict[str, dict[str, np.ndarray]]]:
    """Train a new model on (T, D) inputs by item id, then predict every item of every split.

    ``targets``: each train and devel item's per-step gold (regression) or class label;
    ``splits``: each split's item ids, in order; "train" and "devel" must be non-empty.
    With ``window_spec`` train items are cut into windows: a regression window (see
    :func:`check_window`) keeps its gold slice and is dropped below 2 samples, a class window
    keeps the item's label. Devel items stay whole for early stopping (see :func:`train`).
    ``outputs``: split -> item id -> output on the item.
    """
    regression = config.head == "regression"
    check_window(regression, window_spec)
    for split in ("train", "devel"):
        if not splits.get(split):
            raise DegenerateInputError(f"fit needs a non-empty {split!r} split")
        for item in splits[split]:
            if item not in targets:
                raise DegenerateInputError(f"no gold for {split} item {item!r}")
            if regression and np.size(targets[item]) != len(inputs[item]):
                raise ParameterError(f"gold length mismatch for item {item!r}")
    train_items = []
    for item in splits["train"]:
        x, y = inputs[item], targets[item]
        if window_spec is None:
            train_items.append((x, y))
        elif regression:
            pairs = zip(window(x, window_spec), window(y, window_spec))
            train_items += [(wx, wy) for (_, wx), (_, wy) in pairs if len(wy) >= 2]
        else:
            train_items += [(wx, y) for _, wx in window(x, window_spec)]
    devel_items = [(inputs[i], targets[i]) for i in splits["devel"]]
    model = SequenceModel(config)
    history = train(model, train_items, devel_items, progress=progress)
    # one item at a time, so memory does not grow with the number predicted
    outputs = {split: {i: model.predict(inputs[i]) for i in ids} for split, ids in splits.items()}
    return model, history, outputs


# ---------------------------------------------------------------------------
# checkpoints (deterministic JSON: repr-formatted floats, sorted keys)


def save_checkpoint(path: Path | str, model: SequenceModel) -> None:
    payload = {
        "config": asdict(model.config),
        "params": {n: model.params[n].tolist() for n in model.param_names},
    }
    write_model_file(path, "sequence_model", payload)


def load_checkpoint(path: Path | str) -> SequenceModel:
    """The model of a checkpoint; a bad file is a ParameterError naming it.

    Only ``config`` and ``params`` are read, so any other top-level key, such as
    the ``optimizer`` state earlier versions saved, is ignored.
    """
    return read_model_file(path, "sequence_model", _from_checkpoint)


def _from_checkpoint(payload: dict) -> SequenceModel:
    return SequenceModel(RegressorConfig(**payload["config"]), params=payload["params"])
