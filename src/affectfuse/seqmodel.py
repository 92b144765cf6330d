"""Recurrent sequence baselines: LSTM forward/backward, CCC loss, Adam, training.

Everything is float64 numpy. Gradients are exact reverse-mode BPTT and are
checked against central finite differences in the test suite, so any change
here must keep forward and backward in lockstep.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import NumericError, ParameterError
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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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
    mean-pool-then-linear map for classification.
    """

    def __init__(self, config: RegressorConfig, params: dict[str, np.ndarray] | None = None):
        self.config = config
        self._dirs = ("f", "b") if config.bidirectional else ("f",)
        self.param_names: list[str] = []
        for layer in range(config.layers):
            for d in self._dirs:
                for name in ("W", "U", "b"):
                    self.param_names.append(f"l{layer}{d}_{name}")
        self.param_names += ["head_W", "head_b"]
        self.params = params if params is not None else self._init_params()
        for name in self.param_names:
            if name not in self.params:
                raise ParameterError(f"missing parameter {name!r}")

    # -- construction -------------------------------------------------------

    def _layer_input_dim(self, layer: int) -> int:
        if layer == 0:
            return self.config.input_dim
        return self.config.hidden_dim * len(self._dirs)

    @property
    def _out_dim(self) -> int:
        return self.config.hidden_dim * len(self._dirs)

    def _init_params(self) -> dict[str, np.ndarray]:
        cfg = self.config
        rng = np.random.default_rng([cfg.seed, 0])
        scale = 1.0 / np.sqrt(cfg.hidden_dim)
        h = cfg.hidden_dim
        params: dict[str, np.ndarray] = {}
        for layer in range(cfg.layers):
            d_in = self._layer_input_dim(layer)
            for d in self._dirs:
                params[f"l{layer}{d}_W"] = rng.uniform(-scale, scale, size=(d_in, 4 * h))
                params[f"l{layer}{d}_U"] = rng.uniform(-scale, scale, size=(h, 4 * h))
                b = rng.uniform(-scale, scale, size=4 * h)
                b[h : 2 * h] += 1.0  # forget-gate bias starts open
                params[f"l{layer}{d}_b"] = b
        n_out = 1 if cfg.head == "regression" else cfg.n_classes
        params["head_W"] = rng.uniform(-scale, scale, size=(self._out_dim, n_out))
        params["head_b"] = rng.uniform(-scale, scale, size=n_out)
        return params

    def param_count(self) -> int:
        return int(sum(self.params[n].size for n in self.param_names))

    # -- forward ------------------------------------------------------------

    def _run_direction(self, x: np.ndarray, layer: int, d: str) -> tuple[np.ndarray, dict]:
        h = self.config.hidden_dim
        w = self.params[f"l{layer}{d}_W"]
        u = self.params[f"l{layer}{d}_U"]
        b = self.params[f"l{layer}{d}_b"]
        t_len = x.shape[0]
        gates = np.empty((t_len, 4 * h))
        cells = np.empty((t_len, h))
        hidden = np.empty((t_len, h))
        h_prev = np.zeros(h)
        c_prev = np.zeros(h)
        for t in range(t_len):
            pre = x[t] @ w + h_prev @ u + b
            gi = _sigmoid(pre[:h])
            gf = _sigmoid(pre[h : 2 * h])
            gg = np.tanh(pre[2 * h : 3 * h])
            go = _sigmoid(pre[3 * h :])
            c_prev = gf * c_prev + gi * gg
            h_prev = go * np.tanh(c_prev)
            gates[t] = np.concatenate([gi, gf, gg, go])
            cells[t] = c_prev
            hidden[t] = h_prev
        return hidden, {"x": x, "gates": gates, "cells": cells, "hidden": hidden}

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        """Run the full stack; returns (output, cache) for the backward pass.

        Output is per-step predictions (T,) for regression, class logits
        (n_classes,) for classification.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.config.input_dim:
            raise ParameterError(
                f"expected input dim {self.config.input_dim}, got {x.shape[1]}"
            )
        cache: dict = {"layers": []}
        current = x
        for layer in range(self.config.layers):
            per_dir = {}
            outs = []
            for d in self._dirs:
                xin = current if d == "f" else current[::-1]
                hid, c = self._run_direction(xin, layer, d)
                per_dir[d] = c
                outs.append(hid if d == "f" else hid[::-1])
            cache["layers"].append(per_dir)
            current = np.concatenate(outs, axis=1)
        cache["features"] = current
        if self.config.head == "regression":
            out = (current @ self.params["head_W"])[:, 0] + self.params["head_b"][0]
        else:
            pooled = current.mean(axis=0)
            cache["pooled"] = pooled
            out = pooled @ self.params["head_W"] + self.params["head_b"]
        return out, cache

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Forward pass on a full sequence without keeping the cache."""
        return self.forward(x)[0]

    def predict_class(self, x: np.ndarray) -> int:
        if self.config.head != "classification":
            raise ParameterError("predict_class needs a classification head")
        return int(np.argmax(self.predict(x)))

    # -- backward -----------------------------------------------------------

    def _back_direction(
        self, d_hidden: np.ndarray, layer: int, d: str, cache: dict, grads: dict
    ) -> np.ndarray:
        h = self.config.hidden_dim
        w = self.params[f"l{layer}{d}_W"]
        u = self.params[f"l{layer}{d}_U"]
        x = cache["x"]
        gates = cache["gates"]
        cells = cache["cells"]
        hidden = cache["hidden"]
        t_len = x.shape[0]
        dw = grads[f"l{layer}{d}_W"]
        du = grads[f"l{layer}{d}_U"]
        db = grads[f"l{layer}{d}_b"]
        dx = np.zeros_like(x)
        dh_next = np.zeros(h)
        dc_next = np.zeros(h)
        for t in range(t_len - 1, -1, -1):
            gi = gates[t, :h]
            gf = gates[t, h : 2 * h]
            gg = gates[t, 2 * h : 3 * h]
            go = gates[t, 3 * h :]
            tc = np.tanh(cells[t])
            dh = d_hidden[t] + dh_next
            dc = dh * go * (1.0 - tc * tc) + dc_next
            c_prev = cells[t - 1] if t > 0 else np.zeros(h)
            h_prev = hidden[t - 1] if t > 0 else np.zeros(h)
            dpre = np.concatenate(
                [
                    dc * gg * gi * (1.0 - gi),
                    dc * c_prev * gf * (1.0 - gf),
                    dc * gi * (1.0 - gg * gg),
                    dh * tc * go * (1.0 - go),
                ]
            )
            dw += np.outer(x[t], dpre)
            du += np.outer(h_prev, dpre)
            db += dpre
            dx[t] = dpre @ w.T
            dh_next = dpre @ u.T
            dc_next = dc * gf
        return dx

    def backward(self, d_out: np.ndarray, cache: dict, grads: dict) -> None:
        """Accumulate gradients into ``grads`` given d(loss)/d(output)."""
        cfg = self.config
        features = cache["features"]
        if cfg.head == "regression":
            d_vec = np.asarray(d_out, dtype=np.float64)
            grads["head_W"] += features.T @ d_vec[:, None]
            grads["head_b"] += np.array([d_vec.sum()])
            d_feat = d_vec[:, None] @ self.params["head_W"].T
        else:
            d_logits = np.asarray(d_out, dtype=np.float64)
            grads["head_W"] += np.outer(cache["pooled"], d_logits)
            grads["head_b"] += d_logits
            d_pooled = self.params["head_W"] @ d_logits
            d_feat = np.tile(d_pooled / features.shape[0], (features.shape[0], 1))
        h = cfg.hidden_dim
        for layer in range(cfg.layers - 1, -1, -1):
            d_next = None
            for di, d in enumerate(self._dirs):
                d_hid = d_feat[:, di * h : (di + 1) * h]
                if d == "b":
                    d_hid = d_hid[::-1]
                dx = self._back_direction(d_hid, layer, d, cache["layers"][layer][d], grads)
                if d == "b":
                    dx = dx[::-1]
                d_next = dx if d_next is None else d_next + dx
            d_feat = d_next

    # -- batched loss -------------------------------------------------------

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {n: np.zeros_like(self.params[n]) for n in self.param_names}

    def loss_and_grads(self, batch: Sequence[tuple]) -> tuple[float, dict[str, np.ndarray]]:
        """Mean loss over a batch of (sequence, target) pairs plus gradients.

        The L2 penalty applies to weight matrices only (not biases) and adds
        ``2 * l2_penalty * w`` to each weight gradient.
        """
        if not batch:
            raise ParameterError("empty batch")
        cfg = self.config
        grads = self.zero_grads()
        total = 0.0
        for x, y in batch:
            out, cache = self.forward(x)
            if cfg.head == "regression":
                loss, d_out = ccc_loss(out, y, eps=cfg.loss_eps)
            else:
                loss, d_out = cross_entropy_loss(out, y)
            total += loss
            self.backward(d_out, cache, grads)
        n = len(batch)
        for name in grads:
            grads[name] /= n
        loss_value = total / n
        if cfg.l2_penalty > 0.0:
            for name in self.param_names:
                if name.endswith("_b"):
                    continue
                loss_value += cfg.l2_penalty * float(np.sum(self.params[name] ** 2))
                grads[name] += 2.0 * cfg.l2_penalty * self.params[name]
        return loss_value, grads

    # -- flat views for finite-difference checks ----------------------------

    def flat_params(self) -> np.ndarray:
        return np.concatenate([self.params[n].ravel() for n in self.param_names])

    def set_flat_params(self, flat: np.ndarray) -> None:
        pos = 0
        for n in self.param_names:
            size = self.params[n].size
            self.params[n] = flat[pos : pos + size].reshape(self.params[n].shape).copy()
            pos += size
        if pos != flat.size:
            raise ParameterError("flat parameter vector has the wrong length")

    def flat_grads(self, grads: dict[str, np.ndarray]) -> np.ndarray:
        return np.concatenate([grads[n].ravel() for n in self.param_names])

    def snapshot(self) -> dict[str, np.ndarray]:
        return {n: v.copy() for n, v in self.params.items()}

    def restore(self, snapshot: dict[str, np.ndarray]) -> None:
        self.params = {n: v.copy() for n, v in snapshot.items()}


class Adam:
    """Adam with bias correction; beta1=0.9, beta2=0.999, eps=1e-8."""

    def __init__(self, model: SequenceModel, lr: float | None = None):
        self.lr = float(lr if lr is not None else model.config.learning_rate)
        self.beta1 = 0.9
        self.beta2 = 0.999
        self.eps = 1e-8
        self.t = 0
        self.m = {n: np.zeros_like(p) for n, p in model.params.items()}
        self.v = {n: np.zeros_like(p) for n, p in model.params.items()}

    def step(self, model: SequenceModel, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        corr1 = 1.0 - self.beta1**self.t
        corr2 = 1.0 - self.beta2**self.t
        for n in model.param_names:
            g = grads[n]
            self.m[n] = self.beta1 * self.m[n] + (1.0 - self.beta1) * g
            self.v[n] = self.beta2 * self.v[n] + (1.0 - self.beta2) * g * g
            model.params[n] = model.params[n] - self.lr * (self.m[n] / corr1) / (
                np.sqrt(self.v[n] / corr2) + self.eps
            )


@dataclass
class TrainHistory:
    """Epoch log plus where the best devel score happened."""

    rows: list[tuple[int, float, float]] = field(default_factory=list)
    best_epoch: int = 0
    stopped_early: bool = False

    def best_metric(self) -> float:
        for epoch, _, metric in self.rows:
            if epoch == self.best_epoch:
                return metric
        return float("-inf")

    def write_csv(self, path: Path | str) -> None:
        lines = ["epoch,train_loss,devel_metric"]
        lines += [f"{e},{repr(l)},{repr(m)}" for e, l, m in self.rows]
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text("\n".join(lines) + "\n")


def evaluate(model: SequenceModel, dataset: Sequence[tuple]) -> float:
    """Devel-style score on full sequences.

    Regression: 1 - :func:`ccc_loss`, an epsilon-guarded CCC, on the
    concatenation of all sequences (a collapsed model scores near 0 rather
    than erroring). Classification: macro F1 over items, with absent-class
    warnings silenced since they are routine mid-training.
    """
    if not dataset:
        raise ParameterError("cannot evaluate on an empty dataset")
    if model.config.head == "regression":
        preds = np.concatenate([model.predict(x) for x, _ in dataset])
        golds = np.concatenate([np.asarray(y, dtype=np.float64) for _, y in dataset])
        return 1.0 - ccc_loss(preds, golds, eps=model.config.loss_eps)[0]
    pred_labels = np.asarray([model.predict_class(x) for x, _ in dataset])
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
    best_params = model.snapshot()
    streak = 0
    for epoch in range(1, cfg.max_epochs + 1):
        order = shuffle_rng.permutation(len(train_set))
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_set[i] for i in order[start : start + cfg.batch_size]]
            loss, grads = model.loss_and_grads(batch)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite training loss at epoch {epoch}")
            adam.step(model, grads)
            for name in model.param_names:
                if not np.all(np.isfinite(model.params[name])):
                    raise NumericError(f"non-finite parameter {name!r} at epoch {epoch}")
            losses.append(loss)
        metric = evaluate(model, devel_set)
        history.rows.append((epoch, float(np.mean(losses)), float(metric)))
        if progress is not None:
            progress(epoch, float(np.mean(losses)), float(metric))
        if metric > best_metric:
            best_metric = metric
            best_params = model.snapshot()
            history.best_epoch = epoch
            streak = 0
        else:
            streak += 1
            if streak >= max(1, cfg.patience):
                history.stopped_early = True
                break
    model.restore(best_params)
    return history


# ---------------------------------------------------------------------------
# checkpoints (deterministic JSON: repr-formatted floats, sorted keys)


def save_checkpoint(path: Path | str, model: SequenceModel, adam: Adam | None = None) -> None:
    payload: dict = {
        "format_version": 1,
        "kind": "sequence_model",
        "config": asdict(model.config),
        "params": {n: model.params[n].tolist() for n in model.param_names},
    }
    if adam is not None:
        payload["optimizer"] = {
            "t": adam.t,
            "lr": adam.lr,
            "m": {n: adam.m[n].tolist() for n in model.param_names},
            "v": {n: adam.v[n].tolist() for n in model.param_names},
        }
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def load_checkpoint(path: Path | str) -> tuple[SequenceModel, Adam | None]:
    payload = json.loads(Path(path).read_text())
    if payload.get("kind") != "sequence_model" or payload.get("format_version") != 1:
        raise ParameterError(f"{path}: not a version-1 sequence model checkpoint")
    config = RegressorConfig(**payload["config"])
    params = {n: np.asarray(v, dtype=np.float64) for n, v in payload["params"].items()}
    model = SequenceModel(config, params=params)
    adam = None
    if "optimizer" in payload:
        adam = Adam(model, lr=payload["optimizer"]["lr"])
        adam.t = int(payload["optimizer"]["t"])
        adam.m = {n: np.asarray(v, dtype=np.float64) for n, v in payload["optimizer"]["m"].items()}
        adam.v = {n: np.asarray(v, dtype=np.float64) for n, v in payload["optimizer"]["v"].items()}
    return model, adam
