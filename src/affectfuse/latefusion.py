"""Late fusion: the baseline's sequence model fitted on stacked prediction streams.

Regression streams are per-step prediction traces stacked into a
(T, n_streams) input per recording. Sentiment-class streams are per-segment
logit vectors concatenated into one length-1 sequence per segment. Either
way :func:`~affectfuse.seqmodel.fit` trains the fusion model on the train
split, early-stops it on devel and predicts every item; it never needs test
gold.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .dataio import WindowSpec
from .errors import DegenerateInputError, ParameterError
from .seqmodel import RegressorConfig, SequenceModel, TrainHistory, fit

__all__ = ["REGRESSION_FUSION", "SENT_FUSION", "fuse_predictions"]

# Fusion model shapes are fixed per task family; only the protocol knobs
# (epochs, patience, batch, seed, window) vary.
REGRESSION_FUSION = {
    "hidden_dim": 64,
    "layers": 1,
    "bidirectional": False,
    "learning_rate": 1e-4,
}
SENT_FUSION = {
    "hidden_dim": 32,
    "layers": 2,
    "bidirectional": True,
    "learning_rate": 5e-3,
}


def _stack(streams: Mapping[str, Mapping[str, np.ndarray]], item: str, task: str) -> np.ndarray:
    """One item's predictions of every stream, in stream order: (T, n_streams) traces or a (1, D) logit row."""
    parts = []
    for name, preds in streams.items():
        if item not in preds:
            raise ParameterError(f"stream {name!r} is missing item {item!r}")
        parts.append(np.asarray(preds[item], dtype=np.float64))
    if task == "sent":
        return np.concatenate([p.ravel() for p in parts])[None, :]
    for name, tr in zip(streams, parts):
        if tr.ndim != 1:
            raise ParameterError(f"stream {name!r} item {item!r} is not a 1-d trace")
        if tr.size != parts[0].size:
            raise ParameterError(f"stream lengths disagree for item {item!r}: {parts[0].size} vs {tr.size}")
    return np.stack(parts, axis=1)


def fuse_predictions(
    streams: Mapping[str, Mapping[str, np.ndarray]],
    gold: Mapping[str, np.ndarray | int],
    splits: Mapping[str, Sequence[str]],
    task: str = "regression",
    window_spec: WindowSpec | None = None,
    *,
    seed: int = 101,
    max_epochs: int = 100,
    patience: int = 15,
    batch_size: int = 32,
) -> tuple[SequenceModel, TrainHistory, dict[str, dict]]:
    """Stack the streams per item, fit the fusion model and predict every item in every split.

    ``streams``: stream name -> item id -> prediction; regression items are (T,) traces,
    sentiment items (n_classes,) logit vectors, and the key order is the stacking order.
    ``gold`` and ``splits`` are as for :func:`~affectfuse.seqmodel.fit`, which also checks
    them. Returns ``fit``'s ``(model, history, outputs)``; sentiment outputs are class
    labels, the argmax of the fused logits.
    """
    if task not in ("regression", "sent"):
        raise ParameterError(f"unknown fusion task {task!r}")
    if len(streams) < 2:
        raise ParameterError("late fusion needs at least two prediction streams")
    stacked = {item: _stack(streams, item, task) for ids in splits.values() for item in ids}
    if not stacked:
        raise DegenerateInputError("late fusion has no item to size its model from")
    input_dim = next(iter(stacked.values())).shape[1]
    for item, mat in stacked.items():
        if mat.shape[1] != input_dim:
            raise ParameterError(f"inconsistent stacked width for item {item!r}")

    head = {"head": "regression"}
    if task == "sent":
        # one output per class: as many as the narrowest stream has logits
        head = {"head": "classification",
                "n_classes": min(np.size(preds[i]) for preds in streams.values() for i in stacked)}
    config = RegressorConfig(
        input_dim=input_dim,
        seed=seed,
        max_epochs=max_epochs,
        patience=patience,
        batch_size=batch_size,
        **(REGRESSION_FUSION if task == "regression" else SENT_FUSION),
        **head,
    )
    model, history, outputs = fit(config, stacked, gold, splits, window_spec)
    if task == "sent":
        outputs = {split: {i: int(np.argmax(v)) for i, v in out.items()} for split, out in outputs.items()}
    return model, history, outputs
