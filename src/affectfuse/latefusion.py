"""Late fusion: the baseline's sequence model fitted on stacked prediction streams.

Regression streams are per-step prediction traces stacked into a
(T, n_streams) input per recording. Sentiment-class streams are per-segment
logit vectors concatenated into one length-1 sequence per segment. Either
way :func:`~affectfuse.seqmodel.fit` trains the fusion model on the train
split, early-stops it on devel and predicts every item; it never needs test
gold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .dataio import WindowSpec
from .errors import ParameterError
from .seqmodel import RegressorConfig, SequenceModel, TrainHistory, fit

__all__ = [
    "REGRESSION_FUSION",
    "SENT_FUSION",
    "FusionPlan",
    "FusionResult",
    "fuse_predictions",
]

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


@dataclass(frozen=True)
class FusionPlan:
    """Inputs to one late-fusion run.

    streams: stream name -> item id -> prediction array. Regression items
    are (T,) traces; sentiment items are (n_classes,) logit vectors.
    gold: item id -> target, required for train and devel items only.
    splits: split name -> item ids ("train" and "devel" are required).
    """

    streams: Mapping[str, Mapping[str, np.ndarray]]
    gold: Mapping[str, np.ndarray | int]
    splits: Mapping[str, tuple[str, ...]]
    window_spec: WindowSpec | None = None
    seed: int = 101
    max_epochs: int = 100
    patience: int = 15
    batch_size: int = 32

    def __post_init__(self) -> None:
        if len(self.streams) < 2:
            raise ParameterError("late fusion needs at least two prediction streams")
        for split in ("train", "devel"):
            if not self.splits.get(split):
                raise ParameterError(f"late fusion needs a non-empty {split!r} split")
            no_gold = [item for item in self.splits[split] if item not in self.gold]
            if no_gold:
                raise ParameterError(f"no gold for {split} item {no_gold[0]!r}")
        items = {i for ids in self.splits.values() for i in ids}
        for name, preds in self.streams.items():
            missing = sorted(items - set(preds))
            if missing:
                raise ParameterError(f"stream {name!r} is missing items: {missing[:5]}")


@dataclass
class FusionResult:
    stream_order: tuple[str, ...]
    config: RegressorConfig
    history: TrainHistory
    devel_score: float
    predictions: dict[str, dict] = field(default_factory=dict)
    model: SequenceModel | None = None


def _stack_regression(plan: FusionPlan, order: tuple[str, ...], item: str) -> np.ndarray:
    traces = [np.asarray(plan.streams[name][item], dtype=np.float64) for name in order]
    for name, tr in zip(order, traces):
        if tr.ndim != 1:
            raise ParameterError(f"stream {name!r} item {item!r} is not a 1-d trace")
        if tr.size != traces[0].size:
            raise ParameterError(f"stream lengths disagree for item {item!r}: {traces[0].size} vs {tr.size}")
    return np.stack(traces, axis=1)


def _stack_sent(plan: FusionPlan, order: tuple[str, ...], item: str) -> np.ndarray:
    parts = [np.asarray(plan.streams[name][item], dtype=np.float64).ravel() for name in order]
    return np.concatenate(parts)[None, :]


def fuse_predictions(plan: FusionPlan, task: str = "regression") -> FusionResult:
    """Stack the streams per item, fit the fusion model and predict every item in every split.

    Sentiment predictions are class labels, the argmax of the fused logits.
    """
    if task not in ("regression", "sent"):
        raise ParameterError(f"unknown fusion task {task!r}")
    order = tuple(plan.streams.keys())
    stack = _stack_regression if task == "regression" else _stack_sent
    stacked = {item: stack(plan, order, item) for ids in plan.splits.values() for item in ids}
    input_dim = next(iter(stacked.values())).shape[1]
    for item, mat in stacked.items():
        if mat.shape[1] != input_dim:
            raise ParameterError(f"inconsistent stacked width for item {item!r}")

    shape = REGRESSION_FUSION if task == "regression" else SENT_FUSION
    head = {"head": "regression"}
    if task == "sent":
        # one output per class: as many as the narrowest stream has logits
        head = {"head": "classification",
                "n_classes": min(np.size(plan.streams[n][i]) for n in order for i in stacked)}
    config = RegressorConfig(
        input_dim=input_dim,
        seed=plan.seed,
        max_epochs=plan.max_epochs,
        patience=plan.patience,
        batch_size=plan.batch_size,
        **shape,
        **head,
    )
    model, history, outputs = fit(config, stacked, plan.gold, plan.splits, plan.window_spec)
    if task == "sent":
        outputs = {split: {i: int(np.argmax(v)) for i, v in out.items()} for split, out in outputs.items()}
    # fit restores the best epoch's parameters, whose devel score it logged
    return FusionResult(
        stream_order=order,
        config=config,
        history=history,
        devel_score=history.best_metric(),
        predictions=outputs,
        model=model,
    )
