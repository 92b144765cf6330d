"""Late fusion: the baseline's sequence model fitted on stacked prediction streams.

Regression streams are per-step prediction traces stacked into a
(T, n_streams) input per recording. Sentiment-class streams are per-segment
logit vectors concatenated into one length-1 sequence per segment. Either
way :func:`~affectfuse.seqmodel.fit` trains the fusion model on the train
split, early-stops it on devel and predicts every item; it never needs test
gold. ``fuse-late`` stacks the streams in ``--streams`` order and fits a
:class:`~affectfuse.seqmodel.RegressorConfig` of one of these shapes.
"""

from __future__ import annotations

__all__ = ["REGRESSION_FUSION", "SENT_FUSION"]

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
