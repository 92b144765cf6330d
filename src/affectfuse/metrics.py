"""Scoring: concordance and Pearson correlation, macro F1, combined reports."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from .errors import DegenerateInputError, ParameterError

__all__ = [
    "Moments",
    "moments",
    "ccc",
    "pearson",
    "macro_f1",
    "partition_ccc",
    "ScoreReport",
]


def _check_pair(pred, gold, name: str) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gold, dtype=np.float64)
    if p.ndim != 1 or g.ndim != 1:
        raise ParameterError(f"{name}: inputs must be 1-d")
    if p.size != g.size:
        raise ParameterError(f"{name}: length mismatch {p.size} vs {g.size}")
    if p.size < 2:
        raise ParameterError(f"{name}: need at least 2 samples, got {p.size}")
    if np.ptp(p) == 0.0:
        raise DegenerateInputError(f"{name} undefined: prediction is constant")
    if np.ptp(g) == 0.0:
        raise DegenerateInputError(f"{name} undefined: reference is constant")
    return p, g


class Moments(NamedTuple):
    """Population moments of a pair of equal-length float64 sequences."""

    mean_p: np.float64
    mean_g: np.float64
    dev_p: np.ndarray
    dev_g: np.ndarray
    var_p: np.float64
    var_g: np.float64
    cov: np.float64

    def correlation(self) -> float:
        """Pearson correlation; callers check for a zero variance first."""
        return float(self.cov / (np.sqrt(self.var_p) * np.sqrt(self.var_g)))


def moments(p: np.ndarray, g: np.ndarray) -> Moments:
    """Means, centred values, population (1/N) variances and covariance.

    The one place CCC, Pearson correlation, the CCC training loss and the
    rater weighting get their moments from; inputs are float64 arrays.
    """
    mp, mg = p.mean(), g.mean()
    dp, dg = p - mp, g - mg
    return Moments(mp, mg, dp, dg, (dp**2).mean(), (dg**2).mean(), (dp * dg).mean())


def ccc(pred, gold) -> float:
    """Concordance correlation coefficient with population (1/N) moments.

    2*cov / (var_pred + var_gold + (mean_pred - mean_gold)^2). Unlike Pearson
    correlation it punishes bias and scale disagreement, so a collapsed or
    offset prediction cannot score 1. Constant inputs raise
    :class:`DegenerateInputError` rather than silently scoring 0.
    """
    m = moments(*_check_pair(pred, gold, "ccc"))
    return float(2.0 * m.cov / (m.var_p + m.var_g + (m.mean_p - m.mean_g) ** 2))


def pearson(pred, gold) -> float:
    """Population product-moment correlation of two sequences."""
    return moments(*_check_pair(pred, gold, "pearson")).correlation()


def macro_f1(pred, gold, n_classes: int = 5) -> float:
    """Unweighted mean of per-class F1 over all ``n_classes`` classes.

    A class absent from both prediction and gold contributes F1 = 0 and emits
    a warning; a denominator of zero in precision or recall counts as 0.
    """
    p = np.asarray(pred)
    g = np.asarray(gold)
    if p.ndim != 1 or g.ndim != 1 or p.size != g.size:
        raise ParameterError("macro_f1: inputs must be 1-d of equal length")
    if p.size == 0:
        raise ParameterError("macro_f1: empty input")
    if n_classes < 2:
        raise ParameterError("macro_f1: need at least 2 classes")
    for arr, which in ((p, "prediction"), (g, "gold")):
        if not np.issubdtype(arr.dtype, np.integer):
            if not np.all(arr == arr.astype(np.int64)):
                raise ParameterError(f"macro_f1: non-integer {which} labels")
        if arr.min() < 0 or arr.max() >= n_classes:
            raise ParameterError(
                f"macro_f1: {which} labels outside [0, {n_classes - 1}]"
            )
    p = p.astype(np.int64)
    g = g.astype(np.int64)
    scores = []
    for c in range(n_classes):
        tp = int(np.sum((p == c) & (g == c)))
        fp = int(np.sum((p == c) & (g != c)))
        fn = int(np.sum((p != c) & (g == c)))
        if tp == 0 and fp == 0 and fn == 0:
            warnings.warn(f"class {c} absent from both prediction and gold; F1 set to 0")
            scores.append(0.0)
            continue
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        scores.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return float(np.mean(scores))


def partition_ccc(preds: Mapping[str, np.ndarray], golds: Mapping[str, np.ndarray]) -> float:
    """Partition-level CCC: one score on the concatenation of all sequences.

    Sequences are concatenated in sorted recording order; every prediction
    must have a gold sequence of the same length.
    """
    if not preds:
        raise ParameterError("partition_ccc: no predictions")
    missing = sorted(set(preds) - set(golds))
    if missing:
        raise ParameterError(f"partition_ccc: no gold for recordings {missing}")
    order = sorted(preds)
    for rid in order:
        if np.asarray(preds[rid]).size != np.asarray(golds[rid]).size:
            raise ParameterError(f"partition_ccc: length mismatch for recording {rid!r}")
    p = np.concatenate([np.asarray(preds[r], dtype=np.float64) for r in order])
    g = np.concatenate([np.asarray(golds[r], dtype=np.float64) for r in order])
    return ccc(p, g)


@dataclass(frozen=True)
class ScoreReport:
    """Named per-target scores plus their combined (mean) score."""

    per_target: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.per_target:
            raise ParameterError("score report needs at least one target")

    @property
    def combined(self) -> float:
        return float(np.mean(list(self.per_target.values())))

    def machine_lines(self) -> list[str]:
        """``key=value`` lines, one per target plus the combined score."""
        lines = [f"{k}={v:.6f}" for k, v in self.per_target.items()]
        if len(self.per_target) > 1:
            lines.append(f"combined={self.combined:.6f}")
        return lines

    def table_text(self) -> str:
        """Aligned two-column rendering for humans."""
        rows = list(self.per_target.items())
        if len(rows) > 1:
            rows.append(("combined", self.combined))
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k.ljust(width)}  {v: .4f}" for k, v in rows)
