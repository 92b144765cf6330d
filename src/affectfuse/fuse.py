"""Gold-standard fusion: rater-aligned weighting and physiology substitution."""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .align import AlignmentResult, FusionConfig, multi_align
from .core import RaterSet, savgol_smooth, standardize_values
from .dataio import uniform_step_ms
from .errors import DegenerateInputError, ParameterError
from .metrics import moments

__all__ = [
    "PhysioConfig",
    "GoldStandard",
    "ewe_weights",
    "raaw",
    "prepare_physio",
    "physio_fuse",
    "agreement_stats",
]


@dataclass(frozen=True)
class PhysioConfig:
    """Physiology-substitution settings on top of :class:`FusionConfig`.

    The smoothing window counts samples at the label rate, at which the
    physiological signal is sampled: window 26 at 2 Hz smooths over 13 seconds.
    """

    fusion: FusionConfig = field(default_factory=FusionConfig)
    sg_window: int = 26
    sg_polyorder: int = 3

    def __post_init__(self) -> None:
        if self.sg_window < 2 or not 0 <= self.sg_polyorder < self.sg_window:  # savgol_smooth's checks, up front
            raise ParameterError(f"polyorder {self.sg_polyorder} must be >= 0 and < window {self.sg_window} (>= 2)")


@dataclass(frozen=True)
class GoldStandard:
    """Fused annotation, a value per timestamp of its rater set, with its provenance: weights, alignment, agreement."""

    recording_id: str
    kind: str
    values: np.ndarray
    weights: np.ndarray
    alignment: AlignmentResult
    agreement_mean: float
    agreement_std: float
    timestamps_ms: np.ndarray
    metadata: dict = field(default_factory=dict)

    def sidecar(self) -> dict:
        """The JSON sidecar of this gold standard's CSV: every field but ``values``, ``alignment`` and
        ``timestamps_ms``, whose rate (see :func:`uniform_step_ms`) it holds, with ``metadata`` merged in."""
        return {
            "recording_id": self.recording_id,
            "kind": self.kind,
            "sample_rate_hz": 1000.0 / uniform_step_ms(self.timestamps_ms),
            "weights": self.weights.tolist(),
            "agreement_mean": self.agreement_mean,
            "agreement_std": self.agreement_std,
            **self.metadata,
        }


def ewe_weights(traces: np.ndarray) -> np.ndarray:
    """Evaluator-weighted-estimator weights of the rows of a (traces, samples) matrix.

    Each trace's raw weight is its Pearson correlation with the mean of the
    other traces, clipped at zero; weights are normalized to sum to 1. A
    constant trace, or one whose mean-of-others is constant, gets raw weight
    0. If no trace earns positive weight the fallback is uniform.
    """
    mat = np.asarray(traces, dtype=np.float64)
    k, n = mat.shape
    if k < 2:
        raise ParameterError("ewe_weights needs at least 2 traces")
    if n < 2:
        raise ParameterError("ewe_weights needs traces of length >= 2")
    total = mat.sum(axis=0)
    raw = np.zeros(k)
    for i in range(k):
        m = moments(mat[i], (total - mat[i]) / (k - 1))
        raw[i] = max(0.0, m.correlation()) if m.var_p != 0.0 and m.var_g != 0.0 else 0.0
    if raw.sum() <= 0.0:
        warnings.warn("no trace has positive inter-rater correlation; using uniform weights")
        return np.full(k, 1.0 / k)
    return raw / raw.sum()


def _pairwise_agreement(mat: np.ndarray, recording_id: str) -> tuple[float, float]:
    """Mean and population std of pairwise Pearson CCs; NaN if no pair is defined."""
    ccs = []
    skipped = 0
    k = mat.shape[0]
    for i in range(k):
        for j in range(i + 1, k):
            m = moments(mat[i], mat[j])
            if m.var_p == 0.0 or m.var_g == 0.0:
                skipped += 1
            else:
                ccs.append(m.correlation())
    if skipped:
        warnings.warn(
            f"recording {recording_id!r}: {skipped} rater pair(s) with a constant trace "
            "skipped in the agreement computation"
        )
    if not ccs:
        warnings.warn(f"recording {recording_id!r}: inter-rater agreement undefined")
        return float("nan"), float("nan")
    arr = np.asarray(ccs)
    return float(arr.mean()), float(arr.std())


def raaw(rater_set: RaterSet, config: FusionConfig | None = None) -> GoldStandard:
    """Fuse a rater set into one gold standard.

    Pipeline: standardize every trace once (a trace whose moments overflow
    float64 raises :class:`DegenerateInputError` naming it), align the
    standardized traces onto a common grid (iterative reference-based
    warping), weight the aligned traces by their agreement with the others,
    and fuse by weighted sum. Inter-rater agreement is reported on the
    aligned traces; the pre-alignment numbers, on the standardized traces,
    are kept in ``metadata``, with the alignment settings under ``fusion``.
    """
    config = config or FusionConfig()
    if len(rater_set) < 2:
        raise DegenerateInputError(
            f"recording {rater_set.recording_id!r}: fusion needs at least 2 raters, "
            f"got {len(rater_set)}"
        )
    std_values, degenerate = np.empty(rater_set.values.shape), []
    for rid, row, out in zip(rater_set.rater_ids, rater_set.values, std_values):
        try:
            out[:], flag = standardize_values(row)
        except DegenerateInputError as exc:  # moments past float64's range
            raise DegenerateInputError(f"trace {rid!r}: {exc}") from None
        if flag:
            degenerate.append(rid)
    pre_mean, pre_std = _pairwise_agreement(std_values, rater_set.recording_id)
    alignment = multi_align(std_values, config)
    weights = ewe_weights(alignment.warped)
    values = weights @ alignment.warped
    agr_mean, agr_std = _pairwise_agreement(alignment.warped, rater_set.recording_id)
    return GoldStandard(
        recording_id=rater_set.recording_id,
        kind=rater_set.kind,
        values=values,
        weights=weights,
        alignment=alignment,
        agreement_mean=agr_mean,
        agreement_std=agr_std,
        timestamps_ms=rater_set.timestamps_ms,
        metadata={
            "fusion": asdict(config),
            "rater_ids": list(rater_set.rater_ids),
            "pre_agreement_mean": pre_mean,
            "pre_agreement_std": pre_std,
            "degenerate_raters": degenerate,
            "iterations": alignment.iterations,
            "converged": alignment.converged,
            "stop_reason": alignment.stop_reason,
            "objective": alignment.objective,
            "max_delta": alignment.max_delta,
        },
    )


def prepare_physio(eda: np.ndarray, config: PhysioConfig) -> tuple[np.ndarray, bool]:
    """The pseudo-rater values of a physiological signal read at the annotation timestamps (see
    ``dataio.read_physio_csv``): Savitzky-Golay smoothed (even windows supported), then standardized.
    Returns them with the constant flag of :func:`standardize_values`."""
    return standardize_values(savgol_smooth(eda, config.sg_window, config.sg_polyorder))


def physio_fuse(rater_set: RaterSet, eda: np.ndarray, config: PhysioConfig | None = None) -> GoldStandard:
    """Gold standard with the least-agreeing annotator replaced by physiology.

    ``eda`` is the physiological signal at the rater set's timestamps.
    Annotator weights are computed exactly as in :func:`raaw` on the original
    set; the annotator with the minimum weight (ties: lowest index) is
    dropped, the processed physiological signal joins as the pseudo-rater
    ``physio:<recording_id>``, and the fusion pipeline reruns on the
    substituted set.
    """
    config = config or PhysioConfig()
    ranking = raaw(rater_set, config.fusion)
    drop = int(np.argmin(ranking.weights))  # argmin takes the lowest index on ties
    physio, degenerate = prepare_physio(eda, config)
    if degenerate:
        warnings.warn(f"recording {rater_set.recording_id!r}: physiological signal is constant; its weight will be 0")
    ids = [*rater_set.rater_ids[:drop], *rater_set.rater_ids[drop + 1 :], f"physio:{rater_set.recording_id}"]
    rows = [*np.delete(rater_set.values, drop, axis=0), physio]
    gold = raaw(RaterSet(rater_set.recording_id, ids, rows, rater_set.kind, rater_set.timestamps_ms), config.fusion)
    gold.metadata.update(
        {
            "removed_rater": rater_set.rater_ids[drop],
            "removed_index": drop,
            "annotator_weights": [float(w) for w in ranking.weights],
            "sg_window": config.sg_window,
            "sg_polyorder": config.sg_polyorder,
            "target_hz": 1000.0 / uniform_step_ms(rater_set.timestamps_ms),
        }
    )
    return gold


def agreement_stats(golds: Sequence[GoldStandard]) -> tuple[float, float]:
    """Mean and population std of per-recording inter-rater agreement.

    Recordings whose agreement is undefined (all raters constant) are
    skipped with a warning.
    """
    if not golds:
        raise ParameterError("agreement_stats needs at least one gold standard")
    vals = []
    for g in golds:
        if np.isnan(g.agreement_mean):
            warnings.warn(f"recording {g.recording_id!r} skipped: agreement undefined")
        else:
            vals.append(g.agreement_mean)
    if not vals:
        raise DegenerateInputError("agreement undefined for every recording")
    arr = np.asarray(vals)
    return float(arr.mean()), float(arr.std())
