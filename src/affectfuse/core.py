"""Core signal types and preprocessing: standardize, Savitzky-Golay smoothing."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ParameterError

__all__ = [
    "KINDS",
    "AnnotationTrace",
    "RaterSet",
    "grid_timestamps_ms",
    "standardize_values",
    "savgol_smooth",
]

KINDS = ("valence", "arousal", "physio")

# Relative spread below this is treated as constant: standardizing float noise
# around a flat signal would amplify rounding error into a fake +-1 pattern.
_CONST_RTOL = 1e-12


def _as_readonly(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def grid_timestamps_ms(n: int, rate_hz: float) -> np.ndarray:
    """Integer millisecond timestamps of an ``n``-sample uniform grid starting at 0."""
    return np.rint(np.arange(n) * 1000.0 / rate_hz).astype(np.int64)


@dataclass(frozen=True)
class AnnotationTrace:
    """One signal of a single ``timestamp_ms,value`` file, a rater's or a physiological one, that
    ``dataio.write_annotation_csv`` writes at ``sample_rate_hz`` from t = 0. ``values`` is copied and frozen."""

    rater_id: str
    sample_rate_hz: float
    values: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        arr = _as_readonly(np.atleast_1d(np.asarray(self.values, dtype=np.float64)))
        object.__setattr__(self, "values", arr)
        if arr.ndim != 1 or arr.size < 1:
            raise ParameterError("trace values must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ParameterError(f"trace {self.rater_id!r} contains non-finite values")
        if not self.sample_rate_hz > 0:
            raise ParameterError("sample_rate_hz must be positive")
        if self.kind not in KINDS:
            raise ParameterError(f"unknown trace kind {self.kind!r}; expected one of {KINDS}")

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class RaterSet:
    """One recording's traces of one kind as a copied, read-only matrix: ``values`` has a row per rater of ``rater_ids``
    and a column per int64 timestamp of ``timestamps_ms``, the grid they were read on, which their fused gold keeps."""

    recording_id: str
    rater_ids: tuple[str, ...]
    values: np.ndarray
    kind: str
    timestamps_ms: np.ndarray

    def __post_init__(self) -> None:
        ids, ts = tuple(self.rater_ids), _as_readonly(self.timestamps_ms, np.int64)
        if not ids or not ts.size or len(self.values) != len(ids):
            raise ParameterError(f"rater set {self.recording_id!r} needs a timestamp and a row of values per rater id, "
                                 f"at least one: got {len(self.values)} rows for {len(ids)} ids, {ts.size} timestamps")
        try:
            values = _as_readonly(self.values)
        except ValueError:  # rows of unequal length, or a value that is no number
            values = None
        if values is None or values.shape != (len(ids), ts.size):
            row = next((i for i, r in enumerate(self.values) if np.shape(r) != ts.shape), None)
            if row is None:  # no row is off the grid, so a value is no number
                raise ParameterError(f"rater set {self.recording_id!r} needs a row of {ts.size} numbers per rater id")
            raise ParameterError(f"trace {ids[row]!r} of rater set {self.recording_id!r} has "
                                 f"{np.size(self.values[row])} values for {ts.size} timestamps")
        if self.kind not in KINDS:
            raise ParameterError(f"unknown trace kind {self.kind!r}; expected one of {KINDS}")
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            raise ParameterError(f"trace {ids[int(np.argmin(finite))]!r} contains non-finite values")
        for name, value in (("rater_ids", ids), ("values", values), ("timestamps_ms", ts)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.rater_ids)

    @property
    def n_samples(self) -> int:
        return int(self.timestamps_ms.size)


def standardize_values(x: np.ndarray) -> tuple[np.ndarray, bool]:
    """Zero-mean unit-variance copy of ``x`` with population (1/N) moments.

    Returns ``(standardized, degenerate)``; a constant input maps to all
    zeros with ``degenerate=True`` instead of dividing by zero.
    """
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean()
    sigma = x.std()
    if np.ptp(x) == 0.0 or sigma <= _CONST_RTOL * max(1.0, abs(mu)):
        return np.zeros_like(x), True
    return (x - mu) / sigma, False


def _savgol_weights(left: int, right: int, polyorder: int) -> np.ndarray:
    # Least-squares polynomial fit over offsets [-left, right], evaluated at
    # offset 0. Offsets are scaled into [-1, 1] for conditioning; the fitted
    # value at 0 is unchanged by that scaling.
    offsets = np.arange(-left, right + 1, dtype=np.float64)
    scale = float(max(left, right, 1))
    degree = min(polyorder, offsets.size - 1)
    vand = np.vander(offsets / scale, degree + 1, increasing=True)
    return np.linalg.pinv(vand)[0]


def savgol_smooth(x: np.ndarray, window: int, polyorder: int = 3) -> np.ndarray:
    """Savitzky-Golay smoothing with support for even window sizes.

    Each output sample is the value at the evaluation offset of a
    least-squares polynomial fit over the window. For an even ``window`` the
    evaluation offset sits at index ``window // 2``, i.e. the window spans
    ``window // 2`` samples to the left and ``window - 1 - window // 2`` to
    the right. Near the edges both arms shrink by the same amount until the
    window fits, so a signal that is itself a polynomial of degree
    <= ``polyorder`` passes through unchanged everywhere.

    Parameters
    ----------
    x : array
        Signal to smooth.
    window : int
        Window size in samples, >= 2; may be even. A signal shorter than the
        window raises :class:`DegenerateInputError`.
    polyorder : int
        Fit degree, >= 0 and < window.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if x.ndim != 1 or n < 1:
        raise ParameterError("savgol input must be a non-empty 1-d sequence")
    if window < 2:
        raise ParameterError("window must be >= 2")
    if polyorder < 0:
        raise ParameterError("polyorder must be >= 0")
    if polyorder >= window:
        raise ParameterError(f"polyorder {polyorder} must be < window {window}")
    if window > n:
        raise DegenerateInputError(f"window {window} exceeds signal length {n}")

    left_arm = window // 2
    right_arm = window - 1 - left_arm
    out = np.empty(n)
    out[left_arm : n - right_arm] = np.correlate(
        x, _savgol_weights(left_arm, right_arm, polyorder), mode="valid"
    )
    edge = list(range(left_arm)) + list(range(n - right_arm, n))
    for i in edge:
        shrink = max(left_arm - i, right_arm - (n - 1 - i), 0)
        lo = min(i, max(0, left_arm - shrink))
        hi = min(n - 1 - i, max(0, right_arm - shrink))
        out[i] = x[i - lo : i + hi + 1] @ _savgol_weights(lo, hi, polyorder)
    return out
