"""Synthetic corpus generator: latent affect, raters with lag, physiology, features.

Everything is a pure function of the config seed, so two runs with the same
config write byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import dataio
from .core import AnnotationTrace, RaterSet, grid_timestamps_ms
from .errors import ParameterError, require_finite

__all__ = ["SynthConfig", "gen_latent", "gen_raters", "gen_eda", "gen_features", "write_corpus"]

EDA_RATE_HZ = 1000.0
# summed amplitude of the two slow drift sinusoids of a synthetic EDA signal
EDA_DRIFT = 0.5

# rng stream tags so the generators stay independent of each other
_LATENT, _RATERS, _EDA, _FEATURES, _RECORDING, _SEGMENTS = range(6)


@dataclass(frozen=True)
class SynthConfig:
    """Knobs of the synthetic recording generator."""

    seed: int = 101
    duration_s: float = 300.0
    rate_hz: float = 2.0
    n_raters: int = 5
    max_lag_s: float = 2.0
    noise_sigma: float = 0.05
    scale_jitter: float = 0.2
    feature_dim: int = 8
    feature_noise: float = 0.1
    kind: str = "arousal"

    def __post_init__(self) -> None:
        require_finite(self)
        if self.duration_s <= 0 or self.rate_hz <= 0:
            raise ParameterError("duration_s and rate_hz must be positive")
        if self.n_raters < 1:
            raise ParameterError("n_raters must be >= 1")
        if self.max_lag_s < 0 or self.noise_sigma < 0 or self.scale_jitter < 0:
            raise ParameterError("max_lag_s, noise_sigma, scale_jitter must be >= 0")
        if self.max_lag_s > 0.2 * self.duration_s:
            raise ParameterError("max_lag_s must not exceed 20% of the duration")
        if self.feature_dim < 1:
            raise ParameterError("feature_dim must be >= 1")

    @property
    def n_samples(self) -> int:
        return int(np.floor(self.duration_s * self.rate_hz + 1e-9)) + 1


def _rng(config: SynthConfig, *stream: int) -> np.random.Generator:
    return np.random.default_rng([int(config.seed), *stream])


def gen_latent(config: SynthConfig) -> np.ndarray:
    """Smooth latent signal in [-1, 1]: a mixture of 3-6 slow sinusoids."""
    rng = _rng(config, _LATENT)
    n_sin = int(rng.integers(3, 7))
    freqs = rng.uniform(1.0 / 125.0, 1.0 / 20.0, size=n_sin)
    amps = rng.uniform(0.5, 1.0, size=n_sin)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_sin)
    t = np.arange(config.n_samples) / config.rate_hz
    x = np.zeros_like(t)
    for f, a, p in zip(freqs, amps, phases):
        x += a * np.sin(2.0 * np.pi * f * t + p)
    peak = np.max(np.abs(x))
    if peak > 0:
        x = 0.95 * x / peak
    return np.clip(x, -1.0, 1.0)


def _shift_hold(x: np.ndarray, lag: int) -> np.ndarray:
    """Shift by ``lag`` samples (positive = delayed), holding the edge value."""
    if lag == 0:
        return x.copy()
    if lag > 0:
        return np.concatenate([np.full(lag, x[0]), x[:-lag]])
    return np.concatenate([x[-lag:], np.full(-lag, x[-1])])


def gen_raters(config: SynthConfig, latent: np.ndarray) -> tuple[RaterSet, np.ndarray]:
    """Simulated raters: lagged, rescaled, offset, noisy views of the latent.

    Returns the rater set and the integer sample lags actually drawn (the
    recovery target for alignment checks).
    """
    rng = _rng(config, _RATERS)
    latent = np.asarray(latent, dtype=np.float64)
    max_lag = int(round(config.max_lag_s * config.rate_hz))
    rows = []
    lags = np.empty(config.n_raters, dtype=np.int64)
    for k in range(config.n_raters):
        lag = int(rng.integers(-max_lag, max_lag + 1)) if max_lag else 0
        scale = 1.0 + config.scale_jitter * rng.uniform(-1.0, 1.0)
        offset = config.scale_jitter * rng.uniform(-1.0, 1.0)
        noise = config.noise_sigma * rng.standard_normal(latent.size)
        lags[k] = lag
        rows.append(_shift_hold(latent, lag) * scale + offset + noise)
    ids = [f"r{k}" for k in range(config.n_raters)]
    return RaterSet("synthetic", ids, rows, config.kind, grid_timestamps_ms(latent.size, config.rate_hz)), lags


def gen_eda(config: SynthConfig, latent: np.ndarray) -> AnnotationTrace:
    """Non-negative skin-conductance-like signal at 1 kHz.

    Base level plus slow drift plus a component positively coupled to the
    latent, so the downsampled signal correlates with the latent.
    """
    rng = _rng(config, _EDA)
    n_hi = int(round(config.duration_s * EDA_RATE_HZ)) + 1
    t_hi = np.arange(n_hi) / EDA_RATE_HZ
    t_lo = np.arange(config.n_samples) / config.rate_hz
    drift = np.zeros_like(t_hi)
    for _ in range(2):
        f = rng.uniform(1.0 / 400.0, 1.0 / 150.0)
        p = rng.uniform(0.0, 2.0 * np.pi)
        drift += 0.5 * EDA_DRIFT * np.sin(2.0 * np.pi * f * t_hi + p)
    response = 0.8 * np.interp(t_hi, t_lo, np.asarray(latent, dtype=np.float64))
    noise = 0.02 * rng.standard_normal(n_hi)
    values = np.maximum(2.0 + drift + response + noise, 0.0)
    return AnnotationTrace(rater_id="eda", sample_rate_hz=EDA_RATE_HZ, values=values, kind="physio")


def gen_features(
    config: SynthConfig, latent: np.ndarray, set_index: int = 0, mix_seed: int | None = None
) -> np.ndarray:
    """Feature matrix (T, feature_dim): a random linear map of (latent, latent^2, noise).

    The noise channel is scaled by ``feature_noise * (1 + set_index)``, so
    later feature sets are strictly noisier views of the same latent. With
    ``feature_noise=0`` the output is a deterministic function of the latent.

    The linear map is drawn from ``mix_seed`` (defaults to ``config.seed``).
    A corpus writer must pass its corpus-level seed here: the map plays the
    role of a feature extractor, and a learnable corpus needs the same
    extractor on every recording while the noise still varies per recording.
    """
    rng = _rng(config, _FEATURES, set_index)
    latent = np.asarray(latent, dtype=np.float64)
    noise = config.feature_noise * (1 + set_index) * rng.standard_normal(latent.size)
    basis = np.stack([latent, latent**2, noise])  # (3, T)
    mix_rng = np.random.default_rng(
        [int(mix_seed if mix_seed is not None else config.seed), _FEATURES, set_index, 1]
    )
    mix = mix_rng.uniform(-1.0, 1.0, size=(config.feature_dim, 3))
    return (mix @ basis).T


def _recording_config(config: SynthConfig, index: int) -> SynthConfig:
    sub = int(np.random.default_rng([int(config.seed), _RECORDING, index]).integers(2**62))
    return replace(config, seed=sub)


def _split_for(index: int, n: int) -> str:
    n_train = max(1, int(np.ceil(0.6 * n)))
    n_devel = max(1, int(np.ceil(0.2 * n)))
    if index < n_train:
        return "train"
    if index < n_train + n_devel:
        return "devel"
    return "test"


def write_corpus(
    config: SynthConfig,
    out_dir: Path | str,
    n_recordings: int,
    feature_sets: tuple[str, ...] = ("modal_a", "modal_b"),
) -> list[str]:
    """Write a full synthetic corpus in the on-disk layout the CLI consumes.

    Layout under ``out_dir``: ``partitions.csv``, ``segments.csv``,
    ``annotations/<rec>/<kind>/<rater>.csv``, ``eda/<rec>.csv``,
    ``features/<set>/<rec>.csv``, and ``latent/<rec>.csv`` (the ground truth,
    for oracle checks only). Returns the recording ids written.
    """
    if n_recordings < 1:
        raise ParameterError("n_recordings must be >= 1")
    if not feature_sets:
        raise ParameterError("need at least one feature set name")
    repeated = next((name for i, name in enumerate(feature_sets) if name in feature_sets[:i]), None)
    if repeated is not None:
        raise ParameterError(f"feature set {repeated!r} is named twice")
    ts = grid_timestamps_ms(config.n_samples, config.rate_hz)  # every recording's grid
    try:  # the corpus's readers reject fewer than 2 or repeated timestamps: fail before writing a file
        dataio.uniform_step_ms(ts)
    except ParameterError as exc:
        raise ParameterError(f"a {config.duration_s} s grid at {config.rate_hz} Hz: {exc}") from None
    out = Path(out_dir)
    recording_ids = [f"rec_{i:03d}" for i in range(n_recordings)]
    assignment = {rid: _split_for(i, n_recordings) for i, rid in enumerate(recording_ids)}
    dataio.write_partition_csv(out / "partitions.csv", dataio.Partition(assignment=assignment))

    segments: list[dataio.Segment] = []
    seg_counter = 0
    for i, rid in enumerate(recording_ids):
        sub = _recording_config(config, i)
        latent = gen_latent(sub)
        raters, _ = gen_raters(sub, latent)
        for rater_id, row in zip(raters.rater_ids, raters.values):
            dataio.write_gold_csv(out / "annotations" / rid / sub.kind / f"{rater_id}.csv", ts, row)
        dataio.write_annotation_csv(out / "eda" / f"{rid}.csv", gen_eda(sub, latent))
        for si, fset in enumerate(feature_sets):
            feats = dataio.FeatureSequence(
                recording_id=rid,
                feature_set=fset,
                matrix=gen_features(sub, latent, set_index=si, mix_seed=config.seed),
                timestamps_ms=ts,
            )
            dataio.write_feature_csv(out / "features" / fset / f"{rid}.csv", feats)
        dataio.write_gold_csv(out / "latent" / f"{rid}.csv", ts, latent)

        srng = np.random.default_rng([int(config.seed), _SEGMENTS, i])
        pos_ms = 0
        end_ms = int(round(sub.duration_s * 1000.0))
        while pos_ms + 8000 <= end_ms:
            length = int(srng.integers(8000, 20001))
            stop = min(pos_ms + length, end_ms)
            segments.append(
                dataio.Segment(
                    segment_id=f"seg_{seg_counter:05d}",
                    recording_id=rid,
                    start_ms=pos_ms,
                    end_ms=stop,
                    partition=assignment[rid],
                )
            )
            seg_counter += 1
            pos_ms = stop + int(srng.integers(0, 3001))
    dataio.write_segments_csv(out / "segments.csv", segments)
    return recording_ids
