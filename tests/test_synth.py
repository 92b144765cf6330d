from __future__ import annotations

import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

from affectfuse.dataio import read_partition_csv, read_rater_set, read_segments_csv
from affectfuse.errors import ParameterError
from affectfuse.synth import (
    EDA_RATE_HZ,
    SynthConfig,
    gen_eda,
    gen_features,
    gen_latent,
    gen_raters,
    write_corpus,
)


def _autocorr1(x):
    a = x[:-1] - x[:-1].mean()
    b = x[1:] - x[1:].mean()
    return float((a * b).mean() / (a.std() * b.std()))


def _best_lag(a, b, max_lag):
    # cross-correlation argmax over integer lags; positive = a delayed vs b
    best, best_cc = 0, -np.inf
    for lag in range(-max_lag, max_lag + 1):
        if lag > 0:
            x, y = a[lag:], b[:-lag]
        elif lag < 0:
            x, y = a[:lag], b[-lag:]
        else:
            x, y = a, b
        cc = np.corrcoef(x, y)[0, 1]
        if cc > best_cc:
            best, best_cc = lag, cc
    return best


class TestGenLatent:
    def test_deterministic(self):
        cfg = SynthConfig(seed=7)
        assert np.array_equal(gen_latent(cfg), gen_latent(cfg))

    def test_bounded(self):
        for seed in range(10):
            x = gen_latent(SynthConfig(seed=seed))
            assert np.max(np.abs(x)) <= 1.0

    def test_smooth(self):
        # slow sinusoids leave a very high lag-1 autocorrelation
        for seed in range(10):
            x = gen_latent(SynthConfig(seed=seed, duration_s=300.0, rate_hz=2.0))
            assert _autocorr1(x) > 0.95

    def test_length(self):
        cfg = SynthConfig(duration_s=60.0, rate_hz=4.0)
        assert gen_latent(cfg).size == 241
        assert cfg.n_samples == 241


class TestGenRaters:
    def test_count_and_ids(self):
        cfg = SynthConfig(seed=3, n_raters=4)
        rs, lags = gen_raters(cfg, gen_latent(cfg))
        assert len(rs) == 4
        assert list(rs.rater_ids) == ["r0", "r1", "r2", "r3"]
        assert lags.shape == (4,)

    def test_lags_within_configured_bound(self):
        cfg = SynthConfig(seed=5, max_lag_s=2.0, rate_hz=2.0)
        _, lags = gen_raters(cfg, gen_latent(cfg))
        assert np.max(np.abs(lags)) <= 4

    def test_configured_lags_recoverable(self):
        # the drawn lag must be identifiable from cross-correlation with the
        # latent to within one sample
        for seed in (11, 12, 13, 14, 15):
            cfg = SynthConfig(seed=seed, max_lag_s=2.0, rate_hz=2.0, noise_sigma=0.05)
            latent = gen_latent(cfg)
            rs, lags = gen_raters(cfg, latent)
            for row, lag in zip(rs.values, lags):
                found = _best_lag(row, latent, 8)
                assert abs(found - lag) <= 1

    def test_zero_max_lag(self):
        cfg = SynthConfig(seed=6, max_lag_s=0.0)
        _, lags = gen_raters(cfg, gen_latent(cfg))
        assert np.all(lags == 0)

    def test_max_lag_bounded_by_duration(self):
        with pytest.raises(ParameterError):
            SynthConfig(duration_s=10.0, max_lag_s=3.0)


class TestGenEda:
    def test_rate_and_nonnegative(self):
        cfg = SynthConfig(seed=8, duration_s=30.0)
        eda = gen_eda(cfg, gen_latent(cfg))
        assert eda.sample_rate_hz == EDA_RATE_HZ
        assert eda.values.min() >= 0.0
        assert eda.kind == "physio"
        assert eda.values.size == 30001

    def test_couples_to_latent(self):
        cfg = SynthConfig(seed=9, duration_s=120.0, rate_hz=2.0)
        latent = gen_latent(cfg)
        eda = gen_eda(cfg, latent)
        # sample the 1 kHz signal on the label grid and correlate
        down = eda.values[:: int(EDA_RATE_HZ / cfg.rate_hz)][: latent.size]
        assert np.corrcoef(down, latent)[0, 1] > 0.5


class TestGenFeatures:
    def test_shape_and_determinism(self):
        cfg = SynthConfig(seed=10, feature_dim=6)
        latent = gen_latent(cfg)
        f1 = gen_features(cfg, latent)
        f2 = gen_features(cfg, latent)
        assert f1.shape == (latent.size, 6)
        assert np.array_equal(f1, f2)

    def test_set_index_changes_output(self):
        cfg = SynthConfig(seed=10)
        latent = gen_latent(cfg)
        assert not np.array_equal(
            gen_features(cfg, latent, set_index=0), gen_features(cfg, latent, set_index=1)
        )

    def test_mix_seed_fixes_map_across_recordings(self):
        # same extractor (mix_seed), different per-recording noise seeds:
        # the noise-free parts must coincide
        latent = gen_latent(SynthConfig(seed=1))
        c1 = SynthConfig(seed=1, feature_noise=0.0)
        c2 = SynthConfig(seed=2, feature_noise=0.0)
        f1 = gen_features(c1, latent, mix_seed=42)
        f2 = gen_features(c2, latent, mix_seed=42)
        assert np.allclose(f1, f2)
        f3 = gen_features(c2, latent, mix_seed=43)
        assert not np.allclose(f1, f3)

    def test_noise_free_features_deterministic_in_latent(self):
        cfg = SynthConfig(seed=11, feature_noise=0.0, feature_dim=4)
        latent = gen_latent(cfg)
        feats = gen_features(cfg, latent)
        # columns are linear in (latent, latent^2): residual after projecting
        # onto that basis is zero
        basis = np.stack([latent, latent**2]).T
        coef, *_ = np.linalg.lstsq(basis, feats, rcond=None)
        assert np.allclose(basis @ coef, feats, atol=1e-10)


class TestSampleCounts:
    @pytest.mark.parametrize(("duration", "rate", "message"), [
        (1e308, 2.0, "a 1e+308 s grid at 2.0 Hz: inf float64 values"),
        (1e200, 2.0, "a 1e+200 s grid at 2.0 Hz: 2e+200 float64 values"),
        (300.0, 1e300, "a 300.0 s grid at 1e+300 Hz: 3e+302 float64 values"),
        # the label grid (1e13 samples) is indexable, the 1 kHz EDA is not
        (1e16, 1e-3, "a 1e+16 s EDA signal at 1000.0 Hz: 1e+19 float64 values"),
    ], ids=["overflow", "huge-duration", "huge-rate", "eda-only"])
    def test_count_numpy_cannot_index_rejected_when_built(self, duration, rate, message):
        with pytest.raises(ParameterError, match=re.escape(message) + ", more than numpy can index"):
            SynthConfig(duration_s=duration, rate_hz=rate, max_lag_s=0.0)


class TestWriteCorpus:
    def test_layout_and_determinism(self, tmp_path):
        cfg = SynthConfig(seed=13, duration_s=40.0, rate_hz=2.0, n_raters=3, feature_dim=4)
        ids = write_corpus(cfg, tmp_path / "a", n_recordings=5)
        assert ids == [f"rec_{i:03d}" for i in range(5)]
        for rid in ids:
            assert (tmp_path / "a" / "annotations" / rid / "arousal" / "r0.csv").is_file()
            assert (tmp_path / "a" / "eda" / f"{rid}.csv").is_file()
            assert (tmp_path / "a" / "features" / "modal_a" / f"{rid}.csv").is_file()
            assert (tmp_path / "a" / "features" / "modal_b" / f"{rid}.csv").is_file()
            assert (tmp_path / "a" / "latent" / f"{rid}.csv").is_file()
        # the latent traces are plain two-column CSVs with no sidecar
        assert not list((tmp_path / "a" / "latent").glob("*.json"))
        assert (tmp_path / "a" / "latent" / "rec_000.csv").read_text().startswith("timestamp_ms,value\n0,")

        write_corpus(cfg, tmp_path / "b", n_recordings=5)
        digests = {}
        for sub in ("a", "b"):
            root = tmp_path / sub
            tree = sorted(p.relative_to(root) for p in root.rglob("*.csv"))
            digests[sub] = [(str(p), hashlib.sha256((root / p).read_bytes()).hexdigest()) for p in tree]
        assert digests["a"] == digests["b"]

    def test_partition_split_shares(self, tmp_path):
        cfg = SynthConfig(seed=14, duration_s=30.0, n_raters=2)
        write_corpus(cfg, tmp_path, n_recordings=10)
        part = read_partition_csv(tmp_path / "partitions.csv")
        assert len(part.recordings("train")) == 6
        assert len(part.recordings("devel")) == 2
        assert len(part.recordings("test")) == 2

    def test_segments_cover_each_recording(self, tmp_path):
        cfg = SynthConfig(seed=15, duration_s=60.0, n_raters=2)
        write_corpus(cfg, tmp_path, n_recordings=3)
        segs = read_segments_csv(tmp_path / "segments.csv")
        by_rec = {}
        for s in segs:
            by_rec.setdefault(s.recording_id, []).append(s)
        assert set(by_rec) == {"rec_000", "rec_001", "rec_002"}
        for rec_segs in by_rec.values():
            ordered = sorted(rec_segs, key=lambda s: s.start_ms)
            assert ordered[0].start_ms == 0
            for a, b in zip(ordered, ordered[1:]):
                assert b.start_ms >= a.end_ms  # non-overlapping
            assert all(s.end_ms <= 60000 for s in ordered)

    def test_recordings_differ_from_each_other(self, tmp_path):
        cfg = SynthConfig(seed=16, duration_s=30.0, n_raters=2)
        write_corpus(cfg, tmp_path, n_recordings=2)
        rs0 = read_rater_set(tmp_path / "annotations", "rec_000", "arousal")
        rs1 = read_rater_set(tmp_path / "annotations", "rec_001", "arousal")
        assert not np.allclose(rs0.values[0], rs1.values[0])

    def test_rejects_bad_parameters(self, tmp_path):
        cfg = SynthConfig(seed=17, duration_s=30.0)
        with pytest.raises(ParameterError):
            write_corpus(cfg, tmp_path, n_recordings=0)
        with pytest.raises(ParameterError):
            write_corpus(cfg, tmp_path, n_recordings=2, feature_sets=())

    def test_repeated_feature_set_rejected_before_writing(self, tmp_path):
        # the second set would overwrite the first one's files
        with pytest.raises(ParameterError, match="feature set 'a' is named twice"):
            write_corpus(SynthConfig(seed=17, duration_s=30.0), tmp_path / "c", n_recordings=1, feature_sets=("a", "b", "a"))
        assert not (tmp_path / "c").exists()
