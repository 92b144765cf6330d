from __future__ import annotations

import json

import numpy as np
import pytest

from affectfuse.align import FusionConfig
from affectfuse.core import RaterSet, grid_timestamps_ms
from affectfuse.errors import DegenerateInputError, ParameterError
from affectfuse.fuse import (
    PhysioConfig,
    agreement_stats,
    ewe_weights,
    physio_fuse,
    prepare_physio,
    raaw,
)
from affectfuse.metrics import pearson


def _rater_set(arrays, rate=4.0, kind="valence", recording="rec"):
    ids = [f"r{i}" for i in range(len(arrays))]
    return RaterSet(recording, ids, arrays, kind, grid_timestamps_ms(len(arrays[0]), rate))


def _sine_raters(rng, n=240, lags=(2, 0, -2), noise=0.02):
    t = np.arange(n)
    base = np.sin(2 * np.pi * t / 48.0) + 0.4 * np.sin(2 * np.pi * t / 17.0)
    return [np.roll(base, lag) + rng.normal(0, noise, n) for lag in lags]


class TestEweWeights:
    def test_worked_example(self):
        # b tracks the mean of the others best; c moves against the group
        a = np.array([0.0, 1.0, 2.0, 4.0])
        b = np.array([0.0, 1.0, 2.0, 3.0])
        c = np.array([3.0, 2.0, 1.0, 0.0])
        w = ewe_weights([a, b, c])
        assert np.allclose(w, [0.0, 1.0, 0.0])

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(3)
        traces = [rng.normal(size=50) + np.arange(50) * 0.1 for _ in range(4)]
        w = ewe_weights(traces)
        assert w.sum() == pytest.approx(1.0)
        assert w.min() >= 0.0

    def test_symmetric_raters_get_equal_weights(self):
        base = np.sin(np.arange(100) / 7.0)
        rng = np.random.default_rng(4)
        n1 = rng.normal(0, 0.1, 100)
        traces = [base + n1, base - n1]
        w = ewe_weights(traces)
        assert w[0] == pytest.approx(w[1])

    def test_all_anticorrelated_falls_back_to_uniform(self):
        up = np.arange(6.0)
        down = up[::-1].copy()
        with pytest.warns(UserWarning, match="uniform"):
            w = ewe_weights([up, down])
        assert np.allclose(w, [0.5, 0.5])

    def test_constant_trace_gets_zero_weight(self):
        base = np.sin(np.arange(60) / 5.0)
        traces = [base, base + 0.01, np.zeros(60)]
        w = ewe_weights(traces)
        assert w[2] == 0.0
        assert w[0] > 0.0 and w[1] > 0.0

    def test_too_few_traces_or_samples(self):
        with pytest.raises(ParameterError):
            ewe_weights([np.arange(5.0)])
        with pytest.raises(ParameterError):
            ewe_weights([np.array([1.0]), np.array([2.0])])


class TestRaaw:
    def test_gold_standard_fields(self):
        rng = np.random.default_rng(10)
        rs = _rater_set(_sine_raters(rng))
        gold = raaw(rs)
        assert gold.recording_id == "rec"
        assert gold.kind == "valence"
        assert gold.timestamps_ms is rs.timestamps_ms
        assert gold.sidecar()["sample_rate_hz"] == 4.0
        assert gold.values.shape == (240,)
        assert gold.weights.shape == (3,)
        assert gold.weights.sum() == pytest.approx(1.0)
        assert np.all(np.isfinite(gold.values))

    def test_gold_is_the_weighted_sum_of_the_warped_traces(self):
        # the weights are non-negative and sum to 1; the gold is exactly their weighted sum
        rng = np.random.default_rng(10)
        gold = raaw(_rater_set(_sine_raters(rng)))
        assert gold.weights.min() >= 0.0 and abs(gold.weights.sum() - 1.0) <= 1e-9
        assert np.array_equal(gold.values, gold.weights @ gold.alignment.warped)

    def test_affine_invariance(self):
        # raaw standardizes each rater before the alignment, so per-rater
        # affine transforms are irrelevant
        rng = np.random.default_rng(41)
        t = np.arange(250)
        base = np.sin(2 * np.pi * t / 50.0)
        raw = [
            np.roll(base, 2) + rng.normal(0, 0.01, 250),
            base + rng.normal(0, 0.01, 250),
        ]
        scaled = [5.0 * raw[0] - 3.0, 0.1 * raw[1] + 42.0]
        r1 = raaw(_rater_set(raw)).alignment
        r2 = raaw(_rater_set(scaled)).alignment
        assert np.allclose(r1.warped, r2.warped, atol=1e-9)

    def test_metadata_keys(self):
        rng = np.random.default_rng(11)
        gold = raaw(_rater_set(_sine_raters(rng)))
        for key in (
            "rater_ids",
            "pre_agreement_mean",
            "pre_agreement_std",
            "degenerate_raters",
            "iterations",
            "converged",
        ):
            assert key in gold.metadata
        assert gold.metadata["rater_ids"] == ["r0", "r1", "r2"]
        assert gold.metadata["degenerate_raters"] == []

    def test_sidecar_is_json_with_the_fusion_settings(self):
        rng = np.random.default_rng(11)
        config = FusionConfig(max_iter=3, band=9, reference=1)
        gold = raaw(_rater_set(_sine_raters(rng)), config)
        side = json.loads(json.dumps(gold.sidecar()))
        assert side["fusion"] == {"max_iter": 3, "tol": 1e-4, "band": 9, "reference": 1}
        assert side["weights"] == gold.weights.tolist()
        assert side["recording_id"] == "rec" and side["kind"] == "valence"
        assert side["agreement_mean"] == gold.agreement_mean
        assert {k: side[k] for k in gold.metadata} == json.loads(json.dumps(gold.metadata))

    def test_alignment_raises_agreement(self):
        # lagged raters agree poorly on the raw grid; warping fixes that
        rng = np.random.default_rng(12)
        gold = raaw(_rater_set(_sine_raters(rng, lags=(5, 0, -5))))
        assert gold.agreement_mean > gold.metadata["pre_agreement_mean"]
        assert gold.agreement_mean > 0.97

    def test_single_rater_names_recording(self):
        rs = _rater_set([np.arange(10.0)], recording="lonely")
        with pytest.raises(ParameterError, match="lonely") as info:
            raaw(rs)
        assert info.type is DegenerateInputError  # still a ParameterError to library callers

    def test_degenerate_rater_reported_and_downweighted(self):
        rng = np.random.default_rng(13)
        arrays = _sine_raters(rng, lags=(1, 0)) + [np.full(240, 2.5)]
        with pytest.warns(UserWarning):
            gold = raaw(_rater_set(arrays))
        assert gold.metadata["degenerate_raters"] == ["r2"]
        assert gold.weights[2] == 0.0

    def test_gold_tracks_latent_better_than_any_rater(self):
        # every rater is lagged and noisy; the fused gold recovers the
        # latent better than each individual one
        rng = np.random.default_rng(14)
        n = 240
        t = np.arange(n)
        latent = np.sin(2 * np.pi * t / 48.0) + 0.4 * np.sin(2 * np.pi * t / 17.0)
        arrays = [np.roll(latent, lag) + rng.normal(0, 0.25, n) for lag in (4, 2, -3)]
        gold = raaw(_rater_set(arrays))
        latent_std = (latent - latent.mean()) / latent.std()
        gold_cc = pearson(gold.values, latent_std)
        rater_ccs = [pearson(a, latent_std) for a in arrays]
        assert gold_cc > max(rater_ccs)

    def test_config_band_and_reference_forwarded(self):
        rng = np.random.default_rng(15)
        rs = _rater_set(_sine_raters(rng))
        gold = raaw(rs, FusionConfig(reference=1))
        assert gold.metadata["iterations"] == 1
        assert gold.metadata["converged"] is True


class TestPreparePhysio:
    def test_smooth_then_standardize(self):
        # a ramp stays a ramp; after standardization its ends are symmetric around zero
        out, degenerate = prepare_physio(np.linspace(0.0, 9.0, 19), PhysioConfig(sg_window=4, sg_polyorder=1))
        assert not degenerate
        assert out.mean() == pytest.approx(0.0, abs=1e-12)
        assert out.std() == pytest.approx(1.0, abs=1e-12)
        assert out[0] == pytest.approx(-out[-1], abs=1e-9)

    def test_constant_signal_flagged(self):
        out, degenerate = prepare_physio(np.full(40, 4.2), PhysioConfig())
        assert degenerate
        assert np.allclose(out, 0.0)


class TestPhysioFuse:
    def _setup(self, rng, n=240):
        arrays = _sine_raters(rng, n=n)
        # r2 drifts against the group so it earns the lowest weight
        arrays[2] = -0.8 * arrays[2] + rng.normal(0, 0.3, n)
        rs = _rater_set(arrays)
        eda = 5.0 + 2.0 * np.sin(2 * np.pi * (rs.timestamps_ms / 1000.0) / 60.0)  # read at the 4 Hz grid
        return rs, eda

    def test_lowest_weight_rater_replaced(self):
        rng = np.random.default_rng(20)
        rs, eda = self._setup(rng)
        ranking = raaw(rs)
        expect_drop = int(np.argmin(ranking.weights))
        gold = physio_fuse(rs, eda)
        assert gold.metadata["removed_rater"] == f"r{expect_drop}"
        assert gold.metadata["removed_index"] == expect_drop

    def test_pseudo_rater_named_and_present(self):
        rng = np.random.default_rng(21)
        rs, eda = self._setup(rng)
        gold = physio_fuse(rs, eda)
        assert "physio:rec" in gold.metadata["rater_ids"]
        assert len(gold.metadata["rater_ids"]) == 3
        assert gold.metadata["removed_rater"] not in gold.metadata["rater_ids"]

    def test_gold_is_on_the_rater_set_grid(self):
        rng = np.random.default_rng(21)
        rs, eda = self._setup(rng)
        assert np.array_equal(physio_fuse(rs, eda).timestamps_ms, rs.timestamps_ms)

    def test_metadata_records_processing_params(self):
        rng = np.random.default_rng(22)
        rs, eda = self._setup(rng)
        gold = physio_fuse(rs, eda, PhysioConfig(sg_window=26, sg_polyorder=3))
        assert gold.metadata["fusion"] == {"max_iter": 20, "tol": 1e-4, "band": None, "reference": "mean"}
        assert gold.metadata["sg_window"] == 26
        assert gold.metadata["sg_polyorder"] == 3
        assert gold.metadata["target_hz"] == 4.0
        assert len(gold.metadata["annotator_weights"]) == 3

    def test_removal_matches_brute_force_weight_ranking(self):
        # the dropped index must be the argmin of the raaw weights for
        # several random substitution scenarios
        for seed in (30, 31, 32, 33):
            rng = np.random.default_rng(seed)
            arrays = _sine_raters(rng, lags=(4, 1, -3), noise=0.15)
            rs = _rater_set(arrays)
            weights = raaw(rs).weights
            eda = 3.0 + np.sin(rs.timestamps_ms / 30000.0)  # a 100 Hz signal's 3 + sin(k / 3000), read at 4 Hz
            gold = physio_fuse(rs, eda)
            assert gold.metadata["removed_index"] == int(np.argmin(weights))

    def test_constant_eda_gets_zero_weight(self):
        rng = np.random.default_rng(23)
        rs, _ = self._setup(rng)
        with pytest.warns(UserWarning, match="recording 'rec': physiological signal is constant"):
            gold = physio_fuse(rs, np.full(rs.timestamps_ms.size, 1.0))
        idx = gold.metadata["rater_ids"].index("physio:rec")
        assert gold.weights[idx] == 0.0
        assert "physio:rec" in gold.metadata["degenerate_raters"]

    def test_eda_of_another_length_rejected(self):
        rng = np.random.default_rng(24)
        rs, eda = self._setup(rng)
        with pytest.raises(ParameterError, match="physio:rec"):
            physio_fuse(rs, eda[:-1])

    def test_single_rater_rejected(self):
        rs = _rater_set([np.arange(20.0)])
        with pytest.raises(ParameterError):
            physio_fuse(rs, np.arange(20.0))


class TestAgreementStats:
    def _gold(self, recording, agreement):
        rng = np.random.default_rng(40)
        gold = raaw(_rater_set(_sine_raters(rng), recording=recording))
        object.__setattr__(gold, "agreement_mean", agreement)
        return gold

    def test_mean_and_population_std(self):
        golds = [self._gold("a", 0.8), self._gold("b", 0.6)]
        mean, std = agreement_stats(golds)
        assert mean == pytest.approx(0.7)
        assert std == pytest.approx(0.1)

    def test_nan_recordings_skipped_with_warning(self):
        golds = [self._gold("a", 0.8), self._gold("b", float("nan"))]
        with pytest.warns(UserWarning, match="skipped"):
            mean, std = agreement_stats(golds)
        assert mean == pytest.approx(0.8)
        assert std == 0.0

    def test_all_undefined_rejected(self):
        golds = [self._gold("a", float("nan"))]
        with pytest.warns(UserWarning):
            with pytest.raises(ParameterError):
                agreement_stats(golds)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            agreement_stats([])
