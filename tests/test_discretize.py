from __future__ import annotations

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectfuse import discretize
from affectfuse.discretize import (
    ClusterModel,
    PcaBasis,
    assign_nearest,
    feature_names,
    fit_class_model,
    fit_pca,
    gmm_em,
    kmeans,
    load_class_model,
    pca_project,
    save_class_model,
    segment_features,
    validate_clusters,
)
from affectfuse.errors import DegenerateInputError, ParameterError

from _oracles import adjusted_rand_index, silhouette_reference


def _blobs(rng, centres, per=30, sigma=0.15):
    pts, labels = [], []
    for c, centre in enumerate(centres):
        pts.append(np.asarray(centre) + sigma * rng.standard_normal((per, len(centre))))
        labels += [c] * per
    return np.vstack(pts), np.asarray(labels)


def _named(values, target):
    """``segment_features`` of ``values`` keyed by :func:`feature_names`."""
    vec = segment_features(values, target)
    names = feature_names(target)
    assert vec.shape == (len(names),)
    return dict(zip(names, vec))


class TestSegmentFeatureVector:
    def test_alternating_segment_worked_example(self):
        feats = _named([0.0, 1.0, 0.0, 1.0], "arousal")
        assert feats["rel_sum_of_changes"] == pytest.approx(1.0)
        assert feats["rel_count_below_mean"] == pytest.approx(0.5)
        assert feats["median"] == pytest.approx(0.5)

    def test_spike_segment_worked_example(self):
        feats = _named([0.0, 0.0, 0.0, 10.0], "arousal")
        # mean 2.5: three samples below, a three-long streak
        assert feats["rel_count_below_mean"] == pytest.approx(0.75)
        assert feats["rel_longest_streak_below_mean"] == pytest.approx(0.75)
        assert feats["rel_longest_streak_above_mean"] == pytest.approx(0.25)

    def test_quantiles_use_linear_interpolation(self):
        feats = _named([0.0, 1.0, 2.0, 3.0], "arousal")
        assert feats["q10"] == pytest.approx(0.3)
        assert feats["q90"] == pytest.approx(2.7)

    @settings(max_examples=200)
    @given(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | st.floats(-1e3, 1e3), min_size=2, max_size=79))
    def test_quantiles_equal_one_quantile_call_each(self, values):
        # the one call per segment must give each quantile bit for bit, ties included
        levels = {"q5": 0.05, "q10": 0.10, "q25": 0.25, "q33": 0.33, "q66": 0.66, "q75": 0.75, "q90": 0.90, "q95": 0.95}
        x = np.asarray(values)
        for target in ("arousal", "valence"):
            feats = _named(x, target)
            quantiles = {k: v for k, v in feats.items() if k in levels}
            assert len(quantiles) == (2 if target == "arousal" else 8)
            assert quantiles == {k: np.quantile(x, levels[k]) for k in quantiles}

    def test_peaks_are_strict_local_maxima(self):
        feats = _named([0.0, 1.0, 0.0, 2.0, 2.0, 0.0, 3.0, 0.0], "arousal")
        # plateaus do not count; peaks at indices 1 and 6
        assert feats["rel_peaks"] == pytest.approx(2 / 8)

    def test_valence_reoccurring_share(self):
        assert _named([1.0, 1.0, 2.0, 3.0], "valence")["reoccurring_share"] == pytest.approx(0.5)
        assert _named([1.0, 2.0, 3.0, 4.0], "valence")["reoccurring_share"] == 0.0

    def test_vector_follows_feature_name_order(self):
        x = [0.0, 1.0, 2.0, 1.5]
        names = feature_names("valence")
        assert len(names) == 18
        vec = segment_features(x, "valence")
        expected = {"mean": np.mean(x), "median": np.median(x), "std": np.std(x), "q25": np.quantile(x, 0.25)}
        assert all(vec[names.index(n)] == v for n, v in expected.items())
        # valence extends the arousal vector: its first ten entries are the arousal features
        assert np.array_equal(vec[: len(feature_names("arousal"))], segment_features(x, "arousal"))
        assert len(feature_names("arousal")) == 10

    def test_rejections(self):
        with pytest.raises(ParameterError):
            segment_features([1.0], "arousal")
        with pytest.raises(ParameterError):
            segment_features([1.0, np.nan], "arousal")
        with pytest.raises(ParameterError):
            segment_features([1.0, 2.0], "dominance")


class TestPca:
    def test_line_data_recovers_direction(self):
        rng = np.random.default_rng(1)
        t = rng.normal(size=(50, 1))
        pts = t @ np.array([[1.0, 2.0]]) + 1e-6 * rng.standard_normal((50, 2))
        basis = fit_pca(pts, n_components=1)
        direction = np.array([1.0, 2.0]) / np.sqrt(5.0)
        assert np.allclose(np.abs(basis.components[0]), direction, atol=1e-4)
        # sign convention: largest-magnitude coordinate positive
        assert basis.components[0][1] > 0

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = rng.normal(size=(40, 6)) * rng.uniform(0.5, 3.0, size=6)
            basis = fit_pca(m, n_components=4)
            centred = m - m.mean(axis=0)
            _, s, vt = np.linalg.svd(centred, full_matrices=False)
            eig = s**2 / (m.shape[0] - 1)
            assert np.allclose(basis.eigenvalues, eig[:4], rtol=1e-9)
            for row, ref in zip(basis.components, vt[:4]):
                assert np.allclose(np.abs(row @ ref), 1.0, atol=1e-9)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(3)
        basis = fit_pca(rng.normal(size=(60, 8)), n_components=5)
        gram = basis.components @ basis.components.T
        assert np.allclose(gram, np.eye(5), atol=1e-10)

    def test_rank_deficiency_named(self):
        rng = np.random.default_rng(4)
        t = rng.normal(size=(30, 2))
        flat = t @ rng.normal(size=(2, 5))  # rank-2 data in 5 dims
        with pytest.raises(ParameterError, match="rank 2") as info:
            fit_pca(flat, n_components=3)
        assert info.type is DegenerateInputError  # still a ParameterError to library callers

    def test_needs_six_rows(self):
        with pytest.raises(ParameterError, match="at least 6 rows, got 5") as info:
            fit_pca(np.eye(5), n_components=2)
        assert info.type is DegenerateInputError

    def test_projection_shape(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(20, 7))
        basis = fit_pca(m, n_components=3)
        assert pca_project(basis, m).shape == (20, 3)
        assert pca_project(basis, m[0]).shape == (1, 3)


class TestProjectStandardizes:
    def test_train_statistics_applied(self):
        rng = np.random.default_rng(20)
        train = rng.normal(size=(12, 5)) * [1.0, 10.0, 0.1, 3.0, 50.0] + [0.0, 10.0, -4.0, 2.0, 30.0]
        model = fit_class_model(train, "arousal", "kmeans", n_classes=2, seed=1)
        assert np.allclose(model.mean, train.mean(axis=0))
        assert np.allclose(model.std, train.std(axis=0))
        # five components of five features: the orthonormal basis undoes exactly
        out = model.project(train) @ model.basis.components
        assert np.allclose(out.mean(axis=0), 0.0)
        assert np.allclose(out.std(axis=0), 1.0)

    def test_constant_column_left_centred(self):
        train = np.array([[1.0, 5.0], [1.0, 7.0]])
        # an identity basis keeps every standardized feature as it is
        basis = PcaBasis(components=np.eye(2), eigenvalues=np.ones(2), explained_ratio=np.full(2, 0.5))
        model = ClusterModel("arousal", "kmeans", train.mean(axis=0), train.std(axis=0), basis, np.zeros((2, 2)), 0)
        out = model.project(train)
        assert np.allclose(out[:, 0], 0.0)
        # a zero std divides by 1, so a new value keeps its offset from the train mean
        assert model.project([3.0, 6.0])[0, 0] == pytest.approx(2.0)


class TestKmeans:
    def test_three_blob_recovery_matches_true_labels(self):
        rng = np.random.default_rng(10)
        pts, truth = _blobs(rng, [(0, 0), (5, 5), (-5, 5)])
        _, labels, _ = kmeans(pts, 3, seed=10)
        assert adjusted_rand_index(labels, truth) == pytest.approx(1.0)

    def test_k_equals_distinct_points_zero_inertia(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        centres, labels, inertia = kmeans(pts, 4, seed=1)
        assert inertia == 0.0
        assert len(set(labels.tolist())) == 4

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(11)
        pts, _ = _blobs(rng, [(0, 0), (4, 4)], per=20)
        out1 = kmeans(pts, 2, seed=77)
        out2 = kmeans(pts, 2, seed=77)
        assert np.array_equal(out1[0], out2[0])
        assert np.array_equal(out1[1], out2[1])
        assert out1[2] == out2[2]

    def test_too_few_distinct_points(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(ParameterError):
            kmeans(pts, 3)

    def test_centres_are_cluster_means(self):
        rng = np.random.default_rng(12)
        pts, _ = _blobs(rng, [(0, 0), (6, 0)], per=25)
        centres, labels, _ = kmeans(pts, 2, seed=3)
        for c in range(2):
            assert np.allclose(centres[c], pts[labels == c].mean(axis=0))


class TestGmm:
    def test_log_likelihood_monotone(self):
        rng = np.random.default_rng(20)
        for trial in range(10):
            pts, _ = _blobs(rng, [(0, 0), (4, 1), (-3, 3)], per=20, sigma=0.4)
            _, _, _, lls = gmm_em(pts, 3, seed=trial)
            diffs = np.diff(lls)
            assert np.all(diffs >= -1e-9 * np.maximum(1.0, np.abs(np.asarray(lls[:-1]))))

    def test_single_component_fixed_point(self):
        rng = np.random.default_rng(21)
        pts = rng.normal(size=(80, 3)) * [1.0, 2.0, 0.5]
        means, covs, weights, _ = gmm_em(pts, 1, seed=0)
        assert np.allclose(means[0], pts.mean(axis=0), atol=1e-9)
        pop_cov = np.cov(pts, rowvar=False, ddof=0)
        assert np.allclose(covs[0], pop_cov + 1e-6 * np.eye(3), atol=1e-5)
        assert weights[0] == pytest.approx(1.0)

    def test_mixture_weights_sum_to_one(self):
        rng = np.random.default_rng(22)
        pts, _ = _blobs(rng, [(0, 0), (5, 5)], per=30)
        _, _, weights, _ = gmm_em(pts, 2, seed=5)
        assert weights.sum() == pytest.approx(1.0)
        assert weights.min() > 0

    def test_separated_blobs_recover_means(self):
        rng = np.random.default_rng(23)
        pts, truth = _blobs(rng, [(0, 0), (8, 8)], per=40, sigma=0.3)
        means, _, _, _ = gmm_em(pts, 2, seed=1)
        found = sorted(float(m[0]) for m in means)
        assert found[0] == pytest.approx(0.0, abs=0.2)
        assert found[1] == pytest.approx(8.0, abs=0.2)

    def test_more_components_than_points(self):
        with pytest.raises(ParameterError):
            gmm_em(np.zeros((2, 2)) + np.arange(2)[:, None], 3)


class TestFitClassModelMethods:
    def test_kmeans_route(self):
        rng = np.random.default_rng(30)
        pts, _ = _blobs(rng, [(0,) * 5, (5, 0, 0, 0, 0)], per=20)
        model = fit_class_model(pts, "arousal", "kmeans", n_classes=2, seed=1)
        assert model.centres.shape == (2, 5)
        assert "inertia" in model.extras

    def test_gmm_route(self):
        rng = np.random.default_rng(31)
        pts, _ = _blobs(rng, [(0,) * 5, (5, 0, 0, 0, 0)], per=20)
        model = fit_class_model(pts, "arousal", "gmm", n_classes=2, seed=1)
        assert model.centres.shape == (2, 5)
        assert "mixture_weights" in model.extras
        assert model.extras["converged"] is True

    def test_unknown_method(self):
        with pytest.raises(ParameterError, match="unknown clustering method 'dbscan'"):
            fit_class_model(np.zeros((10, 2)) + np.arange(10)[:, None], "arousal", "dbscan")


class TestValidateClusters:
    def test_silhouette_matches_reference(self):
        rng = np.random.default_rng(40)
        pts, labels = _blobs(rng, [(0, 0), (4, 4), (-4, 4), (0, -5), (6, -3)], per=12, sigma=0.3)
        report = validate_clusters(pts, labels, n_classes=5)
        assert report.silhouette == pytest.approx(silhouette_reference(pts, labels), abs=1e-12)
        assert report.silhouette > 0.8
        assert report.class_counts == (12, 12, 12, 12, 12)
        assert report.min_share_ok

    def test_four_point_hand_value(self):
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        labels = np.array([0, 0, 1, 1])
        report = validate_clusters(pts, labels, n_classes=2)
        expected = 1.0 - 1.0 / ((10.0 + np.sqrt(101.0)) / 2.0)
        assert report.silhouette == pytest.approx(expected, abs=1e-12)

    def test_singleton_contributes_zero(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [9.0, 9.0]])
        labels = np.array([0, 0, 1])
        report = validate_clusters(pts, labels, n_classes=2)
        ref = silhouette_reference(pts, labels)
        assert report.silhouette == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("block", [1, 7, 100, discretize.SILHOUETTE_BLOCK])
    def test_row_blocks_match_reference(self, monkeypatch, block):
        # uneven classes, a singleton, two empty classes and a duplicated point
        rng = np.random.default_rng(41)
        pts, labels = _blobs(rng, [(0, 0, 1), (3, 3, 0), (-3, 2, 2)], per=9, sigma=0.8)
        pts = np.vstack([pts, pts[:1], [[9.0, 9.0, 9.0]]])
        labels = np.concatenate([labels, labels[:1], [4]])
        monkeypatch.setattr(discretize, "SILHOUETTE_BLOCK", block)
        report = validate_clusters(pts, labels, n_classes=6)
        assert report.silhouette == pytest.approx(silhouette_reference(pts, labels), abs=1e-12)
        assert report.class_counts == (10, 9, 9, 0, 1, 0)

    def test_memory_bounded_in_points(self):
        rng = np.random.default_rng(42)
        pts = rng.normal(size=(3000, 5))
        labels = np.arange(3000) % 5
        tracemalloc.start()
        try:
            validate_clusters(pts, labels, n_classes=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the full 3000 x 3000 x 5 difference array alone would be 360 MB
        assert peak < 32 * 2**20

    def test_min_share_exact_boundary(self):
        pts = np.concatenate([np.zeros((5, 1)), np.ones((95, 1))])
        labels = np.concatenate([np.zeros(5, dtype=int), np.ones(95, dtype=int)])
        assert validate_clusters(pts, labels, n_classes=2).min_share_ok
        pts2 = np.concatenate([np.zeros((4, 1)), np.ones((96, 1))])
        labels2 = np.concatenate([np.zeros(4, dtype=int), np.ones(96, dtype=int)])
        assert not validate_clusters(pts2, labels2, n_classes=2).min_share_ok

    def test_empty_class_fails_min_share(self):
        pts = np.concatenate([np.zeros((50, 1)), np.ones((50, 1))])
        labels = np.concatenate([np.zeros(50, dtype=int), np.ones(50, dtype=int)])
        report = validate_clusters(pts, labels, n_classes=5)
        assert not report.min_share_ok
        assert report.class_counts == (50, 50, 0, 0, 0)

    def test_one_class_rejected(self):
        with pytest.raises(ParameterError):
            validate_clusters(np.zeros((5, 2)), np.zeros(5, dtype=int), n_classes=5)

    def test_out_of_range_labels_rejected(self):
        with pytest.raises(ParameterError):
            validate_clusters(np.zeros((3, 2)), np.array([0, 1, 5]), n_classes=5)


class TestClassModel:
    def _train_matrix(self, rng, n=120):
        # five archetypal segment shapes with distinct feature signatures
        t = np.arange(60)
        spikes = np.full(60, -0.5)
        spikes[::10] = 2.0
        shapes = [
            np.sin(t / 1.5),  # fast alternator: many changes and peaks
            np.full(60, -1.2),  # low flat level
            np.full(60, 1.2),  # high flat level
            np.where(t < 30, -0.9, 0.9),  # one big step: long streaks
            spikes,  # rare large spikes: skewed counts
        ]
        rows, labels = [], []
        for i in range(n):
            c = i % 5
            seg = shapes[c] + 0.05 * rng.standard_normal(60)
            rows.append(segment_features(seg, "arousal"))
            labels.append(c)
        return np.asarray(rows), np.asarray(labels)

    def test_fit_assign_and_validate(self):
        rng = np.random.default_rng(50)
        matrix, truth = self._train_matrix(rng)
        model = fit_class_model(matrix, "arousal", "kmeans", seed=7)
        assigned = assign_nearest(model.centres, model.project(matrix))
        report = validate_clusters(model.project(matrix), assigned, n_classes=5)
        assert report.silhouette > 0.2
        assert adjusted_rand_index(assigned, truth) == pytest.approx(1.0)

    def test_save_load_roundtrip_assignments(self, tmp_path):
        rng = np.random.default_rng(51)
        matrix, _ = self._train_matrix(rng, n=60)
        model = fit_class_model(matrix, "arousal", "gmm", seed=3)
        path = tmp_path / "model.json"
        save_class_model(path, model)
        back = load_class_model(path)
        assert isinstance(back, ClusterModel)
        fresh, _ = self._train_matrix(np.random.default_rng(52), n=40)
        a1 = assign_nearest(model.centres, model.project(fresh))
        a2 = assign_nearest(back.centres, back.project(fresh))
        assert np.array_equal(a1, a2)

    def test_load_rejects_other_payloads(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "something_else", "format_version": 1}\n')
        with pytest.raises(ParameterError):
            load_class_model(path)

    @pytest.mark.parametrize(
        "text, reason",
        [
            (None, "cannot read .*No such file"),
            ("{not json", "cannot read .*Expecting"),
            ('{"kind": "class_model", "format_version": 1}', "missing key 'target'"),
            ('{"kind": "class_model", "format_version": 2}', "not a version-1 class_model file"),
        ],
        ids=["missing-file", "invalid-json", "no-target", "other-version"],
    )
    def test_load_bad_file_names_it(self, tmp_path, text, reason):
        path = tmp_path / "classes.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ParameterError, match=rf"^{re.escape(str(path))}: {reason}"):
            load_class_model(path)

    @pytest.mark.parametrize(
        "damage, key",
        [
            (lambda p: p.pop("seed"), "missing key 'seed'"),
            (lambda p: p["standardizer"].pop("std"), "missing key 'std'"),
            (lambda p: p.update(seed=None), "int"),
        ],
        ids=["no-seed", "no-std", "bad-seed"],
    )
    def test_load_malformed_payload_names_file(self, tmp_path, damage, key):
        rng = np.random.default_rng(53)
        matrix, _ = self._train_matrix(rng, n=40)
        path = tmp_path / "classes.json"
        save_class_model(path, fit_class_model(matrix, "valence", "kmeans", seed=3))
        payload = json.loads(path.read_text())
        damage(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ParameterError, match=rf"^{re.escape(str(path))}: .*{key}"):
            load_class_model(path)

    def test_assign_nearest_tie_picks_lowest_index(self):
        centres = np.array([[0.0, 0.0], [2.0, 0.0]])
        labels = assign_nearest(centres, np.array([[1.0, 0.0]]))
        assert labels[0] == 0
