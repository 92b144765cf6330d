from __future__ import annotations

import numpy as np
import pytest

from affectfuse.errors import DegenerateInputError, ParameterError
from affectfuse.metrics import ScoreReport, ccc, macro_f1, partition_ccc, pearson
from affectfuse.seqmodel import ccc_loss

from _oracles import direct_ccc, direct_pearson


def _loss_ccc(p, g) -> float:
    """CCC as the training loss sees it, with the epsilon guard off."""
    return 1.0 - ccc_loss(p, g, eps=0.0)[0]


class TestCcc:
    def test_identity_is_exactly_one(self):
        x = np.array([0.2, -1.4, 3.7, 0.0, 5.5])
        assert ccc(x, x) == 1.0
        assert _loss_ccc(x, x) == pytest.approx(ccc(x, x), abs=1e-12)

    def test_reversal_is_exactly_minus_one(self):
        x, y = np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0])
        assert ccc(x, y) == -1.0
        assert _loss_ccc(x, y) == pytest.approx(ccc(x, y), abs=1e-12)

    def test_matches_direct_formula_on_random_pairs(self):
        rng = np.random.default_rng(1234)
        for _ in range(200):
            n = int(rng.integers(2, 300))
            x = rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 4.0), size=n)
            y = rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 4.0), size=n)
            assert ccc(x, y) == pytest.approx(direct_ccc(x, y), abs=1e-12)
            assert pearson(x, y) == pytest.approx(direct_pearson(x, y), abs=1e-12)
            assert _loss_ccc(x, y) == pytest.approx(ccc(x, y), abs=1e-12)

    def test_scale_shift_sensitivity(self):
        # CCC penalizes scale and location shifts, Pearson does not
        rng = np.random.default_rng(7)
        x = rng.normal(size=100)
        y = 2.0 * x + 1.0
        assert pearson(x, y) == pytest.approx(1.0, abs=1e-12)
        assert ccc(x, y) < 0.8

    def test_constant_input_raises_degenerate(self):
        with pytest.raises(DegenerateInputError):
            ccc(np.array([1.0, 1.0, 1.0]), np.array([0.0, 1.0, 2.0]))
        with pytest.raises(DegenerateInputError):
            pearson(np.array([0.0, 1.0]), np.array([4.0, 4.0]))

    def test_length_mismatch_raises_parameter_error(self):
        with pytest.raises(ParameterError):
            ccc(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ParameterError):
            ccc(np.array([1.0]), np.array([2.0]))

    def test_degenerate_is_a_parameter_error_subclass(self):
        # callers that catch ParameterError see both failure modes
        assert issubclass(DegenerateInputError, ParameterError)


class TestMacroF1:
    def test_perfect_prediction(self):
        gold = np.array([0, 1, 2, 3, 4, 0, 1, 2, 3, 4])
        assert macro_f1(gold, gold) == pytest.approx(1.0)

    def test_hand_computed_two_class_case(self):
        # class 0: tp=2 fp=1 fn=1 -> f1=2/3; class 1: tp=1 fp=1 fn=1 -> f1=0.5
        gold = np.array([0, 0, 0, 1, 1])
        pred = np.array([0, 0, 1, 1, 0])
        expected = (2 / 3 + 0.5 + 0.0 + 0.0 + 0.0) / 5
        with pytest.warns(UserWarning):
            score = macro_f1(pred, gold, n_classes=5)
        assert score == pytest.approx(expected)

    def test_absent_class_counts_zero_with_warning(self):
        gold = np.array([0, 0, 1, 1])
        pred = np.array([0, 0, 1, 1])
        with pytest.warns(UserWarning):
            score = macro_f1(pred, gold, n_classes=3)
        assert score == pytest.approx(2 / 3)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ParameterError):
            macro_f1(np.array([0, 5]), np.array([0, 1]), n_classes=5)
        with pytest.raises(ParameterError):
            macro_f1(np.array([0, -1]), np.array([0, 1]), n_classes=5)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ParameterError):
            macro_f1(np.array([0]), np.array([0, 1]))


class TestCombined:
    def test_mean_of_two_scores(self):
        assert ScoreReport({"v": 0.4863, "a": 0.4929}).combined == pytest.approx(0.4896)

    def test_symmetric(self):
        assert ScoreReport({"v": 0.1, "a": 0.9}).combined == ScoreReport({"v": 0.9, "a": 0.1}).combined


class TestPartitionCcc:
    def test_concatenates_in_sorted_recording_order(self):
        preds = {"b": np.array([1.0, 2.0]), "a": np.array([0.0, 1.0])}
        golds = {"a": np.array([0.0, 1.0]), "b": np.array([1.0, 2.0])}
        assert partition_ccc(preds, golds) == 1.0
        # equivalent to one concatenated ccc over sorted ids
        allp = np.concatenate([preds["a"], preds["b"]])
        allg = np.concatenate([golds["a"], golds["b"]])
        assert partition_ccc(preds, golds) == ccc(allp, allg)

    def test_differs_from_mean_of_per_recording_ccc(self):
        # per-recording means differ, so pooled ccc is not the average
        preds = {"a": np.array([0.0, 1.0, 2.0]), "b": np.array([10.0, 11.0, 12.0])}
        golds = {"a": np.array([0.0, 1.0, 2.0]), "b": np.array([0.0, 1.0, 2.0])}
        pooled = partition_ccc(preds, golds)
        per_rec = ccc(preds["a"], golds["a"])
        assert pooled != pytest.approx(per_rec)

    def test_missing_gold_raises(self):
        with pytest.raises(ParameterError):
            partition_ccc({"a": np.array([0.0, 1.0])}, {})

    def test_length_mismatch_raises(self):
        with pytest.raises(ParameterError):
            partition_ccc({"a": np.array([0.0, 1.0])}, {"a": np.array([0.0, 1.0, 2.0])})


class TestScoreReport:
    def test_machine_lines_single_target(self):
        report = ScoreReport({"ccc": 0.75})
        assert report.machine_lines() == ["ccc=0.750000"]

    def test_machine_lines_with_combined(self):
        report = ScoreReport({"valence": 0.4863, "arousal": 0.4929})
        lines = report.machine_lines()
        assert "valence=0.486300" in lines
        assert "arousal=0.492900" in lines
        assert "combined=0.489600" in lines

    def test_combined_property(self):
        assert ScoreReport({"v": 0.2, "a": 0.4}).combined == pytest.approx(0.3)

    def test_table_text_mentions_targets(self):
        text = ScoreReport({"valence": 0.5}).table_text()
        assert "valence" in text
