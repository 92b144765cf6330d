from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from affectfuse.core import (
    AnnotationTrace,
    RaterSet,
    savgol_smooth,
    standardize_values,
)
from affectfuse.errors import DegenerateInputError, ParameterError


def trace(values, rate=2.0, rater="r0", kind="arousal"):
    return AnnotationTrace(rater_id=rater, sample_rate_hz=rate, values=np.asarray(values, dtype=np.float64), kind=kind)


class TestAnnotationTrace:
    def test_basic_fields(self):
        t = trace([0.0, 1.0, 2.0])
        assert len(t) == 3
        assert t.values.dtype == np.float64

    def test_values_are_read_only_copies(self):
        src = np.array([0.0, 1.0])
        t = trace(src)
        src[0] = 99.0
        assert t.values[0] == 0.0
        with pytest.raises(ValueError):
            t.values[0] = 5.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(values=np.array([[1.0, 2.0]])),
            dict(values=np.array([1.0, np.nan])),
            dict(values=np.array([1.0, np.inf])),
            dict(rate=0.0),
            dict(rate=-2.0),
            dict(kind="joy"),
        ],
    )
    def test_rejects_bad_inputs(self, kwargs):
        base = dict(values=np.array([0.0, 1.0]), rate=2.0, kind="arousal")
        base.update(kwargs)
        with pytest.raises(ParameterError):
            AnnotationTrace(
                rater_id="x",
                sample_rate_hz=base["rate"],
                values=base["values"],
                kind=base["kind"],
            )


def rater_set(rows, timestamps_ms, ids=None, kind="arousal"):
    ids = [f"r{i}" for i in range(len(rows))] if ids is None else ids
    return RaterSet("rec", ids, rows, kind, timestamps_ms)


class TestRaterSet:
    def test_groups_matching_traces(self):
        rs = rater_set([[0.0, 1.0], [2.0, 3.0]], [0, 500])
        assert rs.kind == "arousal"
        assert rs.timestamps_ms.size == 2
        assert rs.values.shape == (2, 2)

    def test_holds_its_grid_once_as_read_only_int64(self):
        grid = np.array([0, 333, 667])
        rs = rater_set([[0.0, 1.0, 2.0], [2.0, 3.0, 4.0]], grid)
        grid[1] = 5
        assert rs.timestamps_ms.dtype == np.int64
        assert rs.timestamps_ms.tolist() == [0, 333, 667]
        with pytest.raises(ValueError):
            rs.timestamps_ms[0] = 1

    def test_values_are_read_only_float64_copies(self):
        rows = np.array([[0, 1], [2, 3]])
        rs = rater_set(rows, [0, 500], ids=("a", "b"))
        rows[0, 0] = 99
        assert rs.values.dtype == np.float64
        assert rs.values.tolist() == [[0.0, 1.0], [2.0, 3.0]]
        assert rs.rater_ids == ("a", "b")
        with pytest.raises(ValueError):
            rs.values[0, 0] = 5.0

    def test_rejects_rows_off_the_grid(self):
        with pytest.raises(ParameterError, match="'r1' .* 3 values for 2 timestamps"):
            rater_set([[0.0, 1.0], [0.0, 1.0, 2.0]], [0, 500])
        with pytest.raises(ParameterError, match="'r0' .* 2 values for 3 timestamps"):
            rater_set([[0.0, 1.0]], [0, 500, 1000])

    @pytest.mark.parametrize(("rows", "timestamps_ms"), [(np.empty((0, 2)), [0, 500]), ([[]], [])],
                             ids=["no-rater", "no-timestamp"])
    def test_rejects_no_rater_or_no_timestamp(self, rows, timestamps_ms):
        with pytest.raises(ParameterError, match="at least one"):
            rater_set(rows, timestamps_ms)

    def test_rejects_a_value_that_is_no_number(self):
        with pytest.raises(ParameterError, match="'rec' needs a row of 2 numbers per rater id"):
            rater_set([[0.0, 1.0], ["x", 2.0]], [0, 500])

    @pytest.mark.parametrize("ids", [("r0",), ("r0", "r1", "r2")])
    def test_rejects_an_id_count_other_than_the_row_count(self, ids):
        with pytest.raises(ParameterError, match=f"got 2 rows for {len(ids)} ids, 2 timestamps"):
            rater_set([[0.0, 1.0], [2.0, 3.0]], [0, 500], ids=ids)

    def test_rejects_an_unknown_kind(self):
        with pytest.raises(ParameterError, match="unknown trace kind 'joy'"):
            rater_set([[0.0, 1.0]], [0, 500], kind="joy")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_row_naming_its_rater(self, bad):
        with pytest.raises(ParameterError, match="trace 'r1' contains non-finite values"):
            rater_set([[0.0, 1.0], [2.0, bad], [bad, 0.0]], [0, 500])


class TestStandardize:
    def test_zero_mean_unit_population_std(self):
        rng = np.random.default_rng(3)
        x = rng.normal(5.0, 3.0, size=200)
        z, degenerate = standardize_values(x)
        assert not degenerate
        assert z.mean() == pytest.approx(0.0, abs=1e-12)
        assert z.std() == pytest.approx(1.0, abs=1e-12)  # population std

    def test_constant_maps_to_zeros_with_flag(self):
        z, degenerate = standardize_values(np.array([5.0, 5.0, 5.0]))
        assert degenerate
        assert np.all(z == 0.0)

    def test_affine_invariance(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=50)
        z1, _ = standardize_values(x)
        z2, _ = standardize_values(3.5 * x - 2.0)
        np.testing.assert_allclose(z1, z2, atol=1e-12)


class TestSavitzkyGolay:
    def test_window5_order2_interior_weights(self):
        # classic quadratic kernel: (-3, 12, 17, 12, -3)/35
        x = np.zeros(11)
        x[5] = 35.0
        out = savgol_smooth(x, 5, 2)
        np.testing.assert_allclose(out[3:8], [-3.0, 12.0, 17.0, 12.0, -3.0], atol=1e-9)

    @pytest.mark.parametrize("window,order", [(5, 2), (4, 2), (26, 3), (7, 3), (2, 1)])
    def test_polynomials_preserved_everywhere(self, window, order):
        # degree <= polyorder inputs pass through unchanged, edges included
        t = np.linspace(-1.0, 1.0, 60)
        coeffs = np.array([0.3, -1.2, 0.8, 0.5])[: order + 1]
        x = sum(c * t**k for k, c in enumerate(coeffs))
        out = savgol_smooth(x, window, order)
        np.testing.assert_allclose(out, x, atol=1e-9)

    def test_even_window_accepted(self):
        x = np.random.default_rng(0).normal(size=40)
        out = savgol_smooth(x, 26, 3)
        assert out.shape == x.shape
        assert np.all(np.isfinite(out))

    def test_smooths_noise(self):
        rng = np.random.default_rng(5)
        t = np.linspace(0, 4 * np.pi, 300)
        clean = np.sin(t)
        noisy = clean + 0.3 * rng.normal(size=t.size)
        out = savgol_smooth(noisy, 15, 3)
        assert np.abs(out - clean).mean() < np.abs(noisy - clean).mean()

    def test_rejects_bad_parameters(self):
        x = np.zeros(10)
        with pytest.raises(ParameterError):
            savgol_smooth(x, 1, 0)  # window < 2
        with pytest.raises(ParameterError):
            savgol_smooth(x, 5, 5)  # polyorder >= window
        with pytest.raises(ParameterError):
            savgol_smooth(x, 11, 3)  # window > len
        with pytest.raises(ParameterError):
            savgol_smooth(x, 5, -1)

    def test_signal_shorter_than_window_is_degenerate_input(self):
        # a valid window on too short a recording: bad data, not a bad parameter
        with pytest.raises(DegenerateInputError, match="window 11 exceeds signal length 10"):
            savgol_smooth(np.zeros(10), 11, 3)

class TestFrozen:
    def test_dataclasses_are_frozen(self):
        t = trace([0.0, 1.0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.rater_id = "other"
