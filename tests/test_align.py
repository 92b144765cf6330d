from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from affectfuse import align
from affectfuse.align import (
    TIE_RTOL,
    FusionConfig,
    WarpPath,
    default_band,
    dtw,
    multi_align,
)
from affectfuse.core import standardize_values
from affectfuse.errors import DegenerateInputError, ParameterError
from affectfuse.metrics import pearson

from _oracles import brute_dtw_cost, full_table_dtw, warp_row


def _standardized(arrays):
    """The matrix ``fuse.raaw`` hands ``multi_align``: each row standardized."""
    return np.stack([standardize_values(a)[0] for a in arrays])


def _noisy_traces():
    """Four lagged noisy walks that need 6 rounds to converge."""
    rng = np.random.default_rng(1)
    n = int(rng.integers(40, 120))
    base = np.cumsum(rng.normal(size=n))
    arrays = [np.roll(base, int(rng.integers(-4, 5))) + rng.normal(0, 0.5, n) for _ in range(4)]
    return _standardized(arrays)


def _alternating_paths(monkeypatch, n=10):
    """Three random traces and a dtw stub whose rounds alternate between the
    identity path and a one-step lag, each reported at cost 1."""
    lagged = [(0, 0)] + [(i, i - 1) for i in range(1, n)] + [(n - 1, n - 1)]
    paths = [WarpPath(pairs=np.stack([np.arange(n)] * 2, axis=1), cost=1.0),
             WarpPath(pairs=np.array(lagged), cost=1.0)]
    calls = []

    def stub(a, b, band=None):
        calls.append(1)
        return paths[(len(calls) - 1) // 3 % 2]

    monkeypatch.setattr(align, "dtw", stub)
    return _standardized(list(np.random.default_rng(4).normal(size=(3, n))))


def _assert_non_increasing(objective):
    for before, after in zip(objective, objective[1:]):
        assert after <= before + TIE_RTOL * max(1.0, before)


@st.composite
def _rater_case(draw):
    n_raters = draw(st.integers(2, 5))
    length = draw(st.integers(8, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # small integers: many exact ties in the tables and in the medians
        arrays = rng.integers(0, 4, size=(n_raters, length)).astype(float)
    else:
        base = np.cumsum(rng.normal(size=length))
        arrays = [np.roll(base, int(rng.integers(-3, 4))) + rng.normal(0, 0.5, length)
                  for _ in range(n_raters)]
    return _standardized(list(arrays)), draw(st.sampled_from([None, 0, 1, 3]))


class TestDtw:
    def test_identical_sequences_cost_zero_diagonal_path(self):
        x = np.array([0.0, 1.0, 2.0, 1.0])
        path = dtw(x, x, band=4)
        assert path.cost == 0.0
        assert np.array_equal(path.pairs[:, 0], np.arange(4))
        assert np.array_equal(path.pairs[:, 1], np.arange(4))

    def test_matches_brute_force_on_integer_grids(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            band = max(abs(n - m), int(rng.integers(1, 7)))
            a = rng.integers(0, 10, size=n).astype(float)
            b = rng.integers(0, 10, size=m).astype(float)
            path = dtw(a, b, band=band)
            # integer inputs keep float accumulation exact
            assert path.cost == brute_dtw_cost(a, b, band)

    def test_band_narrower_than_length_gap_rejected(self):
        with pytest.raises(ParameterError):
            dtw(np.zeros(10), np.zeros(3), band=4)

    def test_band_equal_to_length_gap_accepted(self):
        path = dtw(np.zeros(10), np.zeros(3), band=7)
        assert path.cost == 0.0

    def test_tie_break_prefers_diagonal(self):
        # all-zero sequences: every step costs zero, so the path shape is
        # decided purely by the tie order (diagonal first)
        path = dtw(np.zeros(5), np.zeros(5), band=5)
        assert np.array_equal(path.pairs[:, 0], np.arange(5))
        assert np.array_equal(path.pairs[:, 1], np.arange(5))

    def test_known_small_example(self):
        # [1,2,3] vs [1,1,2,3,3]: the shorter ends stretch at zero cost
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([1.0, 1.0, 2.0, 3.0, 3.0])
        path = dtw(a, b, band=5)
        assert path.cost == 0.0
        assert tuple(path.pairs[0]) == (0, 0)
        assert tuple(path.pairs[-1]) == (2, 4)

    def test_monotone_and_contiguous_path(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=40)
        b = rng.normal(size=40)
        path = dtw(a, b, band=default_band(40))
        steps = np.diff(path.pairs, axis=0)
        assert steps.min() >= 0
        assert steps.max() <= 1
        assert steps.sum(axis=1).min() >= 1

    def test_band_limits_index_spread(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=50)
        b = rng.normal(size=50)
        for band in (1, 3, 8):
            path = dtw(a, b, band=band)
            assert np.max(np.abs(path.pairs[:, 0] - path.pairs[:, 1])) <= band

    def test_rejects_empty_and_negative_band(self):
        with pytest.raises(ParameterError):
            dtw(np.array([]), np.zeros(3), band=3)
        with pytest.raises(ParameterError):
            dtw(np.zeros(3), np.zeros(3), band=-1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_rejects_non_finite_input(self, bad, side):
        seqs = {"a": np.array([1.0, 2.0, 3.0]), "b": np.array([1.0, 2.0, 3.0])}
        seqs[side][1] = bad
        with pytest.raises(ParameterError, match="must be finite"):
            dtw(seqs["a"], seqs["b"], band=3)


@st.composite
def _dtw_case(draw):
    # up to 300 rows: several blocks at the block sizes tested, band edges included
    n = draw(st.integers(1, 300))
    m = draw(st.integers(1, 300) | st.integers(max(1, n - 5), n + 5))
    band = draw(st.sampled_from(["zero", "gap", "default", "none"]))
    band = {"zero": 0, "gap": abs(n - m), "default": default_band(max(n, m)), "none": None}[band]
    if draw(st.booleans()):
        # small integers: many exact ties, so the traceback's tie rule decides
        values = st.integers(0, 3).map(float)
    else:
        values = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
    a = draw(arrays(np.float64, n, elements=values))
    b = draw(arrays(np.float64, m, elements=values))
    # a common offset keeps every local cost, but any cost from outside the
    # band that leaked into a prefix sum would swamp the table's values
    offset = draw(st.sampled_from([0.0, 1e15]))
    return a + offset, b + offset, band


class TestBandedDtwMatchesFullTable:
    @pytest.mark.parametrize("block", [1, 2, 7, align.DTW_BLOCK])
    @settings(max_examples=100)
    @given(case=_dtw_case())
    def test_same_pairs_and_cost(self, block, case):
        a, b, band = case
        try:
            want = full_table_dtw(a, b, band=band)
        except ParameterError:
            want = None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(align, "DTW_BLOCK", block)
            if want is None:
                with pytest.raises(ParameterError):
                    dtw(a, b, band=band)
                return
            got = dtw(a, b, band=band)
        assert np.array_equal(got.pairs, want.pairs)
        assert got.cost == want.cost

    def test_memory_is_the_banded_table(self):
        rng = np.random.default_rng(8)
        a, b = np.cumsum(rng.normal(size=(2, 2401)), axis=1)
        tracemalloc.start()
        try:
            dtw(a, b, band=default_band(2401))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 2402 x 482 table is 9.3 MB; whole local-cost and prefix-sum arrays would add 18.5 MB
        assert peak < 16 * 2**20


class TestObjectiveNeverRises:
    @settings(max_examples=150)
    @given(_rater_case())
    def test_objective_non_increasing(self, case):
        traces, band = case
        result = multi_align(traces, FusionConfig(band=band))
        assert len(result.objective) == len(result.max_delta) == result.iterations
        _assert_non_increasing(result.objective)
        assert (result.max_delta[-1] < 1e-4) == result.converged


class TestWarpPath:
    def test_validates_step_sizes(self):
        with pytest.raises(ParameterError):
            WarpPath(pairs=np.array([[0, 0], [2, 1]]), cost=0.0)
        with pytest.raises(ParameterError):
            WarpPath(pairs=np.array([[0, 0], [1, 1], [0, 2]]), cost=0.0)

    def test_validates_origin(self):
        with pytest.raises(ParameterError):
            WarpPath(pairs=np.array([[1, 0], [2, 1]]), cost=0.0)

    def test_validates_shape(self):
        with pytest.raises(ParameterError):
            WarpPath(pairs=np.zeros((0, 2), dtype=int), cost=0.0)
        with pytest.raises(ParameterError):
            WarpPath(pairs=np.array([0, 0]), cost=0.0)

    def test_rejects_stalled_step(self):
        with pytest.raises(ParameterError):
            WarpPath(pairs=np.array([[0, 0], [0, 0]]), cost=0.0)


@st.composite
def _warp_case(draw):
    n_rows = draw(st.integers(2, 6))
    length = draw(st.integers(2, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # small integers: ties make paths hold one reference index for several source samples
        traces = rng.integers(0, 4, size=(n_rows, length)).astype(float)
    else:
        traces = np.cumsum(rng.normal(size=(n_rows, length)), axis=1)
    # an offset makes every sum of several samples round, so a changed summation order shows
    traces += draw(st.sampled_from([0.0, 1e12]))
    return traces, draw(st.just("mean") | st.integers(0, n_rows - 1))


class TestWarpedMatchesPerRowOracle:
    @settings(max_examples=100, deadline=None)
    @given(case=_warp_case())
    # source samples 0 and 1 share reference index 0: their mean, 3
    @example(case=(np.array([[2.0, 4.0, 9.0], [3.0, 9.0, 9.0]]), 1))
    # equal rows: identity paths, so each row comes back as it was
    @example(case=(np.tile([3.0, 1.0, 4.0, 1.0, 5.0], (2, 1)), "mean"))
    def test_warped_is_each_rows_warp_on_its_path(self, case):
        traces, reference = case
        result = multi_align(traces, FusionConfig(reference=reference))
        want = np.stack([warp_row(tr, p, traces.shape[1]) for tr, p in zip(traces, result.paths)])
        assert result.warped.shape == traces.shape
        # dtw's paths reach every reference index, so no bin is left empty
        assert np.isfinite(result.warped).all()
        assert result.warped.tobytes() == want.tobytes()


class TestMultiAlign:
    def test_delayed_copies_align_to_high_correlation(self):
        # two copies of one signal offset by a known lag must align to
        # near-perfect pairwise correlation after warping
        t = np.arange(400) / 4.0
        base = np.sin(2 * np.pi * t / 23.0) + 0.5 * np.sin(2 * np.pi * t / 7.0)
        lag = 6
        traces = _standardized([base[lag:], base[:-lag]])
        raw_cc = pearson(base[lag:], base[:-lag])
        result = multi_align(traces)
        cc = pearson(result.warped[0], result.warped[1])
        assert cc >= 0.99
        assert cc > raw_cc

    def test_three_raters_converges(self):
        rng = np.random.default_rng(21)
        t = np.arange(300)
        base = np.sin(2 * np.pi * t / 60.0)
        traces = _standardized(
            [
                np.roll(base, 3) + rng.normal(0, 0.02, 300),
                base + rng.normal(0, 0.02, 300),
                np.roll(base, -3) + rng.normal(0, 0.02, 300),
            ]
        )
        result = multi_align(traces, FusionConfig(max_iter=10))
        assert result.converged
        assert result.stop_reason == "converged"
        assert result.iterations <= 10
        for i in range(3):
            for j in range(i + 1, 3):
                assert pearson(result.warped[i], result.warped[j]) > 0.97

    @pytest.mark.parametrize(
        ("case", "max_iter", "stop_reason"),
        [("converges", 10, "converged"), ("alternates", 20, "stalled"), ("noisy", 3, "max_iter")],
    )
    def test_one_dtw_call_per_trace_per_round(self, monkeypatch, case, max_iter, stop_reason):
        if case == "converges":
            rng = np.random.default_rng(21)
            base = np.sin(2 * np.pi * np.arange(300) / 60.0)
            traces = _standardized([np.roll(base, s) + rng.normal(0, 0.02, 300) for s in (3, 0, -3)])
        elif case == "alternates":
            traces = _alternating_paths(monkeypatch)
        else:
            traces = _noisy_traces()
        calls = []
        inner_dtw = align.dtw
        monkeypatch.setattr(align, "dtw", lambda *a, **k: calls.append(1) or inner_dtw(*a, **k))
        result = multi_align(traces, FusionConfig(max_iter=max_iter))
        assert result.stop_reason == stop_reason
        assert len(calls) == len(traces) * result.iterations

    def test_equal_cost_paths_stall(self, monkeypatch):
        # rounds alternate between two paths of equal cost: J cannot fall,
        # while the reference keeps moving between their two medians
        traces = _alternating_paths(monkeypatch)
        result = multi_align(traces, FusionConfig(max_iter=20))
        assert result.stop_reason == "stalled"
        assert not result.converged
        assert result.iterations == 2
        assert result.objective == (3.0, 3.0)
        assert result.max_delta[-1] >= 1e-4

    @pytest.mark.parametrize("max_iter", [1, 3, 20])
    def test_round_diagnostics(self, max_iter):
        traces = _noisy_traces()
        result = multi_align(traces, FusionConfig(max_iter=max_iter))
        assert len(result.objective) == len(result.max_delta) == result.iterations
        assert result.iterations <= max_iter
        # the last entry is the summed cost of the paths the result holds
        assert result.objective[-1] == sum(p.cost for p in result.paths)
        _assert_non_increasing(result.objective)
        assert (result.max_delta[-1] < 1e-4) == (result.stop_reason == "converged")

    def test_median_reference_minimises_cost_for_fixed_paths(self):
        traces = _noisy_traces()
        result = multi_align(traces, FusionConfig(max_iter=1))
        ref_idx = np.concatenate([p.pairs[:, 1] for p in result.paths])
        values = np.concatenate([tr[p.pairs[:, 0]] for tr, p in zip(traces, result.paths)])

        def cost(ref):
            return float(np.abs(values - ref[ref_idx]).sum())

        best = cost(result.reference)
        pooled_mean = np.bincount(ref_idx, weights=values) / np.bincount(ref_idx)
        assert best <= cost(pooled_mean)
        assert best <= cost(result.warped.mean(axis=0))
        rng = np.random.default_rng(3)
        slack = 1e-12 * best
        for scale in (1e-6, 1e-3, 1e-1):
            for _ in range(20):
                assert best <= cost(result.reference + rng.normal(0, scale, traces.shape[1])) + slack
            for j in rng.choice(traces.shape[1], size=10, replace=False):
                for step in (-scale, scale):
                    moved = result.reference.copy()
                    moved[j] += step
                    assert best <= cost(moved) + slack

    def test_even_count_median_is_midpoint(self):
        # two raters on the identity path: each reference sample is the
        # mean of the two standardized samples mapped to it
        rows = [np.arange(6.0), np.arange(6.0) ** 2]
        result = multi_align(_standardized(rows), FusionConfig(max_iter=1, band=0))
        std = np.stack([standardize_values(row)[0] for row in rows])
        assert np.allclose(result.reference, std.mean(axis=0), rtol=0, atol=1e-15)

    def test_repeated_reference_index_averages(self):
        # row 0's path maps source samples 0 and 1 to reference index 0
        result = multi_align(np.array([[2.0, 4.0, 9.0], [3.0, 9.0, 9.0]]), FusionConfig(reference=1))
        assert result.paths[0].pairs.tolist() == [[0, 0], [1, 0], [2, 1], [2, 2]]
        assert result.warped.tolist() == [[3.0, 9.0, 9.0], [3.0, 9.0, 9.0]]

    def test_identity_path_roundtrip(self):
        x = np.tile([3.0, 1.0, 4.0, 1.0, 5.0], (2, 1))
        result = multi_align(x)
        assert all(p.pairs.tolist() == [[i, i] for i in range(5)] for p in result.paths)
        assert np.array_equal(result.warped, x)

    def test_grid_length_matches_input(self):
        rng = np.random.default_rng(22)
        traces = _standardized([rng.normal(size=120), rng.normal(size=120)])
        result = multi_align(traces)
        assert result.warped.shape == (2, 120)
        assert result.reference.shape == (120,)

    def test_integer_reference_selects_single_pass(self, monkeypatch):
        rng = np.random.default_rng(31)
        base = np.cumsum(rng.normal(size=200))
        traces = _standardized([np.roll(base, 2), base, base[::-1]])
        calls = []
        inner_dtw = align.dtw
        monkeypatch.setattr(align, "dtw", lambda *a, **k: calls.append(1) or inner_dtw(*a, **k))
        result = multi_align(traces, FusionConfig(reference=1))
        assert len(calls) == len(traces)  # one round: one dtw call per trace
        assert result.converged
        assert result.stop_reason == "converged"
        assert result.iterations == 1
        assert result.objective == (sum(p.cost for p in result.paths),)
        assert result.max_delta == (0.0,)
        # rater 1 is the reference, unchanged by the round: its standardized trace
        std1 = standardize_values(base)[0]
        assert np.array_equal(result.reference, std1)
        assert np.allclose(result.warped[1], (base - base.mean()) / base.std())
        # the round count does not matter: the fixed reference stops after one round
        for max_iter in (1, 20):
            again = multi_align(traces, FusionConfig(max_iter=max_iter, reference=1))
            assert np.array_equal(again.warped, result.warped)
            assert np.array_equal(again.reference, result.reference)
            assert [p.pairs.tolist() for p in again.paths] == [p.pairs.tolist() for p in result.paths]
            assert (again.iterations, again.objective, again.max_delta) == (1, result.objective, (0.0,))

    def test_reference_index_out_of_range(self):
        traces = _standardized([np.arange(5.0), np.arange(5.0) * 2])
        with pytest.raises(DegenerateInputError, match="index 2 out of range for 2 raters"):
            multi_align(traces, FusionConfig(reference=2))

    def test_unknown_reference_mode_rejected(self):
        traces = _standardized([np.arange(5.0), np.arange(5.0) * 2])
        with pytest.raises(ParameterError):
            multi_align(traces, FusionConfig(reference="median"))

    @pytest.mark.parametrize("reference", [-1, np.int64(-1)])
    def test_negative_reference_rejected_when_built(self, reference):
        # no rater set is needed to tell that no rater has a negative index
        with pytest.raises(ParameterError, match="reference must be 'mean' or a rater index >= 0"):
            FusionConfig(reference=reference)

    def test_requires_two_traces(self):
        with pytest.raises(ParameterError):
            multi_align(_standardized([np.arange(10.0)]))

    def test_bad_iteration_parameters(self):
        traces = _standardized([np.arange(8.0), np.arange(8.0) ** 2])
        with pytest.raises(ParameterError):
            multi_align(traces, FusionConfig(max_iter=0))
        with pytest.raises(ParameterError):
            multi_align(traces, FusionConfig(tol=0.0))

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf])
    def test_non_finite_tol_rejected(self, tol):
        traces = _standardized([np.arange(8.0), np.arange(8.0) ** 2])
        with pytest.raises(ParameterError, match="tol must be positive and finite"):
            multi_align(traces, FusionConfig(tol=tol))


class TestDefaultBand:
    def test_ten_percent_rounded(self):
        assert default_band(100) == 10
        assert default_band(95) == 10
        assert default_band(149) == 15

    def test_floor_of_one(self):
        assert default_band(3) == 1
        assert default_band(1) == 1
