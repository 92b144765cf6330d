"""Dynamic time warping and iterative multi-sequence alignment."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ParameterError

__all__ = ["FusionConfig", "WarpPath", "AlignmentResult", "dtw", "default_band", "multi_align"]


@dataclass(frozen=True)
class FusionConfig:
    """Alignment settings of :func:`multi_align` (and so of :func:`affectfuse.fuse.raaw`), checked when built."""

    max_iter: int = 20
    tol: float = 1e-4
    band: int | None = None  # None -> 10% of the sequence length
    reference: str | int = "mean"

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise ParameterError("max_iter must be >= 1")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ParameterError(f"tol must be positive and finite, got {self.tol}")
        if self.reference != "mean" and not (isinstance(self.reference, (int, np.integer)) and self.reference >= 0):
            raise ParameterError(f"reference must be 'mean' or a rater index >= 0, got {self.reference!r}")


@dataclass(frozen=True)
class WarpPath:
    """Monotone alignment path between a source and a reference sequence.

    ``pairs`` has shape (P, 2) with columns (source_index, reference_index),
    starting at (0, 0), ending at (n-1, m-1), each step advancing one or both
    indices by exactly 1. ``cost`` is the sum of local distances along the
    path.
    """

    pairs: np.ndarray
    cost: float

    def __post_init__(self) -> None:
        pairs = np.asarray(self.pairs, dtype=np.int64)
        object.__setattr__(self, "pairs", pairs)
        if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] < 1:
            raise ParameterError("warp path must be a (P, 2) index array")
        if pairs[0, 0] != 0 or pairs[0, 1] != 0:
            raise ParameterError("warp path must start at (0, 0)")
        steps = np.diff(pairs, axis=0)
        if steps.size and (steps.min() < 0 or steps.max() > 1 or steps.sum(axis=1).min() < 1):
            raise ParameterError("warp path steps must advance one or both indices by 1")


@dataclass(frozen=True)
class AlignmentResult:
    """Outcome of aligning several equal-length traces to a common reference."""

    warped: np.ndarray  # (n_raters, grid_length)
    paths: tuple[WarpPath, ...]
    reference: np.ndarray
    iterations: int  # DTW rounds run
    stop_reason: str  # "converged", "stalled" or "max_iter"
    objective: tuple[float, ...]  # per round: summed path cost J
    max_delta: tuple[float, ...]  # per round: largest reference change

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


# table rows whose local costs and prefix sums dtw holds at once
DTW_BLOCK = 128
# costs within this times max(1, |cost|) are ties: dtw's traceback steps and multi_align's stalled rounds
TIE_RTOL = 1e-9


def dtw(a, b, band: int | None = None) -> WarpPath:
    """Optimal-cost DTW path between 1-d sequences ``a`` (source) and ``b`` (reference).

    Local cost is ``|a[i] - b[j]|``; both inputs must be finite. With
    ``band`` given, cells outside the Sakoe-Chiba band ``|i - j| <= band``
    are unreachable; the band must be at least ``|len(a) - len(b)|`` or no
    path exists. ``band=None`` (or any band of ``max(n, m) - 1`` or more)
    leaves every cell reachable. Ties during traceback (up to a relative
    tolerance that absorbs float rounding between equal-cost alternatives)
    prefer the diagonal step, then the source-advancing step, then the
    reference-advancing step, so the returned path is deterministic and
    stable under affine input maps.

    Only the band is stored: an (n+1) x (2*band+2) table, plus local costs
    and their prefix sums for ``DTW_BLOCK`` rows at a time, so memory grows
    with ``n * band`` rather than ``n * m``. That is still quadratic in ``n``
    under :func:`default_band`, which is 10% of the length: an hour at 2 Hz
    (7,201 samples, band 720) holds about 85 MB. Only a band fixed in seconds
    (which changes gold values) or a checkpointed traceback would make it
    sub-quadratic.

    Returns
    -------
    WarpPath
        Path pairs plus the cost recomputed as the sum of local distances
        along the traced path.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.size == 0 or b.size == 0:
        raise ParameterError("dtw inputs must be non-empty 1-d sequences")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ParameterError("dtw inputs must be finite (no NaN or inf)")
    n, m = a.size, b.size
    if band is not None:
        band = int(band)
        if band < 0:
            raise ParameterError("band must be >= 0")
        if band < abs(n - m):
            raise ParameterError(
                f"band {band} < length difference {abs(n - m)}: no feasible path"
            )
    # a wider band reaches no further cell
    band = max(n, m) - 1 if band is None else min(band, max(n, m) - 1)
    width = 2 * band + 1

    # Banded cost-to-reach table: column k of row i holds the best cost
    # ending at sample pair (i-1, j-1) with j = i - band + k; row 0 and the
    # last column are padding that stays inf. Row i's diagonal and up
    # predecessors are columns k and k+1 of row i-1. The recurrence
    # D[i,j] = c + min(diag, up, left) is evaluated with the left dependency
    # folded into a running minimum: D = S + accmin(min(diag, up) + c - S),
    # S the in-row prefix sum of c. Row 1 is S alone. Later rows are updated
    # whole: cells left of the band stay inf by induction, cells right of it
    # (j > m) are never read, and costs left of the band are zero, so S
    # matches a prefix sum started at the band's first cell bit for bit.
    dmat = np.full((n + 1, width + 1), np.inf)
    dmat[1, band : band + min(m, band + 1)] = np.cumsum(np.abs(a[0] - b[: band + 1]))
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([np.zeros(band), b, np.zeros(n + band - m)]), width)
    costs, scans = np.empty((2, min(DTW_BLOCK, n - 1), width))
    for r0 in range(1, n, DTW_BLOCK):
        r1 = min(r0 + DTW_BLOCK, n)
        cost, scan = costs[: r1 - r0], scans[: r1 - r0]
        np.abs(np.subtract(a[r0:r1, None], windows[r0:r1], out=cost), out=cost)
        if r0 < band:
            cost[np.arange(width) < band - np.arange(r0, r1)[:, None]] = 0.0
        np.cumsum(cost, axis=1, out=scan)
        for diag, up, cur, c, s in zip(dmat[r0:r1, :-1], dmat[r0:r1, 1:], dmat[r0 + 1 : r1 + 1, :-1], cost, scan):
            np.minimum(diag, up, out=cur)
            cur += c
            cur -= s
            np.minimum.accumulate(cur, out=cur)
            cur += s
    flat, stride = dmat.ravel(), width + 1
    p = n * stride + m - n + band
    if not np.isfinite(flat[p]):
        raise ParameterError("no feasible warp path under the given band")

    # Traceback over flat indices, ties broken in a fixed order: diagonal (one
    # row back), source advance (one row back, one column right), reference
    # advance (one back; from column 0 that is the previous row's inf padding).
    # Ties are judged with a small relative tolerance: alternative paths that
    # cost the same in exact arithmetic sum the same local distances in
    # different orders, so their table values round apart by ~1e-16, and a
    # strict comparison would let that noise pick different paths for inputs
    # equal up to an affine map. Integer inputs keep exact table values, so
    # the tolerance never fires there.
    item, steps = flat.item, [p]
    while p != stride + band:
        diag, up, left = item(p - stride), item(p - width), item(p - 1)
        best = min(diag, up, left)
        tol = TIE_RTOL * max(1.0, abs(best))
        p -= stride if diag <= best + tol else width if up <= best + tol else 1
        steps.append(p)
    i, k = np.divmod(np.asarray(steps[::-1], dtype=np.int64), stride)
    pairs = np.stack([i - 1, i - 1 + k - band], axis=1)
    cost = float(np.abs(a[pairs[:, 0]] - b[pairs[:, 1]]).sum())
    return WarpPath(pairs=pairs, cost=cost)


def default_band(length: int) -> int:
    """Default Sakoe-Chiba radius: 10% of the sequence length, at least 1."""
    return max(1, int(round(0.1 * length)))


def _path_stack(traces: np.ndarray, paths: tuple[WarpPath, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of ``paths``, in path order: its reference index and the source value it maps."""
    ref_idx = np.concatenate([p.pairs[:, 1] for p in paths])
    return ref_idx, np.concatenate([tr[p.pairs[:, 0]] for tr, p in zip(traces, paths)])


def multi_align(traces: np.ndarray, config: FusionConfig | None = None) -> AlignmentResult:
    """Align the rows of a (raters, samples) float matrix onto one common time grid.

    Iterative reference-based scheme: the reference starts as the mean of the
    traces; every trace is DTW-warped onto it, and each reference sample
    becomes the median of all samples, pooled over the traces, that the paths
    map to it. This minimises
    J = sum_k sum_{(i, j) in path k} |x_k[i] - r[j]| by turns: DTW picks the
    cheapest paths for the reference, the median minimises J index by index
    for those paths, so a round's summed path cost (``objective``) never rises
    beyond dtw's tie tolerance. The loop stops when the largest reference
    change (``max_delta``) drops below ``config.tol`` (``stop_reason="converged"``),
    when J falls by no more than ``TIE_RTOL * max(1, J)`` (``"stalled"``)
    or after ``config.max_iter`` rounds (``"max_iter"``). ``warped`` holds, on
    the input's grid, the mean of each trace's samples that its last path maps
    to each reference index; a ``dtw`` path reaches every index.

    The traces are aligned as given: :func:`affectfuse.fuse.raaw` standardizes
    them first. ``config.reference=k`` (an integer rater index) fixes the
    reference to row k: one round warps every trace onto it and stops
    (``stop_reason="converged"``, ``max_delta`` 0). ``config.band`` defaults
    to 10% of the sequence length.
    """
    config = config or FusionConfig()
    max_iter, tol, reference = config.max_iter, config.tol, config.reference
    traces = np.asarray(traces, dtype=np.float64)
    if len(traces) < 2:
        raise DegenerateInputError("multi_align needs at least 2 traces")
    fixed = reference != "mean"
    if fixed and reference >= len(traces):
        raise DegenerateInputError(f"reference rater index {reference} out of range for {len(traces)} raters")
    length = traces.shape[1]
    band = default_band(length) if config.band is None else config.band

    ref = traces[int(reference)] if fixed else traces.mean(axis=0)
    costs, deltas = [], []
    while len(costs) < max_iter:
        paths = tuple(dtw(tr, ref, band=band) for tr in traces)
        new_ref = ref  # a rater's trace stays the reference: the first round converges
        if not fixed:  # pooled median per reference index: the middle of its sorted run
            ref_idx, values = _path_stack(traces, paths)
            values = values[np.lexsort((values, ref_idx))]
            counts = np.bincount(ref_idx, minlength=length)
            start = np.cumsum(counts) - counts
            new_ref = 0.5 * (values[start + (counts - 1) // 2] + values[start + counts // 2])
            del ref_idx, values  # not held through the next round's dtw tables
        deltas.append(float(np.max(np.abs(new_ref - ref))))
        costs.append(float(sum(p.cost for p in paths)))
        ref = new_ref
        stalled = len(costs) > 1 and costs[-2] - costs[-1] <= TIE_RTOL * max(1.0, costs[-2])
        stop_reason = "converged" if deltas[-1] < tol else "stalled" if stalled else "max_iter"
        if stop_reason != "max_iter":
            break
    ref_idx, values = _path_stack(traces, paths)
    # one bin per (row, reference index), summed in path order
    flat = np.repeat(np.arange(len(paths)) * length, [len(p.pairs) for p in paths]) + ref_idx
    warped = (np.bincount(flat, values, traces.size) / np.bincount(flat, minlength=traces.size)).reshape(traces.shape)
    return AlignmentResult(
        warped=warped, paths=paths, reference=ref, iterations=len(costs), stop_reason=stop_reason,
        objective=tuple(costs), max_delta=tuple(deltas),
    )
