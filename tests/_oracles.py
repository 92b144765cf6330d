"""Independent reference implementations used to check the package.

Everything here is deliberately written from textbook definitions, favoring
clarity over speed, and avoiding the vectorized code paths the package uses:
agreement between the two routes is the point.
"""

from __future__ import annotations

import numpy as np


def direct_pearson(x, y) -> float:
    """Pearson r through numpy's covariance matrix (population moments)."""
    c = np.cov(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64), ddof=0)
    return float(c[0, 1] / np.sqrt(c[0, 0] * c[1, 1]))


def direct_ccc(x, y) -> float:
    """Concordance correlation through numpy's covariance matrix."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    c = np.cov(x, y, ddof=0)
    return float(2.0 * c[0, 1] / (c[0, 0] + c[1, 1] + (x.mean() - y.mean()) ** 2))


def brute_dtw_cost(a, b, band=None) -> float:
    """Minimum path cost by explicit enumeration of every monotone path.

    Paths start at (0, 0), end at (n-1, m-1), and advance by (1,0), (0,1) or
    (1,1); cost sums |a_i - b_j| over every visited cell. Exponential, so
    only usable for short sequences (Delannoy numbers: 6x6 has 1683 paths).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, m = a.size, b.size

    def ok(i: int, j: int) -> bool:
        return band is None or abs(i - j) <= band

    best = [np.inf]

    def walk(i: int, j: int, cost: float) -> None:
        cost += abs(a[i] - b[j])
        if i == n - 1 and j == m - 1:
            if cost < best[0]:
                best[0] = cost
            return
        if i + 1 < n and j + 1 < m and ok(i + 1, j + 1):
            walk(i + 1, j + 1, cost)
        if i + 1 < n and ok(i + 1, j):
            walk(i + 1, j, cost)
        if j + 1 < m and ok(i, j + 1):
            walk(i, j + 1, cost)

    if ok(0, 0):
        walk(0, 0, 0.0)
    return best[0]


def adjusted_rand_index(labels_a, labels_b) -> float:
    """ARI from the contingency table (Hubert & Arabie form)."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    classes_a = np.unique(a)
    classes_b = np.unique(b)
    table = np.zeros((classes_a.size, classes_b.size), dtype=np.int64)
    for i, ca in enumerate(classes_a):
        for j, cb in enumerate(classes_b):
            table[i, j] = int(np.sum((a == ca) & (b == cb)))

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_ij = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    total = comb2(a.size)
    expected = sum_a * sum_b / total
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))


def fd_gradient(f, x: np.ndarray, delta: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function at x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for i in range(x.size):
        up = x.copy()
        dn = x.copy()
        up[i] += delta
        dn[i] -= delta
        grad[i] = (f(up) - f(dn)) / (2.0 * delta)
    return grad


def silhouette_reference(points: np.ndarray, labels: np.ndarray) -> float:
    """Plain-loop mean silhouette with the 0-for-singletons convention."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    n = points.shape[0]
    scores = np.zeros(n)
    for i in range(n):
        own = labels == labels[i]
        if own.sum() == 1:
            scores[i] = 0.0
            continue
        d = np.sqrt(((points - points[i]) ** 2).sum(axis=1))
        a = d[own & (np.arange(n) != i)].mean()
        b = min(d[labels == c].mean() for c in np.unique(labels) if c != labels[i])
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return float(scores.mean())


def _loop_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _loop_direction(params, h, x, layer, d):
    w, u, b = (params[f"l{layer}{d}_{n}"] for n in ("W", "U", "b"))
    t_len = x.shape[0]
    gates = np.empty((t_len, 4 * h))
    cells = np.empty((t_len, h))
    hidden = np.empty((t_len, h))
    h_prev = np.zeros(h)
    c_prev = np.zeros(h)
    for t in range(t_len):
        pre = x[t] @ w + h_prev @ u + b
        gi = _loop_sigmoid(pre[:h])
        gf = _loop_sigmoid(pre[h : 2 * h])
        gg = np.tanh(pre[2 * h : 3 * h])
        go = _loop_sigmoid(pre[3 * h :])
        c_prev = gf * c_prev + gi * gg
        h_prev = go * np.tanh(c_prev)
        gates[t] = np.concatenate([gi, gf, gg, go])
        cells[t] = c_prev
        hidden[t] = h_prev
    return hidden, {"x": x, "gates": gates, "cells": cells, "hidden": hidden}


def _loop_back_direction(params, h, d_hidden, layer, d, cache, grads):
    w, u = params[f"l{layer}{d}_W"], params[f"l{layer}{d}_U"]
    x, gates, cells, hidden = cache["x"], cache["gates"], cache["cells"], cache["hidden"]
    dx = np.zeros_like(x)
    dh_next = np.zeros(h)
    dc_next = np.zeros(h)
    for t in range(x.shape[0] - 1, -1, -1):
        gi, gf, gg, go = (gates[t, k * h : (k + 1) * h] for k in range(4))
        tc = np.tanh(cells[t])
        dh = d_hidden[t] + dh_next
        dc = dh * go * (1.0 - tc * tc) + dc_next
        c_prev = cells[t - 1] if t > 0 else np.zeros(h)
        h_prev = hidden[t - 1] if t > 0 else np.zeros(h)
        dpre = np.concatenate(
            [
                dc * gg * gi * (1.0 - gi),
                dc * c_prev * gf * (1.0 - gf),
                dc * gi * (1.0 - gg * gg),
                dh * tc * go * (1.0 - go),
            ]
        )
        grads[f"l{layer}{d}_W"] += np.outer(x[t], dpre)
        grads[f"l{layer}{d}_U"] += np.outer(h_prev, dpre)
        grads[f"l{layer}{d}_b"] += dpre
        dx[t] = dpre @ w.T
        dh_next = dpre @ u.T
        dc_next = dc * gf
    return dx


def loop_lstm_loss_and_grads(model, batch) -> tuple[float, dict]:
    """``SequenceModel.loss_and_grads`` one sequence and one timestep at a time.

    The package's first LSTM, kept as a reference: each item runs alone
    through explicit per-step loops (boolean-mask sigmoid, per-step outer
    products), with the backward direction on the reversed item, so there is
    no batching, padding or masking to get wrong.
    """
    from affectfuse.seqmodel import ccc_loss, cross_entropy_loss

    cfg, params = model.config, model.params
    h = cfg.hidden_dim
    dirs = ("f", "b") if cfg.bidirectional else ("f",)
    grads = {n: np.zeros_like(params[n]) for n in model.param_names}
    total = 0.0
    for x, y in batch:
        current = np.atleast_2d(np.asarray(x, dtype=np.float64))
        caches = []
        for layer in range(cfg.layers):
            per_dir, outs = {}, []
            for d in dirs:
                hid, per_dir[d] = _loop_direction(params, h, current if d == "f" else current[::-1], layer, d)
                outs.append(hid if d == "f" else hid[::-1])
            caches.append(per_dir)
            current = np.concatenate(outs, axis=1)
        if cfg.head == "regression":
            out = (current @ params["head_W"])[:, 0] + params["head_b"][0]
            loss, d_out = ccc_loss(out, y, eps=cfg.loss_eps)
            grads["head_W"] += current.T @ d_out[:, None]
            grads["head_b"] += np.array([d_out.sum()])
            d_feat = d_out[:, None] @ params["head_W"].T
        else:
            pooled = current.mean(axis=0)
            loss, d_out = cross_entropy_loss(pooled @ params["head_W"] + params["head_b"], y)
            grads["head_W"] += np.outer(pooled, d_out)
            grads["head_b"] += d_out
            d_feat = np.tile(params["head_W"] @ d_out / current.shape[0], (current.shape[0], 1))
        total += loss
        for layer in range(cfg.layers - 1, -1, -1):
            d_next = 0.0
            for di, d in enumerate(dirs):
                d_hid = d_feat[:, di * h : (di + 1) * h]
                if d == "f":
                    d_next = d_next + _loop_back_direction(params, h, d_hid, layer, d, caches[layer][d], grads)
                else:
                    dx = _loop_back_direction(params, h, d_hid[::-1], layer, d, caches[layer][d], grads)
                    d_next = d_next + dx[::-1]
            d_feat = d_next
    n = len(batch)
    for name in grads:
        grads[name] /= n
    loss_value = total / n
    for name in model.param_names:
        if cfg.l2_penalty > 0.0 and not name.endswith("_b"):
            loss_value += cfg.l2_penalty * float(np.sum(params[name] ** 2))
            grads[name] += 2.0 * cfg.l2_penalty * params[name]
    return loss_value, grads


def per_array_loss_and_grads(model, batch) -> tuple[float, dict]:
    """``SequenceModel.loss_and_grads`` with one gradient array per parameter name.

    The package's gradient bookkeeping before the flat buffer: the model's own
    forward and backward passes fill a dict of zeroed arrays, each is divided
    by the batch size, and the L2 term is added name by name.
    """
    from affectfuse.seqmodel import ccc_loss, cross_entropy_loss

    cfg = model.config
    outs, cache = model.forward_batch([x for x, _ in batch])
    losses = [
        ccc_loss(out, y, eps=cfg.loss_eps) if cfg.head == "regression" else cross_entropy_loss(out, y)
        for out, (_, y) in zip(outs, batch)
    ]
    grads = {n: np.zeros_like(model.params[n]) for n in model.param_names}
    model.backward([d_out for _, d_out in losses], cache, grads)
    n = len(batch)
    for name in grads:
        grads[name] /= n
    loss_value = sum(loss for loss, _ in losses) / n
    if cfg.l2_penalty > 0.0:
        for name in model.param_names:
            if name.endswith("_b"):
                continue
            loss_value += cfg.l2_penalty * float(np.sum(model.params[name] ** 2))
            grads[name] += 2.0 * cfg.l2_penalty * model.params[name]
    return loss_value, grads


class PerArrayAdam:
    """``seqmodel.Adam`` one parameter array at a time, with dict moments.

    The package's first optimizer: each step builds new moment and parameter
    arrays per name. The new parameters are copied into the model's arrays
    rather than rebinding them, so the model keeps its own layout.
    """

    def __init__(self, model, lr: float | None = None):
        self.lr = float(lr if lr is not None else model.config.learning_rate)
        self.beta1 = 0.9
        self.beta2 = 0.999
        self.eps = 1e-8
        self.t = 0
        self.m = {n: np.zeros_like(p) for n, p in model.params.items()}
        self.v = {n: np.zeros_like(p) for n, p in model.params.items()}

    def step(self, model, grads: dict) -> None:
        self.t += 1
        corr1 = 1.0 - self.beta1**self.t
        corr2 = 1.0 - self.beta2**self.t
        for n in model.param_names:
            g = grads[n]
            self.m[n] = self.beta1 * self.m[n] + (1.0 - self.beta1) * g
            self.v[n] = self.beta2 * self.v[n] + (1.0 - self.beta2) * g * g
            model.params[n][...] = model.params[n] - self.lr * (self.m[n] / corr1) / (
                np.sqrt(self.v[n] / corr2) + self.eps
            )


def full_table_dtw(a, b, band=None):
    """``align.dtw`` over the full (n+1) x (m+1) table, one band row at a time.

    The package's first DTW, kept as a reference for the banded table: each
    row recomputes its local costs and prefix sums, and every cell outside
    the band stays in the table as inf.
    """
    from affectfuse.align import WarpPath
    from affectfuse.errors import ParameterError

    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.size == 0 or b.size == 0:
        raise ParameterError("dtw inputs must be non-empty 1-d sequences")
    n, m = a.size, b.size
    if band is not None:
        band = int(band)
        if band < 0:
            raise ParameterError("band must be >= 0")
        if band < abs(n - m):
            raise ParameterError(
                f"band {band} < length difference {abs(n - m)}: no feasible path"
            )

    dmat = np.full((n + 1, m + 1), np.inf)
    dmat[0, 0] = 0.0
    for i in range(1, n + 1):
        jlo = 1 if band is None else max(1, i - band)
        jhi = m if band is None else min(m, i + band)
        if jlo > jhi:
            continue
        crow = np.abs(a[i - 1] - b[jlo - 1 : jhi])
        best_prev = np.minimum(dmat[i - 1, jlo - 1 : jhi], dmat[i - 1, jlo : jhi + 1])
        scan = np.cumsum(crow)
        dmat[i, jlo : jhi + 1] = scan + np.minimum.accumulate(best_prev + crow - scan)
    if not np.isfinite(dmat[n, m]):
        raise ParameterError("no feasible warp path under the given band")

    i, j = n, m
    rev = [(i - 1, j - 1)]
    while i > 1 or j > 1:
        options = (
            (dmat[i - 1, j - 1], i - 1, j - 1),
            (dmat[i - 1, j], i - 1, j),
            (dmat[i, j - 1], i, j - 1),
        )
        best = min(opt[0] for opt in options)
        tol = 1e-9 * max(1.0, abs(best))
        for val, pi, pj in options:
            if val <= best + tol:
                i, j = pi, pj
                break
        rev.append((i - 1, j - 1))
    pairs = np.asarray(rev[::-1], dtype=np.int64)
    cost = float(np.abs(a[pairs[:, 0]] - b[pairs[:, 1]]).sum())
    return WarpPath(pairs=pairs, cost=cost)


def warp_row(values, path, grid_length: int) -> np.ndarray:
    """One trace projected onto the reference grid of its ``WarpPath``.

    The package's first warp, one row at a time: the source samples the path
    maps to a reference index are summed in path order and divided by their
    count.
    """
    src, ref = path.pairs[:, 0], path.pairs[:, 1]
    totals = np.bincount(ref, weights=np.asarray(values, dtype=np.float64)[src], minlength=grid_length)
    return totals / np.bincount(ref, minlength=grid_length)


def loop_align_to_labels(features, label_timestamps_ms) -> np.ndarray:
    """``dataio.align_to_labels`` one label step at a time, in Python integers.

    The package's first alignment, kept as the reference for the searchsorted
    one: each frame step takes the nearer of the frames just before and at or
    after it (the earlier one on a tie) when twice its distance is at most the
    step; each word step takes the first word whose span holds it.
    """
    from affectfuse.dataio import uniform_step_ms

    label_ts = np.asarray(label_timestamps_ms, dtype=np.int64)
    step = int(round(uniform_step_ms(label_ts)))
    out = np.zeros((label_ts.size, features.n_features))
    starts = features.timestamps_ms
    for row, t in enumerate(label_ts.tolist()):
        if features.end_timestamps_ms is not None:
            hits = np.nonzero((starts <= t) & (t <= features.end_timestamps_ms))[0]
            if hits.size:
                out[row] = features.matrix[hits[0]]
            continue
        idx = int(np.searchsorted(starts, t))
        best, best_dist = -1, None
        for j in (idx - 1, idx):
            if 0 <= j < starts.size:
                d = abs(int(starts[j]) - t)
                if best_dist is None or d < best_dist:
                    best, best_dist = j, d
        if best >= 0 and best_dist * 2 <= step:
            out[row] = features.matrix[best]
    return out
