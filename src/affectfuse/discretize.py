"""Gold standards to sentiment classes: segment features, PCA, clustering, checks."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataio import read_model_file, write_model_file
from .errors import DegenerateInputError, NumericError, ParameterError

__all__ = [
    "AROUSAL_FEATURES",
    "VALENCE_FEATURES",
    "feature_names",
    "segment_features",
    "PcaBasis",
    "fit_pca",
    "pca_project",
    "kmeans",
    "gmm_em",
    "ClusterModel",
    "fit_class_model",
    "assign_nearest",
    "ClusterReport",
    "validate_clusters",
    "save_class_model",
    "load_class_model",
]

AROUSAL_FEATURES = (
    "median",
    "std",
    "q10",
    "q90",
    "rel_energy",
    "rel_sum_of_changes",
    "rel_peaks",
    "rel_longest_streak_below_mean",
    "rel_longest_streak_above_mean",
    "rel_count_below_mean",
)

VALENCE_FEATURES = AROUSAL_FEATURES + (
    "mean",
    "q5",
    "q25",
    "q33",
    "q66",
    "q75",
    "q95",
    "reoccurring_share",
)


def feature_names(target: str) -> tuple[str, ...]:
    """Canonical feature order for a target; valence extends the arousal set."""
    if target == "arousal":
        return AROUSAL_FEATURES
    if target == "valence":
        return VALENCE_FEATURES
    raise ParameterError(f"unknown discretization target {target!r}")


def _longest_run(mask: np.ndarray) -> int:
    best = run = 0
    for flag in mask:
        run = run + 1 if flag else 0
        best = max(best, run)
    return best


def segment_features(values, target: str) -> np.ndarray:
    """The feature vector of a gold-standard slice, in :func:`feature_names` order.

    Rate-like features are divided by the segment length so segments of
    different durations stay comparable; the sum of changes is divided by
    ``length - 1`` (the number of steps). Streak and count features compare
    strictly against the segment mean; peaks are strict local maxima of
    support 1. The reoccurring share is the fraction of samples whose value
    occurs more than once.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise DegenerateInputError(f"segment_features needs a 1-d segment of length >= 2, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ParameterError("segment contains non-finite values")
    names = feature_names(target)
    n = x.size
    mean = x.mean()
    below = x < mean
    above = x > mean
    quantiles = [k for k in names if k[0] == "q"]  # "q10" is the 0.10 quantile; one call sorts x once for all
    feats = {
        **dict(zip(quantiles, np.quantile(x, [int(k[1:]) / 100 for k in quantiles]).tolist())),
        "median": float(np.median(x)),
        "std": float(x.std()),
        "rel_energy": float(np.sum(x**2) / n),
        "rel_sum_of_changes": float(np.sum(np.abs(np.diff(x))) / (n - 1)),
        "rel_peaks": float(np.sum((x[1:-1] > x[:-2]) & (x[1:-1] > x[2:])) / n),
        "rel_longest_streak_below_mean": _longest_run(below) / n,
        "rel_longest_streak_above_mean": _longest_run(above) / n,
        "rel_count_below_mean": float(below.sum() / n),
    }
    if target == "valence":
        _, counts = np.unique(x, return_counts=True)
        feats.update(mean=float(mean), reoccurring_share=float(counts[counts > 1].sum() / n))
    return np.asarray([feats[k] for k in names])


# ---------------------------------------------------------------------------
# PCA


@dataclass(frozen=True)
class PcaBasis:
    """Top eigenvectors of the sample covariance, rows = components."""

    components: np.ndarray  # (k, d)
    eigenvalues: np.ndarray  # (k,)
    explained_ratio: np.ndarray  # (k,)


def fit_pca(matrix: np.ndarray, n_components: int = 5) -> PcaBasis:
    """Principal axes of a feature matrix.

    Eigendecomposition of the sample covariance (1/(N-1)); components are
    sorted by descending eigenvalue and sign-fixed so each component's
    largest-magnitude coordinate is positive. Raises if the covariance rank
    is below ``n_components``, naming the deficient rank.
    """
    m = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    n, d = m.shape
    if n < 6:
        raise DegenerateInputError(f"fit_pca needs at least 6 rows, got {n}")
    if n_components < 1 or n_components > d:
        raise ParameterError(f"n_components must be in [1, {d}]")
    cov = np.cov(m, rowvar=False, ddof=1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    tol = max(float(evals[0]), 0.0) * 1e-10 + 1e-12
    rank = int(np.sum(evals > tol))
    if rank < n_components:
        raise DegenerateInputError(
            f"feature covariance rank {rank} is below the requested {n_components} components"
        )
    comps = evecs[:, :n_components].T.copy()
    for row in comps:
        pivot = int(np.argmax(np.abs(row)))
        if row[pivot] < 0:
            row *= -1.0
    top = evals[:n_components]
    return PcaBasis(components=comps, eigenvalues=top, explained_ratio=top / evals.sum())


def pca_project(basis: PcaBasis, matrix: np.ndarray) -> np.ndarray:
    return np.atleast_2d(np.asarray(matrix, dtype=np.float64)) @ basis.components.T


# ---------------------------------------------------------------------------
# clustering


# k-means: seeded k-means++ restarts, and Lloyd rounds per restart at most
KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 300
# EM: the log-likelihood gain it stops below, its round cap and its covariance ridge
EM_TOL = 1e-6
EM_MAX_ITER = 200
EM_REG = 1e-6


def _kmeans_pp(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centres = np.empty((k, x.shape[1]))
    centres[0] = x[int(rng.integers(n))]
    d2 = np.sum((x - centres[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            centres[i] = x[int(rng.integers(n))]
            continue
        r = rng.uniform(0.0, total)
        centres[i] = x[min(int(np.searchsorted(np.cumsum(d2), r)), n - 1)]
        d2 = np.minimum(d2, np.sum((x - centres[i]) ** 2, axis=1))
    return centres


def _assign(x: np.ndarray, centres: np.ndarray) -> np.ndarray:
    d2 = ((x[:, None, :] - centres[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)  # argmin keeps the lowest index on ties


def _inertia(x: np.ndarray, centres: np.ndarray, labels: np.ndarray) -> float:
    return float(np.sum((x - centres[labels]) ** 2))


def kmeans(x: np.ndarray, k: int, seed: int = 101) -> tuple[np.ndarray, np.ndarray, float]:
    """Lloyd's k-means with k-means++ seeding and ``KMEANS_RESTARTS`` seeded restarts.

    The restart with the lowest inertia wins; exact ties keep the earlier
    restart index. Within a run the inertia must never increase, which is
    asserted. Returns ``(centres, labels, inertia)``.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    if k < 1:
        raise ParameterError("k must be >= 1")
    n_distinct = np.unique(x, axis=0).shape[0]
    if n_distinct < k:
        raise DegenerateInputError(f"need at least {k} distinct points, got {n_distinct}")
    best: tuple[float, np.ndarray, np.ndarray] | None = None
    for restart in range(KMEANS_RESTARTS):
        rng = np.random.default_rng([int(seed), restart])
        centres = _kmeans_pp(x, k, rng)
        labels = _assign(x, centres)
        prev_inertia = np.inf
        for _ in range(KMEANS_MAX_ITER):
            for c in range(k):
                mask = labels == c
                if mask.any():
                    centres[c] = x[mask].mean(axis=0)
                else:
                    # deterministic empty-cluster fix: grab the point farthest
                    # from its current centre
                    far = int(np.argmax(np.sum((x - centres[labels]) ** 2, axis=1)))
                    centres[c] = x[far]
                    labels[far] = c
            new_labels = _assign(x, centres)
            inertia = _inertia(x, centres, new_labels)
            if inertia > prev_inertia + 1e-9 * max(1.0, prev_inertia if np.isfinite(prev_inertia) else 1.0):
                raise NumericError("k-means inertia increased within a Lloyd run")
            prev_inertia = inertia
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
        inertia = _inertia(x, centres, labels)
        if best is None or inertia < best[0]:
            best = (inertia, centres.copy(), labels.copy())
    assert best is not None
    return best[1], best[2], best[0]


def _log_gauss(x: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    d = x.shape[1]
    chol = np.linalg.cholesky(cov)
    diff = x - mean
    z = np.linalg.solve(chol, diff.T)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (d * np.log(2.0 * np.pi) + logdet + np.sum(z**2, axis=0))


def gmm_em(x: np.ndarray, k: int, seed: int = 101) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[float]]:
    """Full-covariance Gaussian mixture fitted by EM, initialised from k-means.

    Stops once the total log-likelihood gain drops below ``EM_TOL`` or after
    ``EM_MAX_ITER`` iterations. Covariances carry an ``EM_REG`` ridge on the
    diagonal for stability; the per-iteration log-likelihood must be
    non-decreasing (up to float slack) or :class:`NumericError` is raised.

    Returns ``(means, covariances, mixture_weights, log_likelihood_path)``.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n, d = x.shape
    if n < k:
        raise DegenerateInputError(f"need at least {k} points for {k} components, got {n}")
    means, labels, _ = kmeans(x, k, seed=seed)
    weights = np.maximum(np.bincount(labels, minlength=k) / n, 1e-9)
    weights /= weights.sum()
    global_cov = np.cov(x, rowvar=False, ddof=0) if n > 1 else np.eye(d)
    global_cov = np.atleast_2d(global_cov) + EM_REG * np.eye(d)
    covs = np.empty((k, d, d))
    for c in range(k):
        pts = x[labels == c]
        if pts.shape[0] > 1:
            covs[c] = np.atleast_2d(np.cov(pts, rowvar=False, ddof=0)) + EM_REG * np.eye(d)
        else:
            covs[c] = global_cov
    log_likelihoods: list[float] = []
    for _ in range(EM_MAX_ITER):
        log_prob = np.stack(
            [np.log(weights[c]) + _log_gauss(x, means[c], covs[c]) for c in range(k)], axis=1
        )
        peak = log_prob.max(axis=1, keepdims=True)
        log_norm = peak[:, 0] + np.log(np.exp(log_prob - peak).sum(axis=1))
        ll = float(log_norm.sum())
        if log_likelihoods and ll < log_likelihoods[-1] - 1e-9 * max(1.0, abs(log_likelihoods[-1])):
            raise NumericError("EM log-likelihood decreased")
        gain = ll - log_likelihoods[-1] if log_likelihoods else np.inf
        log_likelihoods.append(ll)
        if gain < EM_TOL:
            break
        resp = np.exp(log_prob - log_norm[:, None])
        nk = resp.sum(axis=0) + 1e-12
        weights = nk / nk.sum()
        means = (resp.T @ x) / nk[:, None]
        for c in range(k):
            diff = x - means[c]
            covs[c] = (resp[:, c][:, None] * diff).T @ diff / nk[c] + EM_REG * np.eye(d)
    return means, covs, weights, log_likelihoods


# ---------------------------------------------------------------------------
# the composed class model

# principal components the class model clusters in
CLASS_MODEL_COMPONENTS = 5


def _standardized(matrix, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """``matrix`` centred on ``mean`` and scaled by ``std``; a zero std divides by 1."""
    return (np.atleast_2d(np.asarray(matrix, dtype=np.float64)) - mean) / np.where(std > 0, std, 1.0)


@dataclass(frozen=True)
class ClusterModel:
    """Train-split feature mean and std, PCA basis and cluster centres."""

    target: str
    method: str
    mean: np.ndarray
    std: np.ndarray
    basis: PcaBasis
    centres: np.ndarray
    seed: int
    extras: dict = field(default_factory=dict)

    def project(self, matrix) -> np.ndarray:
        """Feature vectors standardized with the train statistics, in the model's component space."""
        return pca_project(self.basis, _standardized(matrix, self.mean, self.std))


def fit_class_model(
    train_matrix: np.ndarray, target: str, method: str, n_classes: int = 5, seed: int = 101
) -> ClusterModel:
    """Fit the full discretization pipeline on training feature vectors.

    ``kmeans`` centres are the Lloyd centres; ``gmm`` centres are the
    component means, with the full parameters and the log-likelihood path
    in ``extras``.
    """
    if method not in ("kmeans", "gmm"):
        raise ParameterError(f"unknown clustering method {method!r}; expected 'kmeans' or 'gmm'")
    m = np.atleast_2d(np.asarray(train_matrix, dtype=np.float64))
    with warnings.catch_warnings():  # numpy warns of an empty matrix, which fit_pca rejects
        warnings.simplefilter("ignore", RuntimeWarning)
        mean, std = m.mean(axis=0), m.std(axis=0)
    scaled = _standardized(m, mean, std)
    basis = fit_pca(scaled, n_components=CLASS_MODEL_COMPONENTS)
    pts = pca_project(basis, scaled)
    if method == "kmeans":
        centres, _, inertia = kmeans(pts, n_classes, seed=seed)
        extras = {"inertia": inertia}
    else:
        centres, covs, weights, lls = gmm_em(pts, n_classes, seed=seed)
        extras = {
            "covariances": covs,
            "mixture_weights": weights,
            "log_likelihoods": lls,
            "converged": len(lls) < EM_MAX_ITER,
        }
    return ClusterModel(
        target=target, method=method, mean=mean, std=std, basis=basis, centres=centres, seed=seed, extras=extras
    )


def assign_nearest(centres, points) -> np.ndarray:
    """Class of each projected point: nearest centre by Euclidean distance.

    For a Gaussian-mixture model this is deliberately the nearest component
    mean, not the maximum-posterior component. Ties pick the lowest class
    index.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return _assign(pts, np.asarray(centres, dtype=np.float64))


@dataclass(frozen=True)
class ClusterReport:
    """Cluster quality summary: silhouette, class sizes, minimum-share check."""

    silhouette: float
    class_counts: tuple[int, ...]
    min_share_ok: bool


# float64 elements in one block of pairwise differences (8 MB)
SILHOUETTE_BLOCK = 1 << 20
# the smallest class share that validate_clusters reports as ok
MIN_SHARE = 0.05


def validate_clusters(points, assignments, n_classes: int = 5) -> ClusterReport:
    """Mean silhouette and class-share sanity of an assignment.

    Points in singleton clusters contribute silhouette 0. ``min_share_ok``
    requires the smallest class to hold at least ``MIN_SHARE`` of all points.
    At least two non-empty classes are required.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    labels = np.asarray(assignments, dtype=np.int64)
    if labels.ndim != 1 or labels.size != pts.shape[0]:
        raise ParameterError("assignments must be 1-d and match the points")
    if labels.size == 0:
        raise ParameterError("validate_clusters needs at least one point")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ParameterError(f"assignments outside [0, {n_classes - 1}]")
    counts = np.bincount(labels, minlength=n_classes)
    if np.count_nonzero(counts) < 2:
        raise DegenerateInputError("silhouette needs at least 2 non-empty classes")
    # per-class distance sums, one block of rows at a time: memory stays at
    # about SILHOUETTE_BLOCK floats whatever the number of points
    n, rows = labels.size, max(1, SILHOUETTE_BLOCK // pts.size)
    onehot = (labels[:, None] == np.arange(n_classes)).astype(np.float64)
    sums = np.empty((n, n_classes))
    for lo in range(0, n, rows):
        diff = pts[lo : lo + rows, None, :] - pts[None, :, :]
        np.square(diff, out=diff)
        sums[lo : lo + rows] = np.sqrt(diff.sum(axis=2)) @ onehot
    own = counts[labels]
    a = sums[np.arange(n), labels] / np.maximum(own - 1, 1)
    means = np.where(counts > 0, sums / np.maximum(counts, 1), np.inf)
    means[np.arange(n), labels] = np.inf
    b = means.min(axis=1)  # mean distance to the nearest other non-empty class
    denom = np.maximum(a, b)
    keep = (own > 1) & (denom > 0.0)  # singletons and all-zero distances score 0
    scores = np.where(keep, b - a, 0.0) / np.where(keep, denom, 1.0)
    min_ok = bool(counts.min() >= MIN_SHARE * labels.size) if counts.min() > 0 else False
    return ClusterReport(
        silhouette=float(scores.mean()),
        class_counts=tuple(int(c) for c in counts),
        min_share_ok=min_ok,
    )


# ---------------------------------------------------------------------------
# persistence


def save_class_model(path: Path | str, model: ClusterModel) -> None:
    """Persist a class model as deterministic JSON."""
    payload = {
        "target": model.target,
        "method": model.method,
        "seed": model.seed,
        # version-1 files nest the train statistics under "standardizer"
        "standardizer": {"mean": model.mean.tolist(), "std": model.std.tolist()},
        "basis": {
            "components": model.basis.components.tolist(),
            "eigenvalues": model.basis.eigenvalues.tolist(),
            "explained_ratio": model.basis.explained_ratio.tolist(),
        },
        "centres": model.centres.tolist(),
        "extras": {
            k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in model.extras.items()
        },
    }
    write_model_file(path, "class_model", payload)


def load_class_model(path: Path | str) -> ClusterModel:
    """The class model of a :func:`save_class_model` file; a bad file is a ParameterError naming it."""
    return read_model_file(path, "class_model", _class_model_from)


def _class_model_from(payload: dict) -> ClusterModel:
    return ClusterModel(
        target=payload["target"],
        method=payload["method"],
        mean=np.asarray(payload["standardizer"]["mean"]),
        std=np.asarray(payload["standardizer"]["std"]),
        basis=PcaBasis(
            components=np.asarray(payload["basis"]["components"]),
            eigenvalues=np.asarray(payload["basis"]["eigenvalues"]),
            explained_ratio=np.asarray(payload["basis"]["explained_ratio"]),
        ),
        centres=np.asarray(payload["centres"]),
        seed=int(payload["seed"]),
        extras=payload["extras"],
    )
