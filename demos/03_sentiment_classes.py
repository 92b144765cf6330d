"""Turning continuous gold standards into five sentiment classes.

Continuous traces are graded per segment: each segment becomes a vector of
time-series features (quantiles, peaks, relative position of the largest
value, longest streaks, and so on), the vectors are standardized and
projected to five principal components, and a clustering model in that
space assigns the class. A validation report checks the silhouette score
and that no class is smaller than 5% of the data.

This demo builds five recognizable behaviour archetypes so the clusters
have a readable meaning.

    python3 demos/03_sentiment_classes.py
"""

from __future__ import annotations

import numpy as np

from affectfuse.discretize import (
    assign_nearest,
    feature_names,
    fit_class_model,
    segment_features,
    validate_clusters,
)

rng = np.random.default_rng(3)
t = np.arange(60, dtype=np.float64)


def spike_train() -> np.ndarray:
    x = np.full(60, -0.5)
    x[::10] = 2.0
    return x


ARCHETYPES = {
    "fast alternator": lambda: np.sin(t / 1.5),
    "flat low": lambda: np.full(60, -1.2),
    "flat high": lambda: np.full(60, 1.2),
    "step up": lambda: np.where(t < 30, -0.9, 0.9),
    "spike train": spike_train,
}

rows = []
truth = []
for label, (name, make) in enumerate(ARCHETYPES.items()):
    for _ in range(12):
        values = make() + 0.05 * rng.standard_normal(60)
        rows.append(segment_features(values, "arousal"))
        truth.append(label)
matrix = np.vstack(rows)
truth = np.array(truth)

print("=== segment features ===")
print(f"{matrix.shape[0]} segments x {matrix.shape[1]} arousal features:")
print(" ", ", ".join(feature_names("arousal")))

model = fit_class_model(matrix, "arousal", "kmeans", n_classes=5, seed=3)
projected = model.project(matrix)
assignments = assign_nearest(model.centres, projected)

print("\n=== clusters in the 5-d projection ===")
for label, name in enumerate(ARCHETYPES):
    classes = np.unique(assignments[truth == label])
    print(f"  {name:15s} -> class {', '.join(str(c) for c in classes)}")

report = validate_clusters(projected, assignments, n_classes=5)
print("\n=== validation ===")
print(f"  silhouette     {report.silhouette:.4f}")
print(f"  class counts   {list(report.class_counts)}")
print(f"  min-share >=5% {report.min_share_ok}")

# valence uses a wider feature vector (adds mean, extra quantiles, the
# share of reoccurring values); same call, different target
print(f"\nvalence features for comparison: {len(feature_names('valence'))} "
      f"({', '.join(feature_names('valence')[:6])}, ...)")
