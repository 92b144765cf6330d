"""Replacing the least-trusted annotator with skin conductance.

Annotation-only fusion keeps every rater, however little the rater agrees
with the rest. The physiology variant ranks the annotators, drops the one
with the lowest fusion weight, and substitutes a processed electrodermal
activity (EDA) signal as a pseudo-rater: its 1 kHz file read at the
annotation timestamps, Savitzky-Golay smoothed, standardized, then fused like
anyone else.

    python3 demos/02_physio_substitution.py
"""

from __future__ import annotations

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from affectfuse.core import standardize_values
from affectfuse.dataio import read_physio_csv, write_annotation_csv
from affectfuse.fuse import PhysioConfig, physio_fuse, raaw
from affectfuse.metrics import ccc
from affectfuse.synth import SynthConfig, gen_eda, gen_latent, gen_raters

config = SynthConfig(seed=21, duration_s=90.0, n_raters=3)
latent = gen_latent(config)
raters, _ = gen_raters(config, latent)
eda = gen_eda(config, latent)

# sabotage one rater so the ranking has an obvious loser
rng = np.random.default_rng(0)
rows = raters.values.copy()
rows[1] = 0.3 * rows[1, ::-1] + 0.7 * rng.standard_normal(raters.n_samples)
raters = replace(raters, values=rows)

print("=== annotator ranking ===")
ranking = raaw(raters)
for rater_id, weight in zip(ranking.metadata["rater_ids"], ranking.weights):
    print(f"  {rater_id}: fusion weight {weight:.3f}")

print(f"\nEDA signal: {eda.values.size} samples at {eda.sample_rate_hz:.0f} Hz, "
      f"all non-negative (min {eda.values.min():.2f})")

with tempfile.TemporaryDirectory() as tmp:  # the EDA is read from its file, at the annotation timestamps
    eda_path = Path(tmp) / "eda.csv"
    write_annotation_csv(eda_path, eda)
    gold = physio_fuse(raters, read_physio_csv(eda_path, raters.timestamps_ms), PhysioConfig())
meta = gold.metadata
print("\n=== substituted fusion ===")
print(f"  removed annotator: {meta['removed_rater']} (index {meta['removed_index']})")
print(f"  fused set: {', '.join(meta['rater_ids'])}")
print(f"  EDA processing: Savitzky-Golay window {meta['sg_window']} order {meta['sg_polyorder']}, "
      f"read at {meta['target_hz']:.0f} Hz")
print("  weights:", ", ".join(f"{r}={w:.3f}" for r, w in zip(meta["rater_ids"], gold.weights)))

target = standardize_values(latent)[0]
print("\nhow the variants track the latent signal:")
print(f"  annotators only     CCC {ccc(ranking.values, target):.4f}")
print(f"  with EDA pseudo-rater CCC {ccc(gold.values, target):.4f}")
