"""From disagreeing raters to one gold standard.

Three simulated raters watch the same recording. Each one reacts with a
different delay, uses a private value scale, and adds noise, which is how
real continuous annotation traces disagree. A plain average blurs the
delayed copies; the fusion pipeline (standardize, align, weight, fuse)
recovers the underlying signal. Run it and read along:

    python3 demos/01_fuse_gold_standard.py
"""

from __future__ import annotations

import numpy as np

from affectfuse.core import standardize_values
from affectfuse.fuse import ewe_weights, raaw
from affectfuse.metrics import ccc
from affectfuse.synth import SynthConfig, gen_latent, gen_raters

config = SynthConfig(seed=10, duration_s=120.0, n_raters=3, max_lag_s=2.0, noise_sigma=0.08)
latent = gen_latent(config)
raters, lags = gen_raters(config, latent)
target = standardize_values(latent)[0]

print("=== one recording, three raters ===")
print(f"{config.duration_s:.0f} s at {config.rate_hz:.0f} Hz -> {config.n_samples} samples per trace")
for rater_id, row, lag in zip(raters.rater_ids, raters.values, lags):
    score = ccc(standardize_values(row)[0], target)
    print(f"  rater {rater_id}: lag {lag:+d} samples ({lag / config.rate_hz:+.1f} s), "
          f"CCC vs latent {score:.4f}")

# the naive baseline: average the raw traces as they are
naive = raters.values.mean(axis=0)
print("\nplain mean of the raw traces:")
print(f"  CCC vs latent {ccc(naive, target):.4f}  (the lags pull the average apart)")

# the pipeline: per-rater standardization, iterative alignment, EWE fusion
gold = raaw(raters)
print("\nfused gold standard:")
print(f"  agreement (mean pairwise CC) {gold.metadata['pre_agreement_mean']:.4f} before alignment")
print(f"  agreement {gold.agreement_mean:.4f} after "
      f"{gold.metadata['iterations']} alignment rounds (stop reason: {gold.metadata['stop_reason']})")
print("  rater weights:", ", ".join(
    f"{r}={w:.3f}" for r, w in zip(gold.metadata["rater_ids"], gold.weights)))
print(f"  CCC vs latent {ccc(gold.values, target):.4f}")

# the weights alone, on a toy example: a rater anti-correlated with the
# others is cut to zero before normalization
toy = [np.array([0.0, 1.0, 2.0, 4.0]), np.array([0.0, 1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0, 0.0])]
print("\nEWE weights for two agreeing traces and one reversed trace:",
      np.round(ewe_weights(toy), 3))
