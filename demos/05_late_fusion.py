"""Late fusion: a second model on top of two prediction streams.

Two modality models rarely make the same mistakes, so a small sequence
model trained on their stacked per-step predictions usually matches or
beats the better stream. Here the two streams are simulated as noisy,
differently distorted views of the target, which is what per-modality
predictions look like in practice.

    python3 demos/05_late_fusion.py
"""

from __future__ import annotations

import numpy as np

from affectfuse.core import standardize_values
from affectfuse.dataio import WindowSpec
from affectfuse.latefusion import REGRESSION_FUSION
from affectfuse.metrics import ccc
from affectfuse.seqmodel import RegressorConfig, fit
from affectfuse.synth import SynthConfig, gen_latent

rng = np.random.default_rng(5)

gold = {}
stream_a = {}
stream_b = {}
for i in range(8):
    latent = gen_latent(SynthConfig(seed=500 + i, duration_s=100.0))
    target = standardize_values(latent)[0]
    rec = f"rec_{i}"
    gold[rec] = target
    # stream a is sluggish (moving average), stream b overshoots
    kernel = np.ones(9) / 9.0
    stream_a[rec] = np.convolve(target, kernel, mode="same") + 0.25 * rng.standard_normal(target.size)
    stream_b[rec] = np.tanh(1.8 * target) + 0.25 * rng.standard_normal(target.size)

splits = {
    "train": ("rec_0", "rec_1", "rec_2", "rec_3", "rec_4"),
    "devel": ("rec_5", "rec_6"),
    "test": ("rec_7",),
}

print("=== the streams on devel ===")
for name, stream in (("a (sluggish)", stream_a), ("b (overshooting)", stream_b)):
    pooled_pred = np.concatenate([stream[r] for r in splits["devel"]])
    pooled_gold = np.concatenate([gold[r] for r in splits["devel"]])
    print(f"  stream {name}: CCC {ccc(pooled_pred, pooled_gold):.4f}")

# the fusion model's input: both streams stacked per recording, one column each
streams = {"modal_a": stream_a, "modal_b": stream_b}
inputs = {r: np.stack([stream_a[r], stream_b[r]], axis=1) for r in gold}
config = RegressorConfig(input_dim=2, **REGRESSION_FUSION, seed=5, max_epochs=150, patience=150, batch_size=2)
model, history, outputs = fit(
    config,
    inputs,
    gold,  # test gold is present here but never required
    splits,
    WindowSpec(window=60, hop=30),
)

print("\n=== fusion model ===")
print(f"inputs: {model.config.input_dim} streams in order {tuple(streams)}")
print(f"hidden {model.config.hidden_dim}, lr {model.config.learning_rate}, "
      f"best epoch {history.best_epoch}")
print(f"devel CCC {history.best_metric():.4f}")

pooled_pred = np.concatenate([outputs["test"][r] for r in splits["test"]])
pooled_gold = np.concatenate([gold[r] for r in splits["test"]])
print(f"test CCC {ccc(pooled_pred, pooled_gold):.4f} (never seen during training)")
