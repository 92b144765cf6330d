"""Training the LSTM baseline on synthetic recordings.

A small regression run end to end: generate a few recordings that share
one feature extractor, then let ``fit`` window the train sequences, train an
LSTM with the CCC loss, early-stop on the development score and predict
every recording with the restored best model. Everything is plain numpy underneath; the gradients come from
backpropagation through time and are finite-difference checked in the
test suite.

    python3 demos/04_train_baseline.py
"""

from __future__ import annotations

import numpy as np

from affectfuse.core import standardize_values
from affectfuse.dataio import WindowSpec
from affectfuse.seqmodel import RegressorConfig, evaluate, fit
from affectfuse.synth import SynthConfig, gen_features, gen_latent

BASE_SEED = 40

# six recordings; the feature extractor (mix_seed) is shared so the devel
# recordings are solvable with what the train recordings teach
inputs, targets = {}, {}
for i in range(6):
    cfg = SynthConfig(seed=BASE_SEED + i, duration_s=120.0, feature_dim=6)
    latent = gen_latent(cfg)
    inputs[f"rec_{i}"] = gen_features(cfg, latent, mix_seed=BASE_SEED)
    targets[f"rec_{i}"] = standardize_values(latent)[0]
splits = {"train": ("rec_0", "rec_1", "rec_2", "rec_3"), "devel": ("rec_4", "rec_5")}
spec = WindowSpec(window=40, hop=20)

print("=== data ===")
print(f"4 train recordings cut into windows of up to {spec.window} steps, every {spec.hop} steps")
print(f"2 devel recordings scored on their full {inputs['rec_4'].shape[0]}-step sequences")

config = RegressorConfig(
    input_dim=6,
    hidden_dim=24,
    layers=1,
    learning_rate=2e-3,
    batch_size=8,
    max_epochs=40,
    patience=10,
    seed=BASE_SEED,
)
# windows under 2 steps are dropped: the CCC loss cannot score them
model, history, outputs = fit(config, inputs, targets, splits, spec)
print(f"\n=== model ===\n{config.layers}-layer LSTM, hidden {config.hidden_dim}, "
      f"{model.param_count()} parameters, CCC loss")

print("\n=== training ===")
for epoch, loss, metric in history.rows[:3]:
    print(f"  epoch {epoch:3d}: train loss {loss:.4f}, devel CCC {metric:.4f}")
print("  ...")
for epoch, loss, metric in history.rows[-2:]:
    print(f"  epoch {epoch:3d}: train loss {loss:.4f}, devel CCC {metric:.4f}")
print(f"ran {len(history.rows)} of {config.max_epochs} epochs; best epoch {history.best_epoch} "
      f"with devel CCC {history.best_metric():.4f}")

# the best snapshot is restored automatically, so evaluate() reproduces it
devel_set = [(inputs[rec], targets[rec]) for rec in splits["devel"]]
print(f"restored model devel CCC: {evaluate(model, devel_set):.4f}")

pred = outputs["devel"]["rec_5"]
gold = targets["rec_5"]
print(f"\nrec_5 prediction range [{pred.min():+.2f}, {pred.max():+.2f}] "
      f"vs gold [{gold.min():+.2f}, {gold.max():+.2f}]")
