"""Acceptance suite: one test per contract, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines;
each test also asserts its condition, so the suite is green exactly when
every line says PASS. Several checks carry runtime budgets that are part of
the contract and are asserted alongside the numeric bars.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from affectfuse.align import dtw, multi_align
from affectfuse.cli import main as cli_main
from affectfuse.core import savgol_smooth, standardize_values
from affectfuse.dataio import (
    FeatureSequence,
    WindowSpec,
    align_to_labels,
    read_physio_csv,
    window,
    write_annotation_csv,
)
from affectfuse.discretize import fit_pca, gmm_em, kmeans, validate_clusters
from affectfuse.fuse import PhysioConfig, physio_fuse, raaw
from affectfuse.metrics import ccc, pearson
from affectfuse.seqmodel import RegressorConfig, SequenceModel, train
from affectfuse.synth import SynthConfig, gen_eda, gen_features, gen_latent, gen_raters

from _oracles import adjusted_rand_index, brute_dtw_cost, direct_ccc, direct_pearson

# acceptance 10 runs the digest tool's command table and compares its two runs with the tool's hasher
_spec = importlib.util.spec_from_file_location(
    "refactor_digest", Path(__file__).resolve().parents[1] / "tools" / "refactor_digest.py"
)
DIGEST_TOOL = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(DIGEST_TOOL)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# 1: CCC and Pearson against the direct formulas


def test_criterion_01_metric_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(20210001)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 501))
        x = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3.0), size=n)
        y = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3.0), size=n)
        worst = max(
            worst,
            abs(ccc(x, y) - direct_ccc(x, y)),
            abs(pearson(x, y) - direct_pearson(x, y)),
        )
    identity = ccc(x, x) == 1.0
    reversal = ccc(np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0])) == -1.0
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and identity and reversal and elapsed < 5.0
    _report(
        1,
        "metric oracle",
        ok,
        f"max deviation {worst:.2e} over 1000 pairs, identity={identity}, "
        f"reversal={reversal}, {elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 2: DTW dynamic program against brute-force path enumeration


def test_criterion_02_dtw_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(20210002)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        a = rng.integers(-5, 6, size=n).astype(np.float64)
        b = rng.integers(-5, 6, size=m).astype(np.float64)
        band = max(n, m)
        if dtw(a, b, band=band).cost != brute_dtw_cost(a, b, band):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 30.0
    _report(2, "dtw exactness", ok, f"{mismatches}/200 mismatches, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 3: fused gold recovers a lagged latent better than the naive mean


def test_criterion_03_lag_recovery():
    start = time.perf_counter()
    gold_scores = []
    naive_scores = []
    for seed in range(1, 21):
        config = SynthConfig(seed=seed)  # 5 raters, 2 Hz, 300 s, lag <= 2 s, sigma 0.05
        latent = gen_latent(config)
        raters, _ = gen_raters(config, latent)
        target = standardize_values(latent)[0]
        gold_scores.append(ccc(raaw(raters).values, target))
        naive_scores.append(ccc(raters.values.mean(axis=0), target))
    med_gold = float(np.median(gold_scores))
    med_naive = float(np.median(naive_scores))
    elapsed = time.perf_counter() - start
    ok = med_gold >= med_naive and med_gold >= 0.90 and elapsed < 120.0
    _report(
        3,
        "lag recovery",
        ok,
        f"median gold CCC {med_gold:.4f} vs naive mean {med_naive:.4f} "
        f"over 20 seeds, {elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 4: per-rater positive affine maps leave the gold standard unchanged


def test_criterion_04_affine_invariance():
    start = time.perf_counter()
    worst = 0.0
    for i in range(10):
        config = SynthConfig(seed=400 + i, duration_s=60.0, n_raters=4)
        latent = gen_latent(config)
        raters, _ = gen_raters(config, latent)
        rng = np.random.default_rng(9000 + i)
        mapped = replace(
            raters, values=[rng.uniform(0.2, 3.0) * row + rng.uniform(-2.0, 2.0) for row in raters.values]
        )
        worst = max(worst, float(np.max(np.abs(raaw(mapped).values - raaw(raters).values))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9
    _report(4, "affine invariance", ok, f"max deviation {worst:.2e} over 10 corpora, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 5: physiology substitution set size, removal rule, smoothing fidelity


def test_criterion_05_physio_contract(tmp_path):
    start = time.perf_counter()
    set_ok = True
    removal_ok = True
    for i in range(5):
        config = SynthConfig(seed=500 + i, duration_s=60.0, n_raters=3)
        latent = gen_latent(config)
        raters, _ = gen_raters(config, latent)
        write_annotation_csv(tmp_path / "eda.csv", gen_eda(config, latent))
        eda = read_physio_csv(tmp_path / "eda.csv", raters.timestamps_ms)
        gold = physio_fuse(raters, eda, PhysioConfig())
        ids = gold.metadata["rater_ids"]
        set_ok &= len(ids) == 3 and len(gold.weights) == 3
        set_ok &= any(r.startswith("physio:") for r in ids)
        set_ok &= gold.metadata["removed_rater"] not in ids
        # independent ranking: standardize + align + EWE by the definition
        aligned = multi_align(np.stack([standardize_values(row)[0] for row in raters.values]))
        raw = []
        for k in range(len(raters)):
            others = np.delete(aligned.warped, k, axis=0).mean(axis=0)
            raw.append(max(0.0, direct_pearson(aligned.warped[k], others)))
        removal_ok &= int(np.argmin(raw)) == gold.metadata["removed_index"]
    t = np.arange(400) / 50.0
    cubic = 0.3 * t**3 - 1.2 * t**2 + 0.5 * t + 2.0
    sg_err = float(np.max(np.abs(savgol_smooth(cubic, 26, 3) - cubic)))
    elapsed = time.perf_counter() - start
    ok = set_ok and removal_ok and sg_err < 1e-9
    _report(
        5,
        "physio contract",
        ok,
        f"set size ok={set_ok}, removal matches brute ranking={removal_ok}, "
        f"window-26 cubic error {sg_err:.2e}, {elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 6: clustering quality and validation rules


def test_criterion_06_clustering():
    start = time.perf_counter()
    centres = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    ari_ok = True
    for seed in range(10):
        rng = np.random.default_rng(600 + seed)
        points = np.vstack([c + 0.1 * rng.standard_normal((50, 2)) for c in centres])
        truth = np.repeat(np.arange(3), 50)
        _, labels, _ = kmeans(points, 3, seed=seed)
        ari_ok &= adjusted_rand_index(labels, truth) == 1.0

    # random full-rank mixtures; the covariance ridge only guarantees
    # monotone likelihood away from rank-deficient data
    monotone_ok = True
    for seed in range(50):
        rng = np.random.default_rng(6600 + seed)
        k = int(rng.integers(2, 4))
        x = np.vstack(
            [
                rng.uniform(-6.0, 6.0, size=2)
                + rng.uniform(0.3, 1.0) * rng.standard_normal((int(rng.integers(15, 30)), 2))
                for _ in range(k)
            ]
        )
        _, _, _, lls = gmm_em(x, k, seed=seed)
        monotone_ok &= bool(np.all(np.diff(lls) >= -1e-9))

    pairs = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
    silc = validate_clusters(pairs, np.array([0, 0, 1, 1]), n_classes=2).silhouette
    # by hand: a = 0.1 throughout, b = 10.05 outer / 9.95 inner
    hand = float(np.mean([1 - 0.1 / 10.05, 1 - 0.1 / 9.95, 1 - 0.1 / 9.95, 1 - 0.1 / 10.05]))
    silc_ok = silc > 0.95 and abs(silc - hand) < 1e-12

    geometry = np.random.default_rng(66).normal(size=(100, 2))
    at_share = validate_clusters(
        geometry, np.repeat(np.arange(5), [5, 20, 25, 25, 25])
    ).min_share_ok
    below_share = validate_clusters(
        geometry, np.repeat(np.arange(5), [4, 21, 25, 25, 25])
    ).min_share_ok
    share_ok = at_share is True and below_share is False

    elapsed = time.perf_counter() - start
    ok = ari_ok and monotone_ok and silc_ok and share_ok
    _report(
        6,
        "clustering",
        ok,
        f"k-means ARI 1.0 x10 seeds={ari_ok}, GMM monotone x50={monotone_ok}, "
        f"two-pair silhouette {silc:.4f}, 5% boundary={share_ok}, {elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 7: PCA orthonormality and eigenvalue agreement


def test_criterion_07_pca():
    start = time.perf_counter()
    worst_ortho = 0.0
    worst_eval = 0.0
    for seed in range(20):
        rng = np.random.default_rng(700 + seed)
        n = int(rng.integers(20, 60))
        x = rng.normal(size=(n, 8)) @ rng.uniform(-1.5, 1.5, size=(8, 8)) + rng.uniform(-2, 2, 8)
        basis = fit_pca(x, 8)
        gram = basis.components @ basis.components.T
        worst_ortho = max(worst_ortho, float(np.max(np.abs(gram - np.eye(8)))))
        direct = np.sort(np.linalg.eigvalsh(np.cov(x, rowvar=False, ddof=1)))[::-1]
        worst_eval = max(worst_eval, float(np.max(np.abs(basis.eigenvalues - direct))))
    elapsed = time.perf_counter() - start
    ok = worst_ortho < 1e-8 and worst_eval < 1e-8
    _report(
        7,
        "pca",
        ok,
        f"orthonormality error {worst_ortho:.2e}, eigenvalue error {worst_eval:.2e} "
        f"over 20 datasets, {elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 8: analytic gradients against central finite differences, every coordinate


def _max_fd_error(model: SequenceModel, batch: list[tuple]) -> float:
    delta = 1e-5
    _, analytic = model.loss_and_grads(batch)
    flat = model.theta.copy()
    fd = np.empty_like(analytic)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += delta
        model.theta[...] = bumped
        up = model.loss_and_grads(batch)[0]
        bumped[i] -= 2 * delta
        model.theta[...] = bumped
        down = model.loss_and_grads(batch)[0]
        fd[i] = (up - down) / (2 * delta)
    model.theta[...] = flat
    denom = np.maximum(np.abs(fd) + np.abs(analytic), 1e-8)
    return float(np.max(np.abs(fd - analytic) / denom))


def test_criterion_08_gradient_check():
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    seqs = [rng.normal(size=(7, 3)), rng.normal(size=(9, 3))]
    reg = SequenceModel(
        RegressorConfig(input_dim=3, hidden_dim=4, layers=2, bidirectional=True, seed=8)
    )
    err_reg = _max_fd_error(reg, [(x, rng.normal(size=x.shape[0])) for x in seqs])
    cls = SequenceModel(
        RegressorConfig(
            input_dim=3, hidden_dim=4, layers=2, bidirectional=True, head="classification", seed=8
        )
    )
    err_cls = _max_fd_error(cls, [(seqs[0], 2), (seqs[1], 4)])
    elapsed = time.perf_counter() - start
    coords = reg.param_count() + cls.param_count()
    ok = err_reg < 1e-4 and err_cls < 1e-4 and elapsed < 60.0
    _report(
        8,
        "gradient check",
        ok,
        f"max relative error {err_reg:.2e} regression / {err_cls:.2e} classification "
        f"over all {coords} coordinates, {elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 9: a single recording is overfit to CCC 0.95 within budget


def test_criterion_09_overfit():
    start = time.perf_counter()
    synth = SynthConfig(seed=909, duration_s=149.5, feature_dim=8)  # 300 samples at 2 Hz
    latent = gen_latent(synth)
    features = gen_features(synth, latent)
    target = standardize_values(latent)[0]
    assert features.shape == (300, 8)
    model = SequenceModel(
        RegressorConfig(
            input_dim=8,
            hidden_dim=64,
            layers=1,
            learning_rate=1e-3,
            batch_size=1,
            max_epochs=500,
            patience=500,
            seed=909,
        )
    )
    history = train(model, [(features, target)], [(features, target)])
    best = max(row[2] for row in history.rows)
    elapsed = time.perf_counter() - start
    ok = best >= 0.95 and len(history.rows) <= 500 and elapsed < 120.0
    _report(
        9,
        "overfit sanity",
        ok,
        f"train CCC {best:.4f} (first >=0.95 at epoch "
        f"{next((r[0] for r in history.rows if r[2] >= 0.95), None)}), {elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 10: the CLI pipeline end to end, learnability, and byte-identical reruns


def _cli(args: list[str]) -> dict[str, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli_main(args)
    assert rc == 0, f"exit {rc} from {args[:1]}"
    values = {}
    for line in out.getvalue().splitlines():
        if "=" in line:
            key, _, val = line.partition("=")
            values[key] = val
    return values


def _acc10(root: Path) -> list[dict[str, str]]:
    """Each ``ACC10`` command of ``tools/refactor_digest.py`` run in-process under ``root``: its key=value lines."""
    return [_cli([a.replace("{R}", str(root)) for a in argv]) for argv in DIGEST_TOOL.ACC10]


def test_criterion_10_end_to_end(tmp_path):
    start = time.perf_counter()
    runs = _acc10(tmp_path / "run_a")
    _acc10(tmp_path / "run_b")
    first = {Path(vals["out"]).name: float(vals["devel_ccc"]) for vals in runs if "devel_ccc" in vals}
    first["eval"] = float(runs[-1]["ccc"])
    best_stream = max(first["modal_a"], first["modal_b"])
    learnable = first["fused"] >= best_stream - 0.01
    eval_consistent = abs(first["eval"] - first["fused"]) < 1e-6
    identical = DIGEST_TOOL.file_digests(tmp_path / "run_a") == DIGEST_TOOL.file_digests(tmp_path / "run_b")
    elapsed = time.perf_counter() - start
    ok = learnable and eval_consistent and identical
    _report(
        10,
        "end-to-end pipeline",
        ok,
        f"streams {first['modal_a']:.4f}/{first['modal_b']:.4f}, fused {first['fused']:.4f} "
        f"(bar {best_stream - 0.01:.4f}), rerun byte-identical={identical}, {elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 11: windowing is lossless, label alignment keeps the grid length


def test_criterion_11_windowing_alignment():
    start = time.perf_counter()
    rng = np.random.default_rng(1111)
    lossless = True
    for _ in range(100):
        n = int(rng.integers(1, 400))
        w = int(rng.integers(1, 60))
        h = int(rng.integers(1, w + 1))
        d = int(rng.integers(1, 4))
        x = rng.normal(size=(n, d)) if rng.random() < 0.5 else rng.normal(size=n)
        rebuilt = np.full(x.shape, np.nan)
        for s, chunk in window(x, WindowSpec(window=w, hop=h)):
            lossless &= bool(np.array_equal(chunk, x[s : s + chunk.shape[0]]))
            rebuilt[s : s + chunk.shape[0]] = chunk
        lossless &= bool(np.array_equal(rebuilt, x))

    lengths = True
    for _ in range(100):
        n_lab = int(rng.integers(2, 80))
        step = int(rng.choice([200, 250, 500]))
        grid = np.arange(n_lab) * step
        n_feat = int(rng.integers(1, 50))
        d = int(rng.integers(1, 5))
        starts = np.sort(rng.choice(n_lab * step + 5000, size=n_feat, replace=False))
        if rng.random() < 0.5:
            fs = FeatureSequence("rec", "x", rng.normal(size=(n_feat, d)), starts)
        else:
            spans = rng.integers(0, 1200, size=n_feat)
            fs = FeatureSequence("rec", "w", rng.normal(size=(n_feat, d)), starts, starts + spans)
        lengths &= align_to_labels(fs, grid).shape == (n_lab, d)

    elapsed = time.perf_counter() - start
    ok = lossless and lengths
    _report(
        11,
        "windowing and alignment",
        ok,
        f"lossless windows x100={lossless}, grid-length alignment x100={lengths}, {elapsed:.1f}s",
    )
    assert ok
