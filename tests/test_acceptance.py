"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  The heavy artifacts (the 24-setting x 4-seed sweeps and the planted
synthetic studies) are built once per session in module fixtures; everything
downstream asserts at the stated tolerances.
"""

import copy
import itertools
import json
import math
import os
import time

import numpy as np
import pytest

from subjmap.cli import main as cli_main
from subjmap.datasets import (
    FirstSecondHalf,
    MultiSubjectDataset,
    SubjectHoldout,
    TimestepFraction,
    _take_all,
    center_subjects,
    half_moons,
    rotate_subjects,
    split,
    synth_group_dataset,
)
from subjmap.evaluation import (
    _heldout_mse,
    circle_fit,
    circular_correlation,
    polar_angles,
    probe_classify,
    subject_weight_pca,
)
from subjmap.linalg import SeededRng
from subjmap.maps import ParamRegime, param_count
from subjmap.models import Model, ModelSpec, build_model
from subjmap.maps import GroupMap
from subjmap.models import DenseLayer
from subjmap.stats import bh_fdr, group_difference_pipeline, welch_t_test
from subjmap.training import (
    TrainConfig,
    finetune_subjects,
    grad_check,
    hyperparameter_sweep,
    parameter_digest,
    train,
)

SWEEP_SEEDS = [11, 12, 13, 14]
WORKERS = min(8, os.cpu_count() or 1)


def verdict(n, ok, text):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {text}", flush=True)
    assert ok, f"criterion {n}: {text}"


# --- shared artifacts ---------------------------------------------------------

@pytest.fixture(scope="module")
def halfmoons_world():
    samples, labels = half_moons(1000, 0.1, 42)
    dataset, truth = rotate_subjects(samples, labels, 100,
                                     seed=SeededRng(42).derive("rotations").seed)
    dataset = center_subjects(dataset)
    train_set, val_set, test_set = split(dataset, TimestepFraction(0.8, 0.1, seed=42))
    return dataset, truth, train_set, val_set, test_set


@pytest.fixture(scope="module")
def halfmoons_sweeps(halfmoons_world):
    dataset, truth, train_set, val_set, test_set = halfmoons_world
    settings = [
        {"first_layer_width": width, "trunk_widths": trunk, "lr": lr, "epochs": epochs}
        for width, trunk, lr, epochs in itertools.product(
            (8, 16), ((16,), (32, 16)), (0.003, 0.01, 0.03), (30, 60))
    ]
    assert len(settings) == 24
    base_config = TrainConfig(batch_size=512, early_stop_patience=15, seed=0)
    results = {}
    started = time.perf_counter()
    for variant in ("group", "subject", "decomposed"):
        spec = ModelSpec(variant=variant, objective="classifier", input_size=2,
                         first_layer_width=8, latent_size=2, n_subjects=100,
                         trunk_widths=(16,), n_classes=2)
        results[variant] = hyperparameter_sweep(
            spec, base_config, settings, SWEEP_SEEDS, train_set, val_set, test_set,
            metric="val_accuracy", workers=WORKERS)
    elapsed = time.perf_counter() - started
    return settings, results, elapsed


@pytest.fixture(scope="module")
def finetune_study():
    """Per-seed group baselines and fine-tuned held-out MSE across fractions."""
    fractions = (0.01, 0.05, 0.25, 0.5)
    t_total, n_vox, style = 200, 60, 6
    per_seed = []
    for seed in range(5):
        data, _ = synth_group_dataset(48, t_total, n_vox, style, 1.0,
                                      seed=500 + seed, subject_scale=0.8)
        seen, _, unseen = split(data, SubjectHoldout(8, seed=5))
        seen_tr = MultiSubjectDataset(
            [r.take(np.arange(0, 160)) for r in seen.subjects], {})
        seen_va = MultiSubjectDataset(
            [r.take(np.arange(160, t_total)) for r in seen.subjects], {})
        models = {}
        for variant in ("decomposed", "group"):
            spec = ModelSpec(variant=variant, objective="autoencoder", input_size=n_vox,
                             first_layer_width=style, latent_size=2,
                             n_subjects=seen.n_subjects, trunk_widths=(16,))
            model = build_model(spec, seed=31 + seed, subject_ids=seen.subject_ids)
            model, _ = train(model, seen_tr, seen_va,
                             TrainConfig(lr=0.01, epochs=100, batch_size=128,
                                         seed=7 + seed, early_stop_patience=25))
            models[variant] = model

        eval_rows = np.arange(t_total // 2, t_total)
        baseline = _heldout_mse(models["group"], unseen, eval_rows)
        mses = {}
        digests = None
        for fraction in fractions:
            model = copy.deepcopy(models["decomposed"])
            before = parameter_digest(model)
            # fractions are of the full timeseries, fitted from the leading rows of its lead half
            lead = _take_all(unseen, np.arange(math.ceil(fraction * 2 * (t_total // 2))))
            result = finetune_subjects(
                model, lead,
                TrainConfig(optimizer="adam", lr=0.005, epochs=200, batch_size=64,
                            seed=900 + seed, early_stop_patience=None))
            after = parameter_digest(model, tuple(int(i) for i in result.new_indices))
            mses[fraction] = _heldout_mse(model, unseen, eval_rows)
            if fraction == fractions[0]:
                digests = (before, after)
        per_seed.append({"baseline": baseline, "mses": mses, "digests": digests})
    return fractions, per_seed


def _train_decomposed_autoencoder(data, width, seed):
    tr, _, va = split(data, FirstSecondHalf())
    spec = ModelSpec(variant="decomposed", objective="autoencoder",
                     input_size=data.n_features, first_layer_width=width, latent_size=2,
                     n_subjects=data.n_subjects, trunk_widths=(16,))
    model = build_model(spec, seed=seed, subject_ids=data.subject_ids)
    model, _ = train(model, tr, va, TrainConfig(lr=0.01, epochs=60, batch_size=128,
                                                seed=seed, early_stop_patience=20))
    return model


# --- criteria -----------------------------------------------------------------

def test_criterion_1_simulation_separation(halfmoons_sweeps):
    settings, results, elapsed = halfmoons_sweeps
    test_means = {v: results[v].winner_test_mean() for v in results}
    full_tables = all(len(results[v].rows) == 96 for v in results)
    ok = (full_tables
          and test_means["subject"] >= 0.95 and test_means["decomposed"] >= 0.95
          and test_means["group"] <= 0.75 and elapsed < 1800)
    verdict(1, ok,
            f"24x4 sweep (96 rows each: {full_tables}): "
            f"subject={test_means['subject']:.3f} (>=0.95), "
            f"decomposed={test_means['decomposed']:.3f} (>=0.95), "
            f"group={test_means['group']:.3f} (<=0.75), wall={elapsed:.0f}s (<1800s)")


def test_criterion_2_circle_recovery(halfmoons_world, halfmoons_sweeps):
    dataset, truth, train_set, val_set, _ = halfmoons_world
    settings, results, _ = halfmoons_sweeps
    winner = settings[results["decomposed"].winner_index]
    spec = ModelSpec(variant="decomposed", objective="classifier", input_size=2,
                     first_layer_width=winner["first_layer_width"], latent_size=2,
                     n_subjects=100, trunk_widths=winner["trunk_widths"], n_classes=2)
    model = build_model(spec, SeededRng(SWEEP_SEEDS[0]).derive("init").seed,
                        subject_ids=dataset.subject_ids)
    config = TrainConfig(batch_size=512, early_stop_patience=15, seed=SWEEP_SEEDS[0],
                         lr=winner["lr"], epochs=winner["epochs"])
    model, _ = train(model, train_set, val_set, config)

    coords = subject_weight_pca(model.enc_map.s)
    fit = circle_fit(coords)
    corr = circular_correlation(polar_angles(coords, fit.center), truth.angles)

    # threshold sanity against the Monte-Carlo noise oracle: 10% radial noise on a
    # true circle must sit safely inside the 0.15 bound
    t = np.linspace(0, 2 * math.pi, 150, endpoint=False)
    noisy_r = 1.0 + SeededRng(77).normal(150, scale=0.1)
    oracle = circle_fit(np.column_stack([noisy_r * np.cos(t), noisy_r * np.sin(t)]))
    ok = fit.residual_ratio < 0.15 and abs(corr) > 0.8 and oracle.residual_ratio < 0.15
    verdict(2, ok,
            f"circle residual/radius={fit.residual_ratio:.4f} (<0.15), "
            f"|circular corr|={abs(corr):.3f} (>0.8), "
            f"noise-oracle ratio={oracle.residual_ratio:.4f}")


def test_criterion_3_paramcount_exactness():
    large = ParamRegime(150_000, 10, 1200)
    wholebrain = ParamRegime(441_100, 256, 16)
    subject = param_count("subject", large, both_sides=True)
    decomposed = param_count("decomposed", large, both_sides=True)
    group = param_count("group", large, both_sides=True)
    wb_subject = param_count("subject", wholebrain, both_sides=True)
    ok = (subject == 3_600_000_000
          and decomposed == 3_024_200
          and group == 3_000_000
          and wb_subject == 3_613_491_200
          and abs(wb_subject - 3.61e9) / 3.61e9 < 0.01)
    verdict(3, ok,
            f"counts x2: subject={subject:,}, decomposed={decomposed:,}, "
            f"group={group:,}, wholebrain subject={wb_subject:,} (~3.61e9)")


def test_criterion_4_gradient_correctness():
    worst = {}
    rng = SeededRng(99)
    x = rng.normal((6, 6))
    ids = np.array([0, 1, 2, 0, 1, 2])
    labels = np.array([0, 1, 0, 1, 0, 1])
    for variant in ("group", "subject", "decomposed"):
        for objective in ("classifier", "autoencoder", "vae"):
            spec = ModelSpec(variant=variant, objective=objective, input_size=6,
                             first_layer_width=4, latent_size=2, n_subjects=3,
                             trunk_widths=(5,),
                             n_classes=2 if objective == "classifier" else None)
            model = build_model(spec, seed=13)
            err = grad_check(model, x, ids, labels if objective == "classifier" else None)
            worst[f"{variant}/{objective}"] = err

    # pure-linear quadratic case (exact central differences, large h kills roundoff)
    n = 4
    lin_rng = SeededRng(6)
    linear = Model(
        spec=ModelSpec(variant="group", objective="autoencoder", input_size=n,
                       first_layer_width=n, latent_size=n, n_subjects=1),
        subject_ids=("s0",),
        enc_map=GroupMap(lin_rng.normal((n, n)) * 0.3, np.zeros(n)),
        enc_layers=[DenseLayer(lin_rng.normal((n, n)) * 0.3, np.zeros(n), "linear")],
        dec_layers=[DenseLayer(lin_rng.normal((n, n)) * 0.3, np.zeros(n), "linear")],
        dec_map=GroupMap(lin_rng.normal((n, n)) * 0.3, np.zeros(n)),
    )
    quad_err = grad_check(linear, lin_rng.normal((5, n)), np.zeros(5, dtype=int), h=1e-3)

    ok = max(worst.values()) < 1e-4 and quad_err < 1e-9
    verdict(4, ok,
            f"max rel err over 9 variant/objective pairs={max(worst.values()):.2e} (<1e-4), "
            f"linear-quadratic={quad_err:.2e} (<1e-9)")


def _spearman(xs, ys):
    rx = np.argsort(np.argsort(xs)).astype(float)
    ry = np.argsort(np.argsort(ys)).astype(float)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx * ry).sum() / math.sqrt((rx * rx).sum() * (ry * ry).sum()))


def test_criterion_5_finetune_generalization(finetune_study):
    fractions, per_seed = finetune_study
    below = all(entry["mses"][f] < entry["baseline"]
                for entry in per_seed for f in fractions)
    means = [float(np.mean([entry["mses"][f] for entry in per_seed])) for f in fractions]
    rho = _spearman(list(fractions), means)
    ok = below and rho <= -0.8
    verdict(5, ok,
            f"all fine-tuned MSE below group baseline in 5 seeds: {below}; "
            f"fraction means={['%.4f' % m for m in means]}, spearman={rho:.2f} (<=-0.8)")


def test_criterion_6_frozen_weight_contract(finetune_study):
    _, per_seed = finetune_study
    ok = all(entry["digests"][0] == entry["digests"][1] for entry in per_seed)
    verdict(6, ok, "SHA-256 of all non-new-subject parameters unchanged by fine-tuning "
                   f"in {len(per_seed)}/5 seeds")


def test_criterion_7_subject_weight_separability():
    # full-rank trajectories keep every style dimension observable, so the
    # learned scaling rows identify the planted structure tightly
    accs = {}
    for effect in (2.0, 0.0):
        data, truth = synth_group_dataset(80, 200, 60, 6, effect, seed=11,
                                          subject_scale=0.3, trajectory_rank=6)
        tr, _, va = split(data, FirstSecondHalf())
        spec = ModelSpec(variant="decomposed", objective="autoencoder", input_size=60,
                         first_layer_width=6, latent_size=3, n_subjects=80,
                         trunk_widths=(16,))
        model = build_model(spec, seed=21, subject_ids=data.subject_ids)
        model, _ = train(model, tr, va, TrainConfig(lr=0.01, epochs=60, batch_size=128,
                                                    seed=21, early_stop_patience=20))
        probe = probe_classify(model.enc_map.s, truth.groups, n_folds=20, seed=0,
                               label_name="group")
        accs[effect] = probe.mean
    ok = accs[2.0] >= 0.75 and 0.4 <= accs[0.0] <= 0.6
    verdict(7, ok,
            f"20-fold probe on learned subject weights: effect=2 -> {accs[2.0]:.3f} (>=0.75), "
            f"effect=0 -> {accs[0.0]:.3f} (in [0.4, 0.6])")


def test_criterion_8_group_difference_pipeline():
    # planted effect: at least one source rejected, localized on the planted direction
    data, truth = synth_group_dataset(80, 160, 40, 6, 2.0, seed=42, subject_scale=0.3)
    model = _train_decomposed_autoencoder(data, width=10, seed=3)
    report, ica = group_difference_pipeline(model, data, k=8, q=0.05, seed=9)
    corrs = [abs(np.corrcoef(ica.sources[j], truth.direction_voxels)[0, 1])
             for j in np.flatnonzero(report.rejected)]
    planted_ok = report.n_rejected >= 1 and corrs and max(corrs) > 0.5

    # null calibration over 20 seeds
    bound = math.ceil(0.05 * 8) + 1
    within = 0
    counts = []
    for seed in range(20):
        null_data, _ = synth_group_dataset(40, 120, 40, 6, 0.0, seed=1000 + seed,
                                           subject_scale=0.3)
        tr, _, va = split(null_data, FirstSecondHalf())
        spec = ModelSpec(variant="decomposed", objective="autoencoder", input_size=40,
                         first_layer_width=10, latent_size=2, n_subjects=40,
                         trunk_widths=(16,))
        null_model = build_model(spec, seed=seed, subject_ids=null_data.subject_ids)
        null_model, _ = train(null_model, tr, va,
                              TrainConfig(lr=0.01, epochs=30, batch_size=128, seed=seed,
                                          early_stop_patience=10))
        null_report, _ = group_difference_pipeline(null_model, null_data, k=8, q=0.05,
                                                   seed=seed)
        counts.append(null_report.n_rejected)
        within += null_report.n_rejected <= bound
    null_ok = within >= 18
    ok = planted_ok and null_ok
    verdict(8, ok,
            f"planted: {report.n_rejected} rejected, max |corr|="
            f"{max(corrs) if corrs else 0:.3f} (>0.5); "
            f"null: within bound {bound} in {within}/20 seeds (>=18)")


def test_criterion_9_statistical_kernels():
    adjusted, reject = bh_fdr([0.01, 0.02, 0.03, 0.04], q=0.05)
    bh_ok = np.allclose(adjusted, [0.04, 0.04, 0.04, 0.04], atol=0) and reject.all()

    rng = SeededRng(2024)
    hits = 0
    for _ in range(1000):
        _, p = welch_t_test(rng.normal(50), rng.normal(50))
        hits += p < 0.05
    rate = hits / 1000
    welch_ok = 0.03 <= rate <= 0.07
    verdict(9, bh_ok and welch_ok,
            f"BH adjusted==[0.04]*4 exactly: {bh_ok}; "
            f"welch null false-positive rate={rate:.3f} (in [0.03, 0.07])")


def test_criterion_10_determinism(tmp_path):
    data_cfg = tmp_path / "sim.json"
    data_cfg.write_text(json.dumps({
        "seed": 21,
        "data": {"generator": "rotated_half_moons", "n_samples": 120, "n_subjects": 8}}))
    sim_dir = tmp_path / "sim"
    assert cli_main(["simulate", "--config", str(data_cfg), "--out", str(sim_dir)]) == 0

    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({
        "seed": 21,
        "data": {"path": str(sim_dir / "data.smds"),
                 "split": {"scheme": "timestep_fraction", "test_fraction": 0.5,
                           "val_fraction": 0.2}},
        "model": {"variant": "decomposed", "objective": "classifier",
                  "first_layer_width": 8, "latent_size": 2, "trunk_widths": [8],
                  "n_classes": 2},
        "train": {"lr": 0.01, "epochs": 8, "batch_size": 64}}))

    metric_blocks = []
    for run in ("a", "b"):
        run_dir = tmp_path / f"train_{run}"
        assert cli_main(["train", "--config", str(train_cfg), "--out", str(run_dir)]) == 0
        eval_cfg = tmp_path / f"eval_{run}.json"
        eval_cfg.write_text(json.dumps({
            "seed": 21,
            "data": {"path": str(sim_dir / "data.smds"),
                     "split": {"scheme": "timestep_fraction", "test_fraction": 0.5,
                               "val_fraction": 0.2}},
            "checkpoint": str(run_dir / "model.ckpt"),
            "eval": {"recon": True, "subject_circle": True,
                     "angles_path": str(sim_dir / "angles.csv")}}))
        eval_dir = tmp_path / f"eval_{run}"
        assert cli_main(["evaluate", "--config", str(eval_cfg), "--out", str(eval_dir)]) == 0
        train_metrics = json.loads((run_dir / "results.json").read_text())["metrics"]
        eval_metrics = json.loads((eval_dir / "results.json").read_text())["metrics"]
        metric_blocks.append(json.dumps([train_metrics, eval_metrics], sort_keys=True))

    ok = metric_blocks[0] == metric_blocks[1]
    verdict(10, ok, "simulate+train+evaluate metrics reproduce bit-for-bit across reruns")
