"""Config-driven experiment runner.

Commands: simulate, train, sweep, finetune, evaluate, analyze, paramcount.
Each reads a strict JSON config (unknown keys are rejected with their full
path), resolves defaults, derives every random stream from the single global
seed via tagged SHA-256 derivation, and writes a results.json whose metrics
block reproduces bit-for-bit on re-runs with the same config and seed.

Exit codes: 0 success, 1 config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import checkpoint
from .datasets import (
    FirstSecondHalf,
    MultiSubjectDataset,
    SubjectData,
    SubjectHoldout,
    TimestepFraction,
    _common_length,
    center_subjects,
    half_moons,
    load_dataset,
    rotate_subjects,
    save_dataset,
    split,
    stacked,
    synth_group_dataset,
)
from .errors import ConfigError, SubjmapError
from .evaluation import (
    _heldout_mse,
    circle_fit,
    circular_correlation,
    polar_angles,
    probe_classify,
    recon_improvement,
    subject_weight_pca,
)
from .linalg import SeededRng
from .maps import ParamRegime, param_count
from .models import ModelSpec, build_model, encode, loss
from .stats import group_difference_pipeline
from .training import (
    TrainConfig,
    canonical_digest,
    evaluate_loss,
    finetune_subjects,
    hyperparameter_sweep,
    parameter_digest,
    train,
)

_REQUIRED = object()


def _resolve(user, defaults, path=""):
    """Merge a user config section over defaults, rejecting unknown keys."""
    if not isinstance(user, dict):
        raise ConfigError(f"config section {path or '<root>'} must be an object")
    for key in user:
        if key not in defaults:
            raise ConfigError(f"unknown config key {path + '.' if path else ''}{key}")
    out = {}
    for key, default in defaults.items():
        where = f"{path}.{key}" if path else key
        if isinstance(default, dict):
            out[key] = _resolve(user.get(key, {}), default, where)
        else:
            value = user.get(key, default)
            if value is _REQUIRED:
                raise ConfigError(f"missing required config key {where}")
            out[key] = value
    return out


_DATA_SECTION = {
    "path": _REQUIRED,
    "format": "binary",
    "center": False,
    "split": {
        "scheme": "timestep_fraction",
        "test_fraction": 0.8,
        "val_fraction": 0.1,
        "n_holdout": 0,
    },
}

_MODEL_SECTION = {
    "variant": _REQUIRED,
    "objective": _REQUIRED,
    "first_layer_width": _REQUIRED,
    "latent_size": _REQUIRED,
    "trunk_widths": [16],
    "n_classes": None,
    "beta": 1.0,
}

_TRAIN_SECTION = {
    "lr": 1e-3,
    "optimizer": "adam",
    "beta1": 0.9,
    "beta2": 0.999,
    "eps": 1e-8,
    "epochs": 100,
    "batch_size": 64,
    "orth_every": 1,
    "early_stop_patience": 20,
    "grad_clip": None,
}

SCHEMAS = {
    "simulate": {
        "seed": 0,
        "data": {
            "generator": "rotated_half_moons",
            "n_samples": 1000,
            "noise": 0.1,
            "sample_seed": 42,
            "n_subjects": 100,
            "center": True,
            "n_timesteps": 200,
            "n_features": 60,
            "latent_dim": 6,
            "group_effect": 0.0,
            "noise_level": 0.05,
            "subject_scale": 0.3,
            "trajectory_rank": 2,
        },
    },
    "train": {
        "seed": 0,
        "data": _DATA_SECTION,
        "model": _MODEL_SECTION,
        "train": _TRAIN_SECTION,
    },
    "sweep": {
        "seed": 0,
        "data": _DATA_SECTION,
        "model": _MODEL_SECTION,
        "train": _TRAIN_SECTION,
        "sweep": {
            "axes": _REQUIRED,
            "seeds": [11, 12, 13, 14],
            "metric": "val_accuracy",
            "workers": 0,
        },
    },
    "finetune": {
        "seed": 0,
        "data": {"path": _REQUIRED, "format": "binary", "center": False},
        "checkpoint": _REQUIRED,
        "baseline_checkpoint": None,
        "finetune": {
            "fraction": 0.01,
            "lr": 5e-3,
            "optimizer": "adam",
            "epochs": 200,
            "batch_size": 64,
            "holdout_fraction": 0.5,
        },
    },
    "evaluate": {
        "seed": 0,
        "data": _DATA_SECTION,
        "checkpoint": _REQUIRED,
        "eval": {
            "recon": True,
            "baseline_checkpoint": None,
            "probe_embeddings": False,
            "probe_subject_weights": False,
            "probe_folds": 5,
            "subject_circle": False,
            "angles_path": None,
        },
    },
    "analyze": {
        "seed": 0,
        "data": {"path": _REQUIRED, "format": "binary", "center": False},
        "checkpoint": _REQUIRED,
        "analysis": {
            "k": 8,
            "q": 0.05,
            "grid_min": -3.0,
            "grid_max": 3.0,
            "grid_points": 11,
            "max_iter": 500,
            "tol": 1e-6,
        },
    },
    "paramcount": {
        "seed": 0,
        "paramcount": {
            "input_size": _REQUIRED,
            "hidden_size": _REQUIRED,
            "n_subjects": _REQUIRED,
            "both_sides": True,
        },
    },
}


def _load_config(path: str, command: str, seed_override, out_override) -> tuple[dict, Path]:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    schema = dict(SCHEMAS[command])
    schema["out_dir"] = "."
    resolved = _resolve(raw, schema)
    if seed_override is not None:
        resolved["seed"] = seed_override
    out_dir = out_override or os.environ.get("SUBJMAP_OUT") or resolved["out_dir"]
    resolved["out_dir"] = str(out_dir)
    return resolved, Path(out_dir)


def _relative(section: dict, config_dir: Path, key: str) -> Path:
    value = section[key]
    p = Path(value)
    return p if p.is_absolute() else config_dir / p


def _load_data(section: dict, config_dir: Path) -> MultiSubjectDataset:
    dataset = load_dataset(_relative(section, config_dir, "path"), section["format"])
    if section.get("center"):
        dataset = center_subjects(dataset)
    return dataset


def _split_from_config(dataset, section: dict, root: SeededRng):
    scheme = section["scheme"]
    if scheme == "timestep_fraction":
        return split(dataset, TimestepFraction(section["test_fraction"], section["val_fraction"],
                                               seed=root.derive("split").seed))
    if scheme == "first_second_half":
        return split(dataset, FirstSecondHalf())
    if scheme == "subject_holdout":
        return split(dataset, SubjectHoldout(section["n_holdout"], seed=root.derive("split").seed))
    if scheme == "none":
        return dataset, None, None
    raise ConfigError(f"unknown split scheme {scheme!r}")


def _model_spec(section: dict, dataset: MultiSubjectDataset) -> ModelSpec:
    return ModelSpec(
        variant=section["variant"],
        objective=section["objective"],
        input_size=dataset.n_features,
        first_layer_width=section["first_layer_width"],
        latent_size=section["latent_size"],
        n_subjects=dataset.n_subjects,
        trunk_widths=section["trunk_widths"],
        n_classes=section["n_classes"],
        beta=section["beta"],
    )


def _train_config(section: dict, seed: int) -> TrainConfig:
    return TrainConfig(**section, seed=seed)


def config_hash(config: dict) -> str:
    """Digest of the semantically meaningful config (output location excluded)."""
    return canonical_digest({k: v for k, v in config.items() if k != "out_dir"})


def _write_results(out_dir: Path, command: str, config: dict, metrics: dict,
                   files: list[str], started: float) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    resolved_path = out_dir / "resolved_config.json"
    resolved_path.write_text(json.dumps(config, indent=2, sort_keys=True), encoding="utf-8")
    payload = {
        "command": command,
        "config_hash": config_hash(config),
        "started_unix": started,
        "finished_unix": time.time(),
        "metrics": metrics,
        "files": sorted(set(files + ["resolved_config.json"])),
    }
    (out_dir / "results.json").write_text(json.dumps(payload, indent=2, sort_keys=True),
                                          encoding="utf-8")
    for name in payload["files"]:
        if not (out_dir / name).exists():
            raise SubjmapError(f"declared output file missing: {name}")
    return payload


def _cmd_simulate(config: dict, out_dir: Path, config_dir: Path, workers: int) -> dict:
    started = time.time()
    out_dir.mkdir(parents=True, exist_ok=True)
    root = SeededRng(config["seed"])
    section = config["data"]
    files = ["data.smds"]
    if section["generator"] == "rotated_half_moons":
        samples, labels = half_moons(section["n_samples"], section["noise"],
                                     section["sample_seed"])
        dataset, truth = rotate_subjects(samples, labels, section["n_subjects"],
                                         seed=root.derive("rotations").seed)
        if section["center"]:
            dataset = center_subjects(dataset)
        with open(out_dir / "angles.csv", "w", encoding="utf-8") as fh:
            fh.write("subject_id,angle\n")
            for sid, angle in zip(dataset.subject_ids, truth.angles):
                fh.write(f"{sid},{float(angle)!r}\n")
        files.append("angles.csv")
        metrics = {
            "generator": "rotated_half_moons",
            "n_subjects": dataset.n_subjects,
            "n_samples": int(section["n_samples"]),
            "class_counts": np.bincount(dataset.subjects[0].labels).tolist(),
        }
    elif section["generator"] == "synth_group":
        dataset, truth = synth_group_dataset(
            section["n_subjects"], section["n_timesteps"], section["n_features"],
            section["latent_dim"], section["group_effect"], seed=root.derive("synth").seed,
            noise_level=section["noise_level"], subject_scale=section["subject_scale"],
            trajectory_rank=section["trajectory_rank"])
        ground = {
            "direction": truth.direction.tolist(),
            "direction_voxels": truth.direction_voxels.tolist(),
            "scalings": truth.scalings.tolist(),
            "groups": truth.groups.tolist(),
        }
        (out_dir / "ground_truth.json").write_text(json.dumps(ground, sort_keys=True),
                                                   encoding="utf-8")
        files.append("ground_truth.json")
        metrics = {
            "generator": "synth_group",
            "n_subjects": dataset.n_subjects,
            "n_timesteps": int(section["n_timesteps"]),
            "n_features": int(section["n_features"]),
            "group_effect": float(section["group_effect"]),
        }
    else:
        raise ConfigError(f"unknown generator {section['generator']!r}")
    save_dataset(dataset, out_dir / "data.smds")
    return _write_results(out_dir, "simulate", config, metrics, files, started)


def _cmd_train(config: dict, out_dir: Path, config_dir: Path, workers: int) -> dict:
    started = time.time()
    root = SeededRng(config["seed"])
    dataset = _load_data(config["data"], config_dir)
    train_set, val_set, test_set = _split_from_config(dataset, config["data"]["split"], root)
    if val_set is None:
        val_set = test_set if test_set is not None else train_set
    spec = _model_spec(config["model"], train_set)
    model = build_model(spec, root.derive("init").seed, subject_ids=train_set.subject_ids)
    train_cfg = _train_config(config["train"], root.derive("train").seed)
    model, history = train(model, train_set, val_set, train_cfg)

    out_dir.mkdir(parents=True, exist_ok=True)
    checkpoint.save_model(model, out_dir / "model.ckpt", config_hash(config))
    history.to_csv(out_dir / "history.csv")
    (out_dir / "history.json").write_text(
        json.dumps(history.to_json(), indent=2, sort_keys=True), encoding="utf-8")
    metrics = dict(history.final_metrics)
    metrics["epochs_run"] = history.n_epochs
    metrics["best_epoch"] = history.best_epoch
    if test_set is not None:
        test_loss, test_accuracy = evaluate_loss(model, test_set)
        if test_accuracy is None:
            metrics["test_loss"] = test_loss
        else:
            metrics["test_accuracy"] = test_accuracy
    return _write_results(out_dir, "train", config, metrics,
                          ["model.ckpt", "history.csv", "history.json"], started)


def _cmd_sweep(config: dict, out_dir: Path, config_dir: Path, workers: int) -> dict:
    started = time.time()
    root = SeededRng(config["seed"])
    dataset = _load_data(config["data"], config_dir)
    train_set, val_set, test_set = _split_from_config(dataset, config["data"]["split"], root)
    if val_set is None:
        raise ConfigError("sweep needs a split scheme that produces a validation set")
    spec = _model_spec(config["model"], train_set)
    base_cfg = _train_config(config["train"], 0)

    axes = config["sweep"]["axes"]
    if not isinstance(axes, dict) or not axes:
        raise ConfigError("sweep.axes must be a non-empty object of key -> list")
    keys = sorted(axes)
    settings = [dict(zip(keys, combo))
                for combo in itertools.product(*(axes[k] for k in keys))]
    for setting in settings:
        if "trunk_widths" in setting:
            setting["trunk_widths"] = tuple(setting["trunk_widths"])
    n_workers = config["sweep"]["workers"] or workers
    result = hyperparameter_sweep(spec, base_cfg, settings, config["sweep"]["seeds"],
                                  train_set, val_set, test_set,
                                  metric=config["sweep"]["metric"], workers=n_workers)
    out_dir.mkdir(parents=True, exist_ok=True)
    result.to_csv(out_dir / "sweep.csv")
    winner = {k: (list(v) if isinstance(v, tuple) else v)
              for k, v in settings[result.winner_index].items()}
    metrics = {
        "n_rows": len(result.rows),
        "n_errors": sum(1 for r in result.rows if r["error"]),
        "winner_setting": winner,
        "winner_mean_val": result.setting_means[result.winner_index],
        "winner_test_mean": result.winner_test_mean(),
    }
    return _write_results(out_dir, "sweep", config, metrics, ["sweep.csv"], started)


def _cmd_finetune(config: dict, out_dir: Path, config_dir: Path, workers: int) -> dict:
    started = time.time()
    root = SeededRng(config["seed"])
    dataset = _load_data(config["data"], config_dir)
    model, _ = checkpoint.load_model(_relative(config, config_dir, "checkpoint"))
    section = config["finetune"]

    total = _common_length(dataset)
    holdout_start = total - int(round(section["holdout_fraction"] * total))
    fit_window = MultiSubjectDataset(
        [rec.take(np.arange(holdout_start)) for rec in dataset.subjects],
        dict(dataset.metadata))
    digest_before = parameter_digest(model)

    ft_cfg = TrainConfig(lr=section["lr"], optimizer=section["optimizer"],
                         epochs=section["epochs"], batch_size=section["batch_size"],
                         seed=root.derive("finetune").seed, early_stop_patience=None)
    # fraction is taken of the full timeseries but fitted inside the lead window
    lead_fraction = min(1.0, section["fraction"] * total / max(holdout_start, 1))
    result = finetune_subjects(model, fit_window, lead_fraction, ft_cfg)
    digest_after = parameter_digest(model, tuple(int(i) for i in result.new_indices))

    eval_rows = np.arange(holdout_start, total)
    metrics = {
        "fraction": section["fraction"],
        "n_finetune_timesteps": math.ceil(lead_fraction * holdout_start),
        "heldout_mse": _heldout_mse(model, dataset, eval_rows),
        "frozen_digest_unchanged": digest_before == digest_after,
        "n_new_subjects": len(result.new_subject_ids),
    }
    if config["baseline_checkpoint"]:
        baseline, _ = checkpoint.load_model(_relative(config, config_dir, "baseline_checkpoint"))
        base_mse = _heldout_mse(baseline, dataset, eval_rows)
        metrics["baseline_mse"] = base_mse
        metrics["improvement_pct"] = recon_improvement(metrics["heldout_mse"], base_mse)

    out_dir.mkdir(parents=True, exist_ok=True)
    checkpoint.save_model(model, out_dir / "model.ckpt", config_hash(config))
    result.history.to_csv(out_dir / "history.csv")
    (out_dir / "history.json").write_text(
        json.dumps(result.history.to_json(), indent=2, sort_keys=True), encoding="utf-8")
    return _write_results(out_dir, "finetune", config, metrics,
                          ["model.ckpt", "history.csv", "history.json"], started)


def _cmd_evaluate(config: dict, out_dir: Path, config_dir: Path, workers: int) -> dict:
    started = time.time()
    root = SeededRng(config["seed"])
    dataset = _load_data(config["data"], config_dir)
    _, _, test_set = _split_from_config(dataset, config["data"]["split"], root)
    eval_set = test_set if test_set is not None else dataset
    model, _ = checkpoint.load_model(_relative(config, config_dir, "checkpoint"))
    section = config["eval"]
    out_dir.mkdir(parents=True, exist_ok=True)

    metrics: dict = {}
    files: list[str] = []
    if section["recon"] and model.spec.objective == "classifier":
        _, metrics["test_accuracy"] = evaluate_loss(model, eval_set)
    elif section["recon"]:
        x, idx, _ = stacked(eval_set, model)
        metrics["test_mse"] = loss(model, x, idx)[1]["mse"]
        if section["baseline_checkpoint"]:
            baseline, _ = checkpoint.load_model(
                _relative(section, config_dir, "baseline_checkpoint"))
            x, idx, _ = stacked(eval_set, baseline)
            metrics["baseline_mse"] = loss(baseline, x, idx)[1]["mse"]
            metrics["improvement_pct"] = recon_improvement(metrics["test_mse"],
                                                           metrics["baseline_mse"])

    if section["probe_embeddings"]:
        x, idx, labels = stacked(eval_set, model)
        if labels is None:
            raise ConfigError("probe_embeddings needs timestep labels in the dataset")
        latents = encode(model, x, idx).z
        probe = probe_classify(latents, labels, n_folds=section["probe_folds"],
                               seed=root.derive("probe").seed, label_name="timestep_label")
        metrics["embedding_probe"] = probe.to_json()

    if section["probe_subject_weights"]:
        groups = dataset.groups()
        if (groups < 0).any():
            raise ConfigError("probe_subject_weights needs group labels on every subject")
        rows = model.enc_map.params()["s" if model.spec.variant == "decomposed" else "w"]
        rows = rows.reshape(rows.shape[0], -1)
        order = model.index_of(dataset.subject_ids)
        probe = probe_classify(rows[order], groups, n_folds=section["probe_folds"],
                               seed=root.derive("probe_weights").seed, label_name="group")
        metrics["subject_weight_probe"] = probe.to_json()

    if section["subject_circle"]:
        if model.spec.variant != "decomposed":
            raise ConfigError("subject_circle needs a decomposed model")
        coords = subject_weight_pca(model.enc_map.s)
        fit = circle_fit(coords)
        metrics["circle"] = fit.to_json()
        with open(out_dir / "subject_pca.csv", "w", encoding="utf-8") as fh:
            fh.write("subject_id,pc1,pc2\n")
            for sid, (a, b) in zip(model.subject_ids, coords):
                fh.write(f"{sid},{float(a)!r},{float(b)!r}\n")
        files.append("subject_pca.csv")
        if section["angles_path"]:
            angle_of = {}
            lines = Path(_relative(section, config_dir, "angles_path")).read_text(
                encoding="utf-8").splitlines()
            for line in lines[1:]:
                sid, angle = line.split(",")
                angle_of[sid] = float(angle)
            true_angles = np.array([angle_of[sid] for sid in model.subject_ids])
            recovered = polar_angles(coords, fit.center)
            metrics["circle"]["angle_correlation"] = circular_correlation(recovered, true_angles)

    return _write_results(out_dir, "evaluate", config, metrics, files, started)


def _cmd_analyze(config: dict, out_dir: Path, config_dir: Path, workers: int) -> dict:
    started = time.time()
    dataset = _load_data(config["data"], config_dir)
    model, _ = checkpoint.load_model(_relative(config, config_dir, "checkpoint"))
    section = config["analysis"]
    grid = np.linspace(section["grid_min"], section["grid_max"], int(section["grid_points"]))
    report, ica = group_difference_pipeline(
        model, dataset, grid=grid, k=int(section["k"]), q=section["q"],
        seed=SeededRng(config["seed"]).derive("ica").seed,
        max_iter=int(section["max_iter"]), tol=section["tol"])

    out_dir.mkdir(parents=True, exist_ok=True)
    report.to_csv(out_dir / "report.csv")
    # one "subject" per source, one timestep per map: reuses the packed format
    source_maps = MultiSubjectDataset(
        [SubjectData(f"source_{i:02d}", ica.sources[i:i + 1], None, None)
         for i in range(ica.sources.shape[0])],
        {"generator": "ica_sources"})
    save_dataset(source_maps, out_dir / "sources.smds")
    metrics = {
        "n_sources": int(section["k"]),
        "n_rejected": report.n_rejected,
        "ica_converged": ica.converged,
        "ica_iterations": ica.n_iter,
        "p_adjusted": report.p_adjusted.tolist(),
        "provenance": report.provenance,
    }
    return _write_results(out_dir, "analyze", config, metrics,
                          ["report.csv", "sources.smds"], started)


def _cmd_paramcount(config: dict, out_dir: Path, config_dir: Path, workers: int) -> dict:
    started = time.time()
    section = config["paramcount"]
    regime = ParamRegime(int(section["input_size"]), int(section["hidden_size"]),
                         int(section["n_subjects"]))
    both = bool(section["both_sides"])
    counts = {variant: param_count(variant, regime, both_sides=both)
              for variant in ("group", "subject", "decomposed")}
    side_note = "encoder+decoder (x2)" if both else "single layer"
    for variant in ("subject", "decomposed", "group"):
        print(f"{variant:>10s}: {counts[variant]:,} parameters [{side_note}]")
    metrics = {"counts": counts, "both_sides": both,
               "regime": {"input_size": regime.input_size, "hidden_size": regime.hidden_size,
                          "n_subjects": regime.n_subjects}}
    return _write_results(out_dir, "paramcount", config, metrics, [], started)


_COMMANDS = {
    "simulate": _cmd_simulate,
    "train": _cmd_train,
    "sweep": _cmd_sweep,
    "finetune": _cmd_finetune,
    "evaluate": _cmd_evaluate,
    "analyze": _cmd_analyze,
    "paramcount": _cmd_paramcount,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="subjmap",
                                     description="subject-specific manifold learning experiments")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON experiment config")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="global seed (overrides config)")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel workers for sweep cells (default: cpu count)")
    args = parser.parse_args(argv)

    workers = args.workers if args.workers else (os.cpu_count() or 1)
    try:
        config, out_dir = _load_config(args.config, args.command, args.seed, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        payload = _COMMANDS[args.command](config, out_dir, Path(args.config).resolve().parent,
                                          workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(f"{args.command}: ok (config {payload['config_hash'][:12]}, "
          f"results in {out_dir / 'results.json'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
