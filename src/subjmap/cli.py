"""Config-driven experiment runner.

Commands: simulate, train, sweep, finetune, evaluate, analyze, paramcount.
Each reads a strict JSON config (unknown keys and values of the wrong JSON type
are rejected with their full path), resolves defaults, derives every random
stream from the single global seed via tagged SHA-256 derivation, and writes a
results.json whose metrics block reproduces bit-for-bit on re-runs with the
same config and seed.  ``main`` deletes an earlier run's results.json before
the command runs and writes the new one last, so an output directory holds a
results.json exactly when its last run completed.

Before it parses its arguments, ``main`` sets glibc's allocator to keep the
memory the process frees (no ``mmap``'d chunks, no heap trim) for the rest of
the command, so a wide model's step arrays are not faulted in afresh every
step; forked sweep workers inherit this.  A libc without ``mallopt`` is left
alone, and importing the package changes nothing.

Exit codes: 0 success, 1 config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import math
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import checkpoint
from .datasets import (
    MultiSubjectDataset,
    SubjectData,
    _common_length,
    _load_parts,
    _same_rows,
    _split_plan,
    atomic_write,
    center_subjects,
    half_moons,
    rotate_subjects,
    save_dataset,
    synth_group_dataset,
)
from .errors import ConfigError, ParseError, SubjmapError
from .evaluation import (
    circle_fit,
    circular_correlation,
    polar_angles,
    probe_classify,
    recon_improvement,
    subject_weight_pca,
)
from .linalg import SeededRng
from .maps import ParamRegime, param_count
from .models import ModelSpec, build_model
from .stats import group_difference_pipeline
from .training import (
    TrainConfig,
    canonical_digest,
    encode_dataset,
    evaluate_loss,
    finetune_subjects,
    hyperparameter_sweep,
    parameter_digest,
    train,
    usable_cpus,
)

_REQUIRED = object()
_JSON_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str, "object": dict,
               "null": type(None)}


def _is(value, kind: str) -> bool:
    """True if ``value`` has the JSON type ``kind``.

    ``kind`` is a key of ``_JSON_TYPES``, ``[kind]`` for a list of such
    values, or alternatives joined by ``|``.  A bool is never a number, an
    int passes for a float, and a NaN or infinity passes for nothing.
    """
    if kind.startswith("[") and kind.endswith("]"):
        return isinstance(value, list) and all(_is(item, kind[1:-1]) for item in value)
    if "|" in kind:
        return any(_is(value, alt) for alt in kind.split("|"))
    return (isinstance(value, _JSON_TYPES[kind]) and isinstance(value, bool) == (kind == "bool")
            and not (isinstance(value, float) and not math.isfinite(value)))


def _check(value, kind: str, where: str) -> None:
    if not _is(value, kind):
        raise ConfigError(f"{where} must be of type {kind}, got {value!r}")


def _resolve(user, schema, path=""):
    """Merge a user config section over the schema's defaults.

    Each schema leaf is a ``(type, default)`` pair.  Unknown keys, missing
    required keys and values of the wrong type are rejected by full key path.
    """
    if not isinstance(user, dict):
        raise ConfigError(f"config section {path or '<root>'} must be an object")
    for key in user:
        if key not in schema:
            raise ConfigError(f"unknown config key {path + '.' if path else ''}{key}")
    out = {}
    for key, leaf in schema.items():
        where = f"{path}.{key}" if path else key
        if isinstance(leaf, dict):
            out[key] = _resolve(user.get(key, {}), leaf, where)
            continue
        kind, default = leaf
        value = user.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(f"missing required config key {where}")
        _check(value, kind, where)
        out[key] = value
    return out


_DATA_PATH = {"path": ("str", _REQUIRED), "format": ("str", "binary")}

_DATA_FILE = {**_DATA_PATH, "center": ("bool", False)}

_DATA_SECTION = {
    **_DATA_FILE,
    "split": {
        "scheme": ("str", "timestep_fraction"),
        "test_fraction": ("float", 0.8),
        "val_fraction": ("float", 0.1),
        "n_holdout": ("int", 0),
    },
}

_MODEL_SECTION = {
    "variant": ("str", _REQUIRED),
    "objective": ("str", _REQUIRED),
    "first_layer_width": ("int", _REQUIRED),
    "latent_size": ("int", _REQUIRED),
    "trunk_widths": ("[int]", [16]),
    "n_classes": ("int|null", None),
    "beta": ("float", 1.0),
}

_TRAIN_SECTION = {
    "lr": ("float", 1e-3),
    "optimizer": ("str", "adam"),
    "beta1": ("float", 0.9),
    "beta2": ("float", 0.999),
    "eps": ("float", 1e-8),
    "epochs": ("int", 100),
    "batch_size": ("int", 64),
    "orth_every": ("int", 1),
    "early_stop_patience": ("int|null", 20),
    "grad_clip": ("float|null", None),
}

SCHEMAS = {
    "simulate": {
        "seed": ("int", 0),
        "data": {
            "generator": ("str", "rotated_half_moons"),
            "n_samples": ("int", 1000),
            "noise": ("float", 0.1),
            "sample_seed": ("int", 42),
            "n_subjects": ("int", 100),
            "center": ("bool", True),
            "n_timesteps": ("int", 200),
            "n_features": ("int", 60),
            "latent_dim": ("int", 6),
            "group_effect": ("float", 0.0),
            "noise_level": ("float", 0.05),
            "subject_scale": ("float", 0.3),
            "trajectory_rank": ("int", 2),
        },
    },
    "train": {
        "seed": ("int", 0),
        "data": _DATA_SECTION,
        "model": _MODEL_SECTION,
        "train": _TRAIN_SECTION,
    },
    "sweep": {
        "seed": ("int", 0),
        "data": _DATA_SECTION,
        "model": _MODEL_SECTION,
        "train": _TRAIN_SECTION,
        "sweep": {
            "axes": ("object", _REQUIRED),
            "seeds": ("[int]", [11, 12, 13, 14]),
            "metric": ("str|null", None),
        },
    },
    "finetune": {
        "seed": ("int", 0),
        "data": _DATA_FILE,
        "checkpoint": ("str", _REQUIRED),
        "baseline_checkpoint": ("str|null", None),
        "finetune": {
            "fraction": ("float", 0.01),
            "lr": ("float", 5e-3),
            "optimizer": ("str", "adam"),
            "epochs": ("int", 200),
            "batch_size": ("int", 64),
            "holdout_fraction": ("float", 0.5),
        },
    },
    "evaluate": {
        "seed": ("int", 0),
        "data": _DATA_SECTION,
        "checkpoint": ("str", _REQUIRED),
        "eval": {
            "recon": ("bool", True),
            "baseline_checkpoint": ("str|null", None),
            "probe_embeddings": ("bool", False),
            "probe_subject_weights": ("bool", False),
            "probe_folds": ("int", 5),
            "subject_circle": ("bool", False),
            "angles_path": ("str|null", None),
        },
    },
    "analyze": {
        "seed": ("int", 0),
        "data": _DATA_PATH,
        "checkpoint": ("str", _REQUIRED),
        "analysis": {
            "k": ("int", 8),
            "q": ("float", 0.05),
            "grid_min": ("float", -3.0),
            "grid_max": ("float", 3.0),
            "grid_points": ("int", 11),
            "max_iter": ("int", 500),
            "tol": ("float", 1e-6),
        },
    },
    "paramcount": {
        "seed": ("int", 0),
        "paramcount": {
            "input_size": ("int", _REQUIRED),
            "hidden_size": ("int", _REQUIRED),
            "n_subjects": ("int", _REQUIRED),
            "both_sides": ("bool", True),
        },
    },
}


def _schema(command: str) -> dict:
    """The full config schema of ``command``: its ``SCHEMAS`` entry plus ``out_dir``."""
    return {**SCHEMAS[command], "out_dir": ("str", ".")}


def _schema_rows(schema: dict, path: str = ""):
    for key, leaf in schema.items():
        where = f"{path}.{key}" if path else key
        if isinstance(leaf, dict):
            yield from _schema_rows(leaf, where)
        else:
            kind, default = leaf
            kind = kind.replace("|", "\\|")  # a bare | would end the table cell
            shown = "required" if default is _REQUIRED else f"`{json.dumps(default)}`"
            yield f"| `{where}` | `{kind}` | {shown} |"


def config_tables() -> str:
    """Markdown tables of every command's config keys, types and defaults, made from ``SCHEMAS``.

    The README's config reference is this text; a test fails when the two differ.
    """
    parts = []
    for command in SCHEMAS:
        parts.append(f"#### `{command}`\n\n| key | type | default |\n| --- | --- | --- |\n"
                     + "\n".join(_schema_rows(_schema(command))))
    return "\n\n".join(parts) + "\n"


def _load_config(path: str, command: str, seed_override, out_override) -> tuple[dict, Path]:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    resolved = _resolve(raw, _schema(command))
    if seed_override is not None:
        resolved["seed"] = seed_override
    out_dir = out_override or os.environ.get("SUBJMAP_OUT") or resolved["out_dir"]
    resolved["out_dir"] = str(out_dir)
    return resolved, Path(out_dir)


def _relative(section: dict, config_dir: Path, key: str) -> Path:
    p = Path(section[key])
    return p if p.is_absolute() else config_dir / p


def _load_parts_of(section: dict, config_dir: Path, plan):
    """``(source, partitions)``: the partitions ``plan`` cuts, read in one pass (see ``_load_parts``)."""
    return _load_parts(_relative(section, config_dir, "path"), section["format"], plan,
                       section["center"])


def _split_cut(config: dict, root: SeededRng, need_val: bool = False):
    """``data.split``'s plan: the subjects' headers -> their ``(train, val, test)`` parts.

    ``data.split`` is checked here, before any file is opened, and with
    ``need_val`` so is whether the scheme can give a validation set at all.
    """
    cut, gives_val = _split_plan(**config["data"]["split"])
    if need_val and not gives_val:
        raise ConfigError("sweep needs a split scheme that produces a validation set")
    seed = root.derive("split").seed
    return lambda records: cut(records, seed)


def _load_split(config: dict, config_dir: Path, root: SeededRng, need_val: bool = False):
    """``(source, (train, val, test))``: the data's headers, and its partitions by ``data.split``.

    The split is checked before the file is opened (see ``_split_cut``), and
    the checks that need the headers run before any data is read.  Each
    subject is read once, straight into the partitions that own its rows,
    so the whole file is never held beside them.
    """
    return _load_parts_of(config["data"], config_dir, _split_cut(config, root, need_val))


def config_hash(config: dict) -> str:
    """Digest of the semantically meaningful config (output location excluded)."""
    return canonical_digest({k: v for k, v in config.items() if k != "out_dir"})


def _finite_or_null(obj):
    """``obj`` with every NaN or infinite float replaced by None, so it is strict JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return obj


def _write_json(path: Path, obj, indent: int | None = 2) -> None:
    """Write ``obj`` as strict JSON: a non-finite number becomes null."""
    text = json.dumps(_finite_or_null(obj), indent=indent, sort_keys=True, allow_nan=False)
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_results(out_dir: Path, command: str, config: dict, metrics: dict,
                   files: list[str], started: float) -> dict:
    _write_json(out_dir / "resolved_config.json", config)
    payload = {
        "command": command,
        "config_hash": config_hash(config),
        "started_unix": started,
        "finished_unix": time.time(),
        "metrics": metrics,
        "files": sorted(set(files + ["resolved_config.json"])),
    }
    _write_json(out_dir / "results.json", payload)
    for name in payload["files"]:
        if not (out_dir / name).exists():
            raise SubjmapError(f"declared output file missing: {name}")
    return payload


_Outputs = tuple[dict, list[str]]  # a command's metrics and the names of the files it wrote


def _cmd_simulate(config: dict, out_dir: Path, config_dir: Path, workers: int) -> _Outputs:
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
        with atomic_write(out_dir / "angles.csv", "w", encoding="utf-8") as fh:
            fh.write("subject_id,angle\n")
            for sid, angle in zip(dataset.subject_ids, truth.angles):
                fh.write(f"{sid},{float(angle)!r}\n")
        files.append("angles.csv")
        metrics = {
            "generator": "rotated_half_moons",
            "n_subjects": dataset.n_subjects,
            "n_samples": section["n_samples"],
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
        _write_json(out_dir / "ground_truth.json", ground, indent=None)
        files.append("ground_truth.json")
        metrics = {
            "generator": "synth_group",
            "n_subjects": dataset.n_subjects,
            "n_timesteps": section["n_timesteps"],
            "n_features": section["n_features"],
            "group_effect": section["group_effect"],
        }
    else:
        raise ConfigError(f"unknown generator {section['generator']!r}")
    save_dataset(dataset, out_dir / "data.smds")
    return metrics, files


def _cmd_train(config: dict, out_dir: Path, config_dir: Path, workers: int) -> _Outputs:
    # a config-only check, before the data is read
    variant = config["model"]["variant"]
    holdout = config["data"]["split"]["scheme"] == "subject_holdout"
    if holdout and variant in ("subject", "decomposed"):
        raise ConfigError(f"data.split.scheme 'subject_holdout' needs model.variant 'group': "
                          f"train validates on the held-out subjects, and a {variant} model "
                          f"has no weights for them")
    root = SeededRng(config["seed"])
    train_cfg = TrainConfig(**config["train"], seed=root.derive("train").seed)
    train_set, val_set, test_set = _load_split(config, config_dir, root)[1]
    if val_set is None:
        val_set = test_set if test_set is not None else train_set
    spec = ModelSpec(**config["model"], input_size=train_set.n_features,
                     n_subjects=train_set.n_subjects)
    model = build_model(spec, root.derive("init").seed, subject_ids=train_set.subject_ids)
    model, history = train(model, train_set, val_set, train_cfg)

    checkpoint.save_model(model, out_dir / "model.ckpt", config_hash(config))
    history.to_csv(out_dir / "history.csv")
    _write_json(out_dir / "history.json", asdict(history))
    metrics = dict(history.final_metrics)
    metrics["epochs_run"] = history.n_epochs
    metrics["best_epoch"] = history.best_epoch
    if test_set is not None:
        best = history.best_epoch
        if val_set is test_set and best >= 0:
            # train restores the weights that this pass scored (see its docstring)
            test_loss, accuracy = history.val_losses[best], history.val_metrics[best]
        else:
            test_loss, terms = evaluate_loss(model, test_set)
            accuracy = terms.get("accuracy")
        if accuracy is not None:
            metrics["test_accuracy"] = accuracy
        else:
            metrics["test_loss"] = test_loss
    return metrics, ["model.ckpt", "history.csv", "history.json"]


def _cmd_sweep(config: dict, out_dir: Path, config_dir: Path, workers: int) -> _Outputs:
    axes = config["sweep"]["axes"]
    leaves = {**_MODEL_SECTION, **_TRAIN_SECTION}
    for key, values in axes.items():
        if key not in leaves:
            raise ConfigError(f"unknown sweep axis sweep.axes.{key}: not a model or train key")
        _check(values, f"[{leaves[key][0]}]", f"sweep.axes.{key}")
        if not values:
            raise ConfigError(f"sweep.axes.{key} must list at least one value")

    base_cfg = TrainConfig(**config["train"])
    root = SeededRng(config["seed"])
    train_set, val_set, test_set = _load_split(config, config_dir, root, need_val=True)[1]
    if val_set is None:
        raise ConfigError("sweep needs a validation set; val_fraction gives it no rows")
    spec = ModelSpec(**config["model"], input_size=train_set.n_features,
                     n_subjects=train_set.n_subjects)
    keys = sorted(axes)
    settings = [dict(zip(keys, combo))
                for combo in itertools.product(*(axes[k] for k in keys))]
    for setting in settings:
        if "trunk_widths" in setting:
            setting["trunk_widths"] = tuple(setting["trunk_widths"])
    result = hyperparameter_sweep(spec, base_cfg, settings, config["sweep"]["seeds"],
                                  train_set, val_set, test_set,
                                  metric=config["sweep"]["metric"], workers=workers)
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
    return metrics, ["sweep.csv"]


def _recon_models(model, key: str, section: dict, config_dir: Path) -> dict:
    """The models a reconstruction report scores, by metric name, loaded and checked.

    ``model`` is scored as ``key``; with ``section["baseline_checkpoint"]``
    set, that checkpoint is loaded and scored as ``baseline_mse``.  A
    classifier among them is a ConfigError: it does not reconstruct its input.
    """
    scored = {key: model}
    if section["baseline_checkpoint"]:
        scored["baseline_mse"], _ = checkpoint.load_model(
            _relative(section, config_dir, "baseline_checkpoint"))
    for name, scored_model in scored.items():
        if scored_model.spec.objective == "classifier":
            raise ConfigError(f"{name} needs a checkpoint that reconstructs its input, "
                              f"not a classifier")
    return scored


def _recon_metrics(scored: dict, dataset: MultiSubjectDataset, key: str) -> dict:
    """The reconstruction MSE of each ``_recon_models`` model on every row of ``dataset``.

    With a baseline, also the ``improvement_pct`` of ``key`` over it.
    """
    metrics = {name: evaluate_loss(model, dataset)[1]["mse"] for name, model in scored.items()}
    if "baseline_mse" in metrics:
        metrics["improvement_pct"] = recon_improvement(metrics[key], metrics["baseline_mse"])
    return metrics


def _cmd_finetune(config: dict, out_dir: Path, config_dir: Path, workers: int) -> _Outputs:
    root = SeededRng(config["seed"])
    section = config["finetune"]
    ft_cfg = TrainConfig(lr=section["lr"], optimizer=section["optimizer"],
                         epochs=section["epochs"], batch_size=section["batch_size"],
                         seed=root.derive("finetune").seed, early_stop_patience=None)

    def window(records):
        """The fit window and the held-out tail, checked from the headers alone."""
        total = _common_length(records)
        holdout_start = total - int(round(section["holdout_fraction"] * total))
        # fraction is of the full timeseries, capped at the rows before the held-out tail
        n_fit = min(holdout_start, math.ceil(section["fraction"] * total))
        if holdout_start >= total:
            raise ConfigError(f"finetune.holdout_fraction {section['holdout_fraction']!r} "
                              f"holds out none of the {total} timesteps")
        if n_fit < 1:
            key = "holdout_fraction" if holdout_start < 1 else "fraction"
            raise ConfigError(f"finetune.{key} {section[key]!r} leaves no timestep of {total} "
                              f"to fine-tune on")
        return (_same_rows(records, np.arange(n_fit)),
                _same_rows(records, np.arange(holdout_start, total)))

    fit_set, heldout = _load_parts_of(config["data"], config_dir, window)[1]
    model, _ = checkpoint.load_model(_relative(config, config_dir, "checkpoint"))
    # both checkpoints are checked before the first fine-tuning step
    scored = _recon_models(model, "heldout_mse", config, config_dir)
    digest_before = parameter_digest(model)
    result = finetune_subjects(model, fit_set, ft_cfg)
    digest_after = parameter_digest(model, tuple(int(i) for i in result.new_indices))

    metrics = {
        "fraction": section["fraction"],
        "n_finetune_timesteps": fit_set.subjects[0].n_timesteps,
        "frozen_digest_unchanged": digest_before == digest_after,
        "n_new_subjects": len(result.new_indices),
        **_recon_metrics(scored, heldout, "heldout_mse"),
    }
    checkpoint.save_model(model, out_dir / "model.ckpt", config_hash(config))
    result.history.to_csv(out_dir / "history.csv")
    _write_json(out_dir / "history.json", asdict(result.history))
    return metrics, ["model.ckpt", "history.csv", "history.json"]


def _cmd_evaluate(config: dict, out_dir: Path, config_dir: Path, workers: int) -> _Outputs:
    section = config["eval"]
    if section["probe_folds"] < 2:
        raise ConfigError(f"eval.probe_folds must be at least 2, got {section['probe_folds']!r}")
    root = SeededRng(config["seed"])
    cut = _split_cut(config, root)

    def scored(records):
        # only the test part is scored, or under scheme none the training part, which is
        # the whole dataset: no other part is filled
        train_part, _, test_part = cut(records)
        return [test_part if test_part is not None else train_part]

    source, (eval_set,) = _load_parts_of(config["data"], config_dir, scored)
    model, _ = checkpoint.load_model(_relative(config, config_dir, "checkpoint"))

    # every input is checked before anything is scored or written
    if section["subject_circle"]:
        if model.spec.variant != "decomposed":
            raise ConfigError("subject_circle needs a decomposed model")
        if section["angles_path"]:
            true_angles = np.array(_read_angles(_relative(section, config_dir, "angles_path"),
                                                model.subject_ids))
    if section["probe_subject_weights"]:
        param = model.enc_map.subject_param
        if param is None:
            raise ConfigError("probe_subject_weights needs a subject or decomposed model")
        groups = source.groups()
        if (groups < 0).any():
            raise ConfigError("probe_subject_weights needs group labels on every subject")
    if section["probe_embeddings"] and eval_set.labels is None:
        raise ConfigError("probe_embeddings needs timestep labels in the dataset")

    metrics: dict = {}
    files: list[str] = []
    if section["recon"] and model.spec.objective == "classifier":
        metrics["test_accuracy"] = evaluate_loss(model, eval_set)[1]["accuracy"]
    elif section["recon"]:
        metrics.update(_recon_metrics(_recon_models(model, "test_mse", section, config_dir),
                                      eval_set, "test_mse"))

    if section["probe_embeddings"]:
        probe = probe_classify(encode_dataset(model, eval_set), eval_set.labels,
                               n_folds=section["probe_folds"],
                               seed=root.derive("probe").seed, label_name="timestep_label")
        metrics["embedding_probe"] = probe.to_json()

    if section["probe_subject_weights"]:
        rows = model.enc_map.params()[param]
        rows = rows.reshape(rows.shape[0], -1)
        order = model.index_of(source.subject_ids)
        probe = probe_classify(rows[order], groups, n_folds=section["probe_folds"],
                               seed=root.derive("probe_weights").seed, label_name="group")
        metrics["subject_weight_probe"] = probe.to_json()

    if section["subject_circle"]:
        coords = subject_weight_pca(model.enc_map.s)
        fit = circle_fit(coords)
        metrics["circle"] = fit.to_json()
        if section["angles_path"]:
            recovered = polar_angles(coords, fit.center)
            metrics["circle"]["angle_correlation"] = circular_correlation(recovered, true_angles)
        with atomic_write(out_dir / "subject_pca.csv", "w", encoding="utf-8") as fh:
            fh.write("subject_id,pc1,pc2\n")
            for sid, (a, b) in zip(model.subject_ids, coords):
                fh.write(f"{sid},{float(a)!r},{float(b)!r}\n")
        files.append("subject_pca.csv")

    return metrics, files


def _read_angles(path: Path, subject_ids) -> list[float]:
    """Each subject's angle from a ``subject_id,angle`` CSV with a header row."""
    angle_of = {}
    for row, line in enumerate(path.read_text(encoding="utf-8").splitlines()[1:], start=2):
        try:
            sid, angle = line.split(",")
            angle_of[sid] = float(angle)
        except ValueError as exc:
            raise ParseError(f"{path}: row {row} is not 'subject_id,angle': {line!r}") from exc
        if not math.isfinite(angle_of[sid]):
            raise ParseError(f"{path}: row {row} has a non-finite angle: {line!r}")
    missing = [sid for sid in subject_ids if sid not in angle_of]
    if missing:
        raise ParseError(f"{path} has no angle for subjects {missing}")
    return [angle_of[sid] for sid in subject_ids]


def _cmd_analyze(config: dict, out_dir: Path, config_dir: Path, workers: int) -> _Outputs:
    section = config["analysis"]
    if not 0.0 < section["q"] < 1.0:
        raise ConfigError(f"analysis.q must lie in (0, 1), got {section['q']!r}")
    for key in ("k", "grid_points", "max_iter"):
        if section[key] < 1:
            raise ConfigError(f"analysis.{key} must be at least 1, got {section[key]!r}")
    if not (math.isfinite(section["tol"]) and section["tol"] >= 0):
        raise ConfigError(f"analysis.tol must be finite and at least 0, got {section['tol']!r}")
    # the analysis needs the subjects' ids and groups, never a row: read the headers alone
    subjects = _load_parts(_relative(config["data"], config_dir, "path"),
                           config["data"]["format"], lambda records: [])[0]
    model, _ = checkpoint.load_model(_relative(config, config_dir, "checkpoint"))
    if model.spec.objective == "classifier":
        raise ConfigError("analyze needs a checkpoint that reconstructs its input, "
                          "not a classifier")
    # the ICA input is one row per (subject, latent dimension, grid point), one column per feature
    n_rows = len(subjects.subject_ids) * model.spec.latent_size * section["grid_points"]
    if section["k"] > min(n_rows, model.spec.input_size):
        raise ConfigError(f"analysis.k {section['k']!r} exceeds the {n_rows} traversal rows "
                          f"(subjects x latent_size x grid_points) or the input width "
                          f"{model.spec.input_size}")
    grid = np.linspace(section["grid_min"], section["grid_max"], section["grid_points"])
    report, ica = group_difference_pipeline(
        model, subjects, grid=grid, k=section["k"], q=section["q"],
        seed=SeededRng(config["seed"]).derive("ica").seed,
        max_iter=section["max_iter"], tol=section["tol"])

    report.to_csv(out_dir / "report.csv")
    # one "subject" per source, one timestep per map: reuses the packed format
    source_maps = MultiSubjectDataset(
        [SubjectData(f"source_{i:02d}", ica.sources[i:i + 1], None, None)
         for i in range(ica.sources.shape[0])],
        {"generator": "ica_sources"})
    save_dataset(source_maps, out_dir / "sources.smds")
    metrics = {
        "n_sources": section["k"],
        "n_rejected": report.n_rejected,
        "ica_converged": ica.converged,
        "ica_iterations": ica.n_iter,
        "p_adjusted": report.p_adjusted.tolist(),
        "provenance": report.provenance,
    }
    return metrics, ["report.csv", "sources.smds"]


def _cmd_paramcount(config: dict, out_dir: Path, config_dir: Path, workers: int) -> _Outputs:
    section = config["paramcount"]
    regime = ParamRegime(section["input_size"], section["hidden_size"], section["n_subjects"])
    both = section["both_sides"]
    counts = {variant: param_count(variant, regime, both_sides=both)
              for variant in ("group", "subject", "decomposed")}
    side_note = "encoder+decoder (x2)" if both else "single layer"
    for variant in ("subject", "decomposed", "group"):
        print(f"{variant:>10s}: {counts[variant]:,} parameters [{side_note}]")
    metrics = {"counts": counts, "both_sides": both,
               "regime": {"input_size": regime.input_size, "hidden_size": regime.hidden_size,
                          "n_subjects": regime.n_subjects}}
    return metrics, []


_COMMANDS = {
    "simulate": _cmd_simulate,
    "train": _cmd_train,
    "sweep": _cmd_sweep,
    "finetune": _cmd_finetune,
    "evaluate": _cmd_evaluate,
    "analyze": _cmd_analyze,
    "paramcount": _cmd_paramcount,
}


# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_MAX = -1, -4


def _keep_freed_memory() -> None:
    """Have glibc's malloc keep the memory this process frees for the rest of the run.

    Large arrays (a batch at input width 20 000 is 20 MB) are otherwise served
    by ``mmap`` or sit at the top of the heap, and go back to the kernel when
    freed, so every step faults them in and zeroes them again.  Here no chunk
    is ``mmap``'d and the heap is never trimmed.  A libc without ``mallopt``
    (macOS, Windows) is left alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_MAX, 0)
    mallopt(_M_TRIM_THRESHOLD, -1)


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = argparse.ArgumentParser(prog="subjmap",
                                     description="subject-specific manifold learning experiments")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON experiment config")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="global seed (overrides config)")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel workers for sweep cells (default: the CPUs this "
                             "process may run on); each runs max(1, CPUs // workers) "
                             "BLAS threads")
    args = parser.parse_args(argv)

    try:
        if args.workers is not None and args.workers < 1:
            raise ConfigError(f"--workers must be at least 1, got {args.workers}")
        workers = args.workers or usable_cpus()
        config, out_dir = _load_config(args.config, args.command, args.seed, args.out)
        (out_dir / "results.json").unlink(missing_ok=True)  # written again last
        started = time.time()
        metrics, files = _COMMANDS[args.command](config, out_dir,
                                                 Path(args.config).resolve().parent, workers)
        payload = _write_results(out_dir, args.command, config, metrics, files, started)
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
