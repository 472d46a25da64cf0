"""The three benchmark workloads: inputs made from a seed, rounds of CLI commands, checks.

Each workload's ``setup_<name>`` turns the workload seed into the files the
program reads (datasets and JSON configs) and returns the round: a fixed list
of ``subjmap`` commands, each with a check of its output.  The benchmark
repeats the round for the run's time budget.  The amount of work in a round
does not depend on the seed (fixed epochs, ICA run to its iteration cap), so
runs on different seeds time the same work.

Why these three (see also BENCHMARK.json):

* ``halfmoons_sweep`` - N=2, B=512: the Python-overhead regime.  The training
  loop, Adam, QR re-projection, the SubjectMap scatter and the process-pool
  sweep engine do the work; the maps do almost no matmul work.  Both epoch
  caps of the criterion-1 grid are kept so cells share epoch prefixes.  A
  ``train`` of one subject and one decomposed cell follows the sweeps,
  because only ``train`` writes the step counts that training throughput
  needs.
* ``wide_autoencoder`` - N=20000, B=128: the voxel regime.  Wide map
  matmuls, the N-wide loss and Adam, and the dataset read and copies do the
  work.  Subject maps stay out: one subject-map step at this width takes
  seconds and GBs and would swamp peak RSS.
* ``group_study`` - N=60: train, fine-tune unseen subjects, the
  traversal -> FastICA -> Welch -> BH-FDR analysis and the kernel probe.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from subjmap.datasets import (
    MultiSubjectDataset,
    center_subjects,
    half_moons,
    load_dataset,
    rotate_subjects,
    save_dataset,
    synth_group_dataset,
)
from subjmap.linalg import SeededRng

TIMESTEP_SPLIT = {"scheme": "timestep_fraction", "test_fraction": 0.8, "val_fraction": 0.1}
HALF_SPLIT = {"scheme": "first_second_half"}


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True), encoding="utf-8")


def _read_results(out_dir: Path) -> dict:
    return json.loads((out_dir / "results.json").read_text(encoding="utf-8"))["metrics"]


def read_steps(out_dir: Path) -> int:
    return int(json.loads((out_dir / "history.json").read_text(encoding="utf-8"))["n_steps"])


class Op:
    """One CLI command of a round: its argv, and a check run on its output."""

    def __init__(self, name: str, command: str, config: str, check, *, trains: bool = False,
                 cells: int = 0, extra_args=()):
        self.name = name
        self.command = command
        self.config = config
        self.check = check          # out_dir -> (problems, failed cells)
        self.trains = trains        # writes history.json with n_steps
        self.cells = cells          # sweep cells the command runs
        self.extra_args = tuple(extra_args)

    def argv(self, work: Path) -> list[str]:
        return [self.command, "--config", str(work / self.config),
                "--out", str(work / "out" / self.name), *self.extra_args]


# --- halfmoons_sweep -----------------------------------------------------------

HM_SUBJECTS = 100
HM_SAMPLES = 1000
# slice of the criterion-1 grid: both epoch caps, the first two grid seeds
HM_AXES = {"epochs": [30, 60], "lr": [0.01]}
HM_SEEDS = [11, 12]
HM_FAMILIES = ("group", "subject", "decomposed")
HM_TRAINED = ("subject", "decomposed")
HM_CELLS = len(HM_AXES["epochs"]) * len(HM_AXES["lr"]) * len(HM_SEEDS)


def _hm_model(variant: str) -> dict:
    return {"variant": variant, "objective": "classifier", "first_layer_width": 8,
            "latent_size": 2, "trunk_widths": [16], "n_classes": 2}


def _check_sweep(family: str):
    def check(out_dir: Path) -> tuple[list[str], int]:
        metrics = _read_results(out_dir)
        problems = []
        if metrics["n_rows"] != HM_CELLS:
            problems.append(f"n_rows {metrics['n_rows']} != {HM_CELLS}")
        if metrics["n_errors"]:
            problems.append(f"{metrics['n_errors']} cell errors")
        mean = metrics["winner_test_mean"]
        if family == "group":
            if not mean <= 0.75:
                problems.append(f"pooled winner test mean {mean} > 0.75")
        elif not mean >= 0.95:
            problems.append(f"{family} winner test mean {mean} < 0.95")
        return problems, int(metrics["n_errors"])
    return check


def _check_hm_train(out_dir: Path) -> tuple[list[str], int]:
    acc = _read_results(out_dir)["test_accuracy"]
    return ([] if acc >= 0.95 else [f"test accuracy {acc} < 0.95"]), 0


def setup_halfmoons_sweep(seed: int, work: Path) -> list[Op]:
    root = SeededRng(seed)
    samples, labels = half_moons(HM_SAMPLES, 0.1, root.derive("samples").seed)
    dataset, _ = rotate_subjects(samples, labels, HM_SUBJECTS,
                                 seed=root.derive("rotations").seed)
    save_dataset(center_subjects(dataset), work / "data.smds")
    config_seed = root.derive("config").seed
    # no early stop: with patience 15 the pooled cells stop at data-dependent
    # epochs, so the work (and the time) would change with the seed
    train = {"batch_size": 512, "early_stop_patience": None}
    ops = []
    for family in HM_FAMILIES:
        _write_json(work / f"sweep_{family}.json", {
            "seed": config_seed,
            "data": {"path": "data.smds", "split": TIMESTEP_SPLIT},
            "model": _hm_model(family),
            "train": train,
            "sweep": {"axes": HM_AXES, "seeds": HM_SEEDS, "metric": "val_accuracy"},
        })
        ops.append(Op(f"sweep_{family}", "sweep", f"sweep_{family}.json",
                      _check_sweep(family), cells=HM_CELLS))
    # `sweep` writes no history.json, so `train` of the 30-epoch subject and
    # decomposed cells carries train_steps_per_s for this regime
    for family in HM_TRAINED:
        _write_json(work / f"train_{family}.json", {
            "seed": config_seed,
            "data": {"path": "data.smds", "split": TIMESTEP_SPLIT},
            "model": _hm_model(family),
            "train": dict(train, lr=0.01, epochs=30),
        })
        ops.append(Op(f"train_{family}", "train", f"train_{family}.json", _check_hm_train,
                      trains=True))
    return ops


# --- wide_autoencoder --------------------------------------------------------

WIDE_FEATURES = 20000
WIDE_SUBJECTS = 8
WIDE_TIMESTEPS = 128
WIDE_EPOCHS = 8
# at the generator's default noise (0.05) a voxel's noise swamps its share of
# the rank-6 signal, and no short run beats the training-mean predictor
WIDE_NOISE = 0.01


def _check_test_loss(bar: float = math.inf):
    """``test_loss`` must be finite and below ``bar``."""
    def check(out_dir: Path) -> tuple[list[str], int]:
        loss = _read_results(out_dir)["test_loss"]
        if not math.isfinite(loss):
            return [f"test loss {loss} not finite"], 0
        if not loss < bar:
            return [f"test loss {loss} >= {bar}"], 0
        return [], 0
    return check


def setup_wide_autoencoder(seed: int, work: Path) -> list[Op]:
    root = SeededRng(seed)
    dataset, _ = synth_group_dataset(WIDE_SUBJECTS, WIDE_TIMESTEPS, WIDE_FEATURES, 6, 0.0,
                                     seed=root.derive("synth").seed, noise_level=WIDE_NOISE)
    save_dataset(dataset, work / "data.smds")
    # the first/second-half split: predicting the training-half mean is the bar
    half = math.ceil(WIDE_TIMESTEPS / 2)
    mean = np.mean([rec.data[:half].mean(axis=0) for rec in dataset.subjects], axis=0)
    baseline_mse = float(np.mean([((rec.data[half:] - mean) ** 2).mean()
                                  for rec in dataset.subjects]))
    del dataset
    ops = []
    for variant in ("decomposed", "group"):
        _write_json(work / f"train_{variant}.json", {
            "seed": root.derive("config").seed,
            "data": {"path": "data.smds", "split": HALF_SPLIT},
            "model": {"variant": variant, "objective": "autoencoder",
                      "first_layer_width": 16, "latent_size": 2, "trunk_widths": [16]},
            "train": {"lr": 0.002, "epochs": WIDE_EPOCHS, "batch_size": 128,
                      "early_stop_patience": None},
        })
        ops.append(Op(f"train_{variant}", "train", f"train_{variant}.json",
                      _check_test_loss(baseline_mse), trains=True))
    return ops


# --- group_study ---------------------------------------------------------------

GS_SEEN = 80
GS_UNSEEN = 8
GS_TIMESTEPS = 200
GS_FEATURES = 60
GS_STYLE_DIMS = 6
GS_EPOCHS = 30
GS_ICA_SEEDS = 3
GS_ICA_ITERATIONS = 200
GS_FINETUNE_EPOCHS = 30


def _check_finetune(out_dir: Path) -> tuple[list[str], int]:
    metrics = _read_results(out_dir)
    problems = []
    if metrics["frozen_digest_unchanged"] is not True:
        problems.append("fine-tuning changed frozen weights")
    if not math.isfinite(metrics["heldout_mse"]):
        problems.append(f"held-out MSE {metrics['heldout_mse']} not finite")
    return problems, 0


def _span_corr(maps: list[np.ndarray], direction: np.ndarray) -> float:
    """Multiple correlation of ``direction`` with the span of ``maps`` (0 for no maps)."""
    if not maps:
        return 0.0
    centered = np.array(maps) - np.mean(maps, axis=1, keepdims=True)
    basis, _ = np.linalg.qr(centered.T)
    target = direction - direction.mean()
    return float(np.linalg.norm(basis.T @ target) / np.linalg.norm(target))


def _check_analyze(direction_voxels: np.ndarray, pooled_dirs=None):
    """Each analyze must reject a source.  The last one of a round also checks
    that the planted voxel direction lies in the span of the rejected sources
    (multiple correlation > 0.5, against about 0.35 for a random direction and
    8 sources) for at least one of the round's ICA runs (``pooled_dirs``).
    No single source need carry it: random voxel bases make the sources an
    arbitrary rotation of the signal space."""
    def check(out_dir: Path) -> tuple[list[str], int]:
        if _read_results(out_dir)["n_rejected"] < 1:
            return ["no source rejected"], 0
        if pooled_dirs is None:
            return [], 0
        best = 0.0
        for other in pooled_dirs:
            metrics = _read_results(other)
            sources = load_dataset(other / "sources.smds")
            rejected = [sources.subjects[i].data[0] for i, p in enumerate(metrics["p_adjusted"])
                        if p <= metrics["provenance"]["q"]]
            best = max(best, _span_corr(rejected, direction_voxels))
        if not best > 0.5:
            return [f"planted direction's correlation with the rejected sources {best} <= 0.5"], 0
        return [], 0
    return check


def _check_evaluate(out_dir: Path) -> tuple[list[str], int]:
    metrics = _read_results(out_dir)
    problems = []
    if not math.isfinite(metrics["test_mse"]):
        problems.append(f"test MSE {metrics['test_mse']} not finite")
    if "subject_weight_probe" not in metrics:
        problems.append("no subject-weight probe result")
    return problems, 0


def setup_group_study(seed: int, work: Path) -> list[Op]:
    root = SeededRng(seed)
    dataset, truth = synth_group_dataset(GS_SEEN + GS_UNSEEN, GS_TIMESTEPS, GS_FEATURES,
                                         GS_STYLE_DIMS, 2.0, seed=root.derive("synth").seed)
    # groups alternate with subject index, so both parts stay balanced
    save_dataset(MultiSubjectDataset(dataset.subjects[:GS_SEEN]), work / "seen.smds")
    save_dataset(MultiSubjectDataset(dataset.subjects[GS_SEEN:]), work / "unseen.smds")
    config_seed = root.derive("config").seed
    ckpt = "out/train/model.ckpt"
    _write_json(work / "train.json", {
        "seed": config_seed,
        "data": {"path": "seen.smds", "split": HALF_SPLIT},
        "model": {"variant": "decomposed", "objective": "autoencoder",
                  "first_layer_width": 10, "latent_size": 2, "trunk_widths": [16]},
        "train": {"lr": 0.01, "epochs": GS_EPOCHS, "batch_size": 128,
                  "early_stop_patience": None},
    })
    _write_json(work / "finetune.json", {
        "seed": config_seed,
        "data": {"path": "unseen.smds"},
        "checkpoint": ckpt,
        "finetune": {"fraction": 0.25, "epochs": GS_FINETUNE_EPOCHS},
    })
    _write_json(work / "analyze.json", {
        "seed": config_seed,
        "data": {"path": "seen.smds"},
        "checkpoint": ckpt,
        # tol 0 runs every ICA to its iteration cap, so the work does not
        # depend on how fast one seed's data converges
        "analysis": {"k": 8, "q": 0.05, "max_iter": GS_ICA_ITERATIONS, "tol": 0.0},
    })
    _write_json(work / "evaluate.json", {
        "seed": config_seed,
        "data": {"path": "seen.smds", "split": HALF_SPLIT},
        "checkpoint": ckpt,
        "eval": {"recon": True, "probe_subject_weights": True},
    })
    ops = [Op("train", "train", "train.json", _check_test_loss(), trains=True),
           Op("finetune", "finetune", "finetune.json", _check_finetune, trains=True)]
    names = [f"analyze_{i}" for i in range(GS_ICA_SEEDS)]
    for i, name in enumerate(names):
        pooled = [work / "out" / n for n in names] if i == len(names) - 1 else None
        ops.append(Op(name, "analyze", "analyze.json",
                      _check_analyze(truth.direction_voxels, pooled),
                      extra_args=("--seed", str(root.derive(f"ica{i}").seed))))
    ops.append(Op("evaluate", "evaluate", "evaluate.json", _check_evaluate))
    return ops


SETUPS = {
    "halfmoons_sweep": setup_halfmoons_sweep,
    "wide_autoencoder": setup_wide_autoencoder,
    "group_study": setup_group_study,
}
