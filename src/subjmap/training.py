"""Optimizers, the training loop, subject fine-tuning and the gradient gate.

One mini-batch loop (``_fit``) does all optimization: seeded shuffling,
mini-batches that may mix subjects, SGD or Adam, optional gradient clipping
and a divergence check.  Everything is deterministic given the config seed.
``train`` runs it over every parameter, re-projects each decomposed map's
square factor by QR after each ``orth_every`` steps, stops early on
validation loss and keeps a best-validation snapshot.

``finetune_subjects`` implements generalization to unseen subjects: it runs
the same loop on new per-subject rows appended to the maps, which are the
only parameters the optimizer ever touches, so nothing previously learned
can be forgotten.  It fits every timestep of the dataset it is given; the
caller cuts the window.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from .datasets import MultiSubjectDataset, atomic_write, stacked
from .errors import (ConfigError, DivergenceError, DuplicateSubject, EmptySubset, MissingLabels,
                     NoSubjectWeights, ShapeError, SweepFailed)
from .linalg import SeededRng, is_count, qr_orthonormalize
from .models import Model, ModelSpec, build_model, loss, loss_and_grads


def canonical_digest(obj) -> str:
    """Stable SHA-256 of a JSON-serializable object; key order and whitespace do not matter."""
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 100
    batch_size: int = 64
    seed: int = 0
    orth_every: int = 1
    early_stop_patience: int | None = 20
    grad_clip: float | None = None

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if not is_count(self.batch_size, 1):
            raise ConfigError(f"batch_size must be an integer >= 1, got {self.batch_size!r}")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"optimizer must be 'adam' or 'sgd', got {self.optimizer!r}")
        if not is_count(self.epochs, 0):
            raise ConfigError(f"epochs must be an integer >= 0, got {self.epochs!r}")

    def digest(self) -> str:
        return canonical_digest(asdict(self))


@dataclass
class TrainHistory:
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    val_metrics: list[float | None] = field(default_factory=list)
    best_epoch: int = -1
    n_steps: int = 0
    wall_clock_seconds: float = 0.0
    config_hash: str = ""
    final_metrics: dict = field(default_factory=dict)

    @property
    def n_epochs(self) -> int:
        return len(self.train_losses)

    def to_csv(self, path) -> None:
        with atomic_write(path, "w", encoding="utf-8") as fh:
            fh.write("epoch,train_loss,val_loss,metric\n")
            for i in range(self.n_epochs):
                metric = self.val_metrics[i]
                fh.write(f"{i},{self.train_losses[i]!r},{self.val_losses[i]!r},"
                         f"{'' if metric is None else repr(metric)}\n")


class Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        for name, p in params.items():
            p -= self.lr * grads[name]


class Adam:
    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for name, p in params.items():
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def make_optimizer(config: TrainConfig):
    if config.optimizer == "sgd":
        return Sgd(config.lr)
    return Adam(config.lr, config.beta1, config.beta2, config.eps)


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> None:
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for g in grads.values():
            g *= scale


def _reproject(model: Model) -> None:
    for dmap in model.decomposed_maps():
        dmap.u[...] = qr_orthonormalize(dmap.u)


def evaluate_loss(model: Model, dataset: MultiSubjectDataset) -> tuple[float, float | None]:
    """Full-batch loss plus accuracy for classifier objectives, from one forward pass."""
    x, idx, labels = stacked(dataset, model)
    value, terms = loss(model, x, idx, labels)
    return value, terms.get("accuracy")


def _fit(model: Model, x, idx, labels, config: TrainConfig, params: dict[str, np.ndarray],
         start: int, after_step):
    """The mini-batch loop; yields (mean training loss, steps so far) after each epoch.

    ``params`` are the trainable arrays: for each name, rows ``start:`` of
    the model parameter of that name (``start=0`` trains whole arrays).
    ``after_step(step, loss)`` runs after every optimizer step.  The caller
    decides when to stop by leaving the loop.  Raises DivergenceError with
    the offending step index if the loss leaves the finite range.
    """
    rng = SeededRng(config.seed)
    optimizer = make_optimizer(config)
    noise = rng if model.spec.objective == "vae" else None
    step = 0
    for _epoch in range(config.epochs):
        order = rng.permutation(x.shape[0])
        epoch_loss = 0.0
        for begin in range(0, x.shape[0], config.batch_size):
            rows = order[begin:begin + config.batch_size]
            batch_labels = labels[rows] if labels is not None else None
            value, _, grads = loss_and_grads(model, x[rows], idx[rows], batch_labels, noise)
            if not math.isfinite(value):
                raise DivergenceError(step)
            if config.grad_clip is not None:
                clip_gradients(grads, config.grad_clip)
            optimizer.step(params, {name: grads[name][start:] for name in params})
            step += 1
            after_step(step, value)
            epoch_loss += value * len(rows)
        yield epoch_loss / x.shape[0], step


def train(model: Model, train_set: MultiSubjectDataset, val_set: MultiSubjectDataset,
          config: TrainConfig) -> tuple[Model, TrainHistory]:
    """Optimize ``model`` in place; returns it restored to the best-validation epoch.

    Every ``orth_every`` steps each decomposed map's square factor is
    re-orthonormalized by QR.  Raises DivergenceError with the offending step
    index if the loss leaves the finite range.
    """
    started = time.perf_counter()
    x, idx, labels = stacked(train_set, model)
    if x.shape[0] == 0:
        raise EmptySubset("training set has no timesteps")

    def reproject(step, _value):
        if config.orth_every and step % config.orth_every == 0:
            _reproject(model)

    history = TrainHistory(config_hash=config.digest())
    best_val = math.inf
    best_snap = model.snapshot()
    since_best = 0
    epochs = _fit(model, x, idx, labels, config, model.params(), 0, reproject)
    for epoch, (train_loss, step) in enumerate(epochs):
        history.n_steps = step
        val_loss, val_metric = evaluate_loss(model, val_set)
        if not math.isfinite(val_loss):
            raise DivergenceError(step, f"non-finite validation loss after step {step}")
        history.train_losses.append(train_loss)
        history.val_losses.append(val_loss)
        history.val_metrics.append(val_metric)

        if val_loss < best_val - 1e-12:
            best_val = val_loss
            best_snap = model.snapshot()
            history.best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if config.early_stop_patience is not None and since_best >= config.early_stop_patience:
                break

    if history.best_epoch >= 0:
        model.restore(best_snap)
    history.wall_clock_seconds = time.perf_counter() - started
    if history.val_losses:
        history.final_metrics = {"val_loss": history.val_losses[history.best_epoch]}
        metric = history.val_metrics[history.best_epoch]
        if metric is not None:
            history.final_metrics["val_accuracy"] = metric
    return model, history


def grad_check(model: Model, x, subject_idx, labels=None, h: float = 1e-5) -> float:
    """Worst relative error between analytic and central-difference gradients.

    Intended for small models (<= ~20k parameters).  VAE models are checked
    in posterior-mean mode so the objective is deterministic.
    """
    _, _, analytic = loss_and_grads(model, x, subject_idx, labels)
    worst = 0.0
    for name, p in model.params().items():
        ga = analytic[name]
        flat = p.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            plus, _ = loss(model, x, subject_idx, labels)
            flat[i] = orig - h
            minus, _ = loss(model, x, subject_idx, labels)
            flat[i] = orig
            fd = (plus - minus) / (2.0 * h)
            ana = float(ga.reshape(-1)[i])
            err = abs(ana - fd) / max(1e-8, abs(ana) + abs(fd))
            worst = max(worst, err)
    return worst


def parameter_digest(model: Model, exclude_subject_rows: tuple[int, ...] = ()) -> str:
    """SHA-256 over all parameter bytes, skipping the given per-subject rows.

    Used to certify that fine-tuning left every pre-existing weight
    bit-identical.
    """
    per_subject = _per_subject_views(model, 0)
    digest = hashlib.sha256()
    for name, arr in sorted(model.params().items()):
        if name in per_subject:
            arr = np.delete(arr, list(exclude_subject_rows), axis=0)
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return digest.hexdigest()


@dataclass
class FinetuneResult:
    model: Model
    new_subject_ids: tuple[str, ...]
    new_indices: np.ndarray
    enc_rows: np.ndarray
    dec_rows: np.ndarray | None
    history: TrainHistory


def _per_subject_views(model: Model, start: int) -> dict[str, np.ndarray]:
    """Rows ``start:`` of each map's per-subject parameter, keyed by model parameter name."""
    return {f"{prefix}.{m.subject_param}": m.params()[m.subject_param][start:]
            for prefix, m in (("enc_map", model.enc_map), ("dec_map", model.dec_map))
            if m is not None and m.subject_param is not None}


def add_subjects(model: Model, new_ids) -> np.ndarray:
    """Register unseen subjects on a subject/decomposed model; returns their indices.

    New decomposed rows start at the mean of the training rows, which
    centers each new subject in the learned weight distribution.
    """
    new_ids = tuple(new_ids)
    if model.enc_map.subject_param is None:
        raise NoSubjectWeights("group models have no per-subject weights to add")
    clash = set(new_ids) & set(model.subject_ids)
    if clash:
        raise DuplicateSubject(f"subjects already registered: {sorted(clash)}")
    count = len(new_ids)
    for m in (model.enc_map, model.dec_map):
        if m is not None:
            m.add_subjects(count)
    start = len(model.subject_ids)
    model.subject_ids = model.subject_ids + new_ids
    model.spec = replace(model.spec, n_subjects=model.spec.n_subjects + count)
    return np.arange(start, start + count)


def finetune_subjects(model: Model, new_data: MultiSubjectDataset,
                      config: TrainConfig) -> FinetuneResult:
    """Fit per-subject weights for unseen subjects with everything else frozen.

    Every timestep of ``new_data`` is fitted; the caller chooses the window.
    Optimization runs on the appended rows alone and stops when the
    relative loss change over a 10-step window drops below 1e-5 (or at the
    config epoch cap).  Input that fails a check leaves the model untouched.
    """
    if new_data.n_features != model.spec.input_size:
        raise ShapeError(f"new subjects have width {new_data.n_features}, "
                         f"model expects {model.spec.input_size}")
    if model.spec.objective == "classifier" and new_data.labels is None:
        raise MissingLabels("fine-tuning a classifier needs labels for every new subject")
    for rec in new_data.subjects:
        if rec.n_timesteps == 0:
            raise EmptySubset(f"subject {rec.subject_id!r} has no timesteps to fine-tune on")

    started = time.perf_counter()
    new_idx = add_subjects(model, new_data.subject_ids)
    start = int(new_idx[0])
    views = _per_subject_views(model, start)
    x, idx, labels = stacked(new_data, model)
    window: deque[float] = deque(maxlen=10)
    history = TrainHistory(config_hash=config.digest())
    epochs = _fit(model, x, idx, labels, config, views, start,
                  lambda _step, value: window.append(value))
    for train_loss, step in epochs:
        history.n_steps = step
        history.train_losses.append(train_loss)
        history.val_losses.append(train_loss)
        history.val_metrics.append(None)
        if len(window) == 10 and window[0] > 0:
            if abs(window[0] - window[-1]) / abs(window[0]) < 1e-5:
                break
    history.best_epoch = history.n_epochs - 1
    history.wall_clock_seconds = time.perf_counter() - started

    enc_rows, *dec_rows = [view.copy() for view in views.values()]
    return FinetuneResult(model=model, new_subject_ids=tuple(new_data.subject_ids),
                          new_indices=new_idx, enc_rows=enc_rows,
                          dec_rows=dec_rows[0] if dec_rows else None, history=history)


# --- hyperparameter sweep -------------------------------------------------

_SPEC_FIELDS = set(ModelSpec.__dataclass_fields__)
_CONFIG_FIELDS = set(TrainConfig.__dataclass_fields__) - {"seed"}  # seeds are their own axis


def _sweep_cell(args):
    (index, setting, seed, spec, base_config, train_set, val_set, test_set) = args
    row = {"setting_index": index, "seed": seed, "error": None,
           "val_loss": math.nan, "val_metric": math.nan, "test_metric": math.nan}
    row.update(setting)
    try:
        cell_spec = replace(spec, **{k: v for k, v in setting.items() if k in _SPEC_FIELDS})
        config = replace(base_config, seed=seed,
                         **{k: v for k, v in setting.items() if k in _CONFIG_FIELDS})
        model = build_model(cell_spec, SeededRng(seed).derive("init").seed,
                            subject_ids=[r.subject_id for r in train_set.subjects])
        model, history = train(model, train_set, val_set, config)
        row["val_loss"] = history.final_metrics.get("val_loss", math.nan)
        row["val_metric"] = history.final_metrics.get(
            "val_accuracy", row["val_loss"])
        if test_set is not None:
            test_loss, test_accuracy = evaluate_loss(model, test_set)
            row["test_metric"] = test_loss if test_accuracy is None else test_accuracy
    except Exception as exc:  # cell failures must not abort the sweep
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


@dataclass
class SweepResult:
    rows: list[dict]
    setting_means: list[float]
    winner_index: int
    metric: str

    def winner_rows(self) -> list[dict]:
        return [r for r in self.rows if r["setting_index"] == self.winner_index]

    def winner_test_mean(self) -> float:
        vals = [r["test_metric"] for r in self.winner_rows()
                if r["error"] is None and not math.isnan(r["test_metric"])]
        return float(np.mean(vals)) if vals else math.nan

    def to_csv(self, path) -> None:
        keys = sorted({k for r in self.rows for k in r})
        with atomic_write(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(keys)
            for row in self.rows:
                writer.writerow(["" if row.get(k) is None else row.get(k, "")
                                 for k in keys])


def hyperparameter_sweep(base_spec: ModelSpec, base_config: TrainConfig, settings: list[dict],
                         seeds, train_set, val_set, test_set=None,
                         metric: str | None = None, workers: int = 1) -> SweepResult:
    """Train every (setting, seed) cell and rank settings by mean validation metric.

    ``metric`` is ``"val_loss"`` (lower is better) or, when every cell trains
    a classifier, ``"val_accuracy"`` (higher is better); ``None`` picks the
    first of these that applies.  Setting keys and the metric are checked
    before any cell runs.  Cell failures are recorded in their row and
    excluded from the means; when every cell fails there is no winner and
    ``SweepFailed`` is raised with the first cell's error.  Results are merged
    in (setting, seed) order regardless of worker scheduling.
    """
    seeds = list(seeds)
    if not settings or not seeds:
        raise ConfigError(f"sweep needs at least one setting and one seed, got seeds {seeds}")
    classifier = all(setting.get("objective", base_spec.objective) == "classifier"
                     for setting in settings)
    choices = ("val_accuracy", "val_loss") if classifier else ("val_loss",)
    metric = choices[0] if metric is None else metric
    if metric not in choices:
        raise ConfigError(f"sweep.metric must be one of {choices} for these objectives, "
                          f"got {metric!r}")
    unknown = {key for setting in settings for key in setting} - _SPEC_FIELDS - _CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"unknown sweep setting keys {sorted(unknown)}")
    jobs = [(i, setting, seed, base_spec, base_config, train_set, val_set, test_set)
            for i, setting in enumerate(settings) for seed in seeds]

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell, jobs, chunksize=1))
    else:
        rows = [_sweep_cell(job) for job in jobs]
    rows.sort(key=lambda r: (r["setting_index"], r["seed"]))
    if all(r["error"] for r in rows):
        raise SweepFailed(f"all {len(rows)} sweep cells failed; the first: {rows[0]['error']}")

    higher_better = metric == "val_accuracy"
    key = "val_metric" if higher_better else "val_loss"
    means = []
    for i in range(len(settings)):
        vals = [r[key] for r in rows
                if r["setting_index"] == i and r["error"] is None and not math.isnan(r[key])]
        means.append(float(np.mean(vals)) if vals else math.nan)
    ranked = [(m if not math.isnan(m) else (-math.inf if higher_better else math.inf), i)
              for i, m in enumerate(means)]
    winner = max(ranked)[1] if higher_better else min(ranked)[1]
    return SweepResult(rows=rows, setting_means=means, winner_index=winner, metric=metric)
