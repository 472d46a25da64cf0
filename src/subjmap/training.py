"""Optimizers, the training loop, subject fine-tuning and the gradient gate.

One mini-batch loop (``_fit``) does all optimization: seeded shuffling,
mini-batches that may mix subjects, SGD or Adam, optional gradient clipping
and a divergence check.  Everything is deterministic given the config seed.
The optimizer is bound once to the arrays it trains (row views ``s[start:]``
when fine-tuning) and steps with their gradients as one flat vector, whose
norm clipping bounds.  ``Adam``'s flat moments follow the per-array arithmetic
in the same order, so training is bit-for-bit that of a per-array Adam.
``train`` runs it over every parameter, re-projects each decomposed map's
square factor by QR after each ``orth_every`` steps, stops early on
validation loss and keeps a best-validation snapshot.

``hyperparameter_sweep`` runs the same epoch loop (``_train_epochs``) once
for every group of cells that differ only in ``epochs``: a cell capped at 30
epochs sees the first 30 epochs of its 60-epoch twin (same seed, shuffles
and patience counter), so the group trains up to its largest cap and records
each smaller cap's row on the way.  Every row equals what a stand-alone
``train`` with that cap gives.  The groups run in a process pool with a CPU
budget: each worker runs its BLAS on ``max(1, usable_cpus() // workers)``
threads, set in the pool's initializer, so the workers' BLAS threads do not
outnumber the CPUs.  The parent and every inline run keep the BLAS's own
thread count.  OpenBLAS splits a product over its output's rows and columns,
never its inner dimension, so each output element sums in the same order on
any thread count and rows do not depend on the worker count.

``evaluate_loss`` is the one scoring pass: validation, sweep test metrics and
every score the CLI reports (``train``'s test metric, ``evaluate``'s and
``finetune``'s reconstruction errors) are the loss of a model on every row of
a dataset, read from its breakdown.  It walks the rows in fixed-size blocks
(``_score_block_rows``) and adds each block's ``models.loss_terms``, the
loss's sums before any division, then divides once: its memory follows the
block, not the dataset, and it shares the batch loss's one code path.

``finetune_subjects`` implements generalization to unseen subjects: it runs
the same loop on new per-subject rows appended to the maps, which are the
only parameters the optimizer ever touches, so nothing previously learned
can be forgotten.  It fits every timestep of the dataset it is given; the
caller cuts the window.
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import json
import math
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from .datasets import MultiSubjectDataset, atomic_write, stacked
from .errors import (ConfigError, DivergenceError, DuplicateSubject, EmptySubset, MissingLabels,
                     NoSubjectWeights, ShapeError, SweepFailed)
from .linalg import SeededRng, is_count, qr_orthonormalize
from .models import (Model, ModelSpec, build_model, encode, loss, loss_and_grads,
                     loss_of_terms, loss_terms)


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
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and positive, got {self.lr!r}")
        if not is_count(self.batch_size, 1):
            raise ConfigError(f"batch_size must be an integer >= 1, got {self.batch_size!r}")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"optimizer must be 'adam' or 'sgd', got {self.optimizer!r}")
        if not is_count(self.epochs, 0):
            raise ConfigError(f"epochs must be an integer >= 0, got {self.epochs!r}")
        for key in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ConfigError(f"{key} must lie in [0, 1), got {getattr(self, key)!r}")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ConfigError(f"eps must be finite and positive, got {self.eps!r}")
        if not is_count(self.orth_every, 0):
            raise ConfigError(f"orth_every must be an integer >= 0, got {self.orth_every!r}")
        if self.early_stop_patience is not None and not is_count(self.early_stop_patience, 1):
            raise ConfigError(f"early_stop_patience must be an integer >= 1 or null, "
                              f"got {self.early_stop_patience!r}")
        if self.grad_clip is not None and not (math.isfinite(self.grad_clip)
                                               and self.grad_clip > 0):
            raise ConfigError(f"grad_clip must be finite and positive or null, "
                              f"got {self.grad_clip!r}")

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
    """SGD on the arrays (or views) ``params``, each updated in place by ``step(g)``.

    ``g`` is the flat gradient: the gradients of ``params`` raveled and concatenated.
    """

    def __init__(self, params, lr: float):
        self.params = list(params)
        self.lr = lr
        sizes = [p.size for p in self.params]
        self._update = np.zeros(sum(sizes))
        self._update_views = [chunk.reshape(p.shape) for chunk, p in zip(
            np.split(self._update, np.cumsum(sizes)[:-1]), self.params)]

    def _apply(self) -> None:
        for p, delta in zip(self.params, self._update_views):
            p -= delta

    def step(self, g: np.ndarray) -> None:
        np.multiply(g, self.lr, out=self._update)
        self._apply()


class Adam(Sgd):
    """Adam (Kingma & Ba 2015) with its moments held as one flat vector each.

    ``m`` and ``v`` are laid out as the flat gradient that ``step`` takes
    (see ``Sgd``); ``step`` uses ``g`` as scratch space and overwrites it.
    Elementwise the arithmetic, and its order, is the textbook per-array
    update, so the result is bit-for-bit that of stepping each array alone.
    """

    def __init__(self, params, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        super().__init__(params, lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m, self.v = np.zeros_like(self._update), np.zeros_like(self._update)

    def step(self, g: np.ndarray) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        update, m, v = self._update, self.m, self.v
        np.multiply(g, 1.0 - self.beta1, out=update)
        m *= self.beta1
        m += update                          # m*b1 + (1-b1)*g
        np.multiply(g, 1.0 - self.beta2, out=update)
        update *= g
        v *= self.beta2
        v += update                          # v*b2 + ((1-b2)*g)*g
        np.divide(m, b1c, out=update)
        update *= self.lr                    # lr*(m/b1c)
        np.divide(v, b2c, out=g)
        np.sqrt(g, out=g)
        g += self.eps                        # sqrt(v/b2c) + eps
        update /= g
        self._apply()


def clip_gradients(g: np.ndarray, max_norm: float) -> None:
    """Rescale the flat gradient ``g`` in place so that its 2-norm is at most ``max_norm``."""
    total = float(np.linalg.norm(g))
    if total > max_norm:
        g *= max_norm / total


def _reproject(model: Model) -> None:
    for dmap in model.decomposed_maps():
        dmap.u[...] = qr_orthonormalize(dmap.u)


# A scoring block has as many rows as fit _SCORE_BLOCK_ELEMENTS float64 elements
# (2 MiB) in its widest array, and at least _SCORE_MIN_ROWS, because every block's
# matmuls pack their weights afresh.  At input width 20 000, 13-row blocks scored a
# 512-row split about 1.5x slower than 128-row blocks, the fastest of 13 to 512 rows
# (the README has the table).
_SCORE_BLOCK_ELEMENTS = 2 ** 18
_SCORE_MIN_ROWS = 128


def _score_block_rows(spec: ModelSpec) -> int:
    """Rows per ``evaluate_loss`` block of a ``spec`` model.

    The widest array a forward pass makes holds, per row, the input width or
    a layer's output width (twice the latent size for a VAE's head), or for
    a subject map the n_in x n_out weights it gathers for the row.
    """
    widths = [spec.input_size, spec.first_layer_width, *spec.trunk_widths, 2 * spec.latent_size]
    if spec.variant == "subject":
        widths.append(spec.input_size * spec.first_layer_width)
    return max(_SCORE_MIN_ROWS, _SCORE_BLOCK_ELEMENTS // max(widths))


def _score_blocks(spec: ModelSpec, n_rows: int) -> list[slice]:
    """Consecutive ``_score_block_rows`` row slices over ``n_rows`` rows; no rows make one
    empty slice."""
    step = _score_block_rows(spec)
    return [slice(begin, begin + step) for begin in range(0, max(n_rows, 1), step)]


def evaluate_loss(model: Model, dataset: MultiSubjectDataset) -> tuple[float, dict]:
    """``loss`` of ``model`` on every row of ``dataset``: (value, breakdown).

    This one pass scores every dataset.  It walks the rows in blocks of
    ``_score_block_rows`` rows, adds each block's ``loss_terms`` and divides
    once, so its memory follows the block, not the dataset.  A dataset of
    one block scores bit for bit as ``loss`` on all its rows; over several,
    a mean moves by roundoff only (a matmul's rows depend on its row count),
    and ``accuracy`` is exact.  The breakdown holds ``accuracy`` for a
    classifier, and ``mse`` (plus ``kl`` for a VAE, whose latent is the
    posterior mean) otherwise.
    """
    x, idx, labels = stacked(dataset, model)
    total = None
    for rows in _score_blocks(model.spec, x.shape[0]):
        terms = loss_terms(model, x[rows], idx[rows], None if labels is None else labels[rows])
        total = terms if total is None else {key: total[key] + terms[key] for key in terms}
    return loss_of_terms(model.spec, total)


def encode_dataset(model: Model, dataset: MultiSubjectDataset) -> np.ndarray:
    """Latents (``encode(...).z``, a VAE's posterior mean) of every row of ``dataset``.

    Encodes in ``evaluate_loss``'s row blocks and concatenates the blocks'
    latents, so its activations follow the block, not the dataset.  A
    dataset of one block encodes bit for bit as one ``encode`` call.
    """
    x, idx, _ = stacked(dataset, model)
    return np.concatenate([encode(model, x[rows], idx[rows]).z
                           for rows in _score_blocks(model.spec, x.shape[0])])


def _fit(model: Model, x, idx, labels, config: TrainConfig, names: list[str], start: int,
         after_step):
    """The mini-batch loop; yields (mean training loss, steps so far) after each epoch.

    It trains rows ``start:`` of the model parameters ``names`` (``start=0``
    trains whole arrays) with the flat gradient of those rows alone, clipped
    to ``grad_clip``.  ``after_step(step, loss)`` runs after every step.  The
    caller decides when to stop by leaving the loop.  Raises DivergenceError
    with the offending step index if the loss leaves the finite range.

    A step holds only what its next operation reads: the per-parameter
    gradients go once they are concatenated, and the flat gradient once the
    optimizer has stepped, so neither outlives its step into the next
    batch's forward and backward pass.
    """
    rng = SeededRng(config.seed)
    params = model.params()
    trainable = [params[name][start:] for name in names]
    optimizer = (Sgd(trainable, config.lr) if config.optimizer == "sgd"
                 else Adam(trainable, config.lr, config.beta1, config.beta2, config.eps))
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
            g = np.concatenate([grads[name][start:].ravel() for name in names])
            del grads
            if config.grad_clip is not None:
                clip_gradients(g, config.grad_clip)
            optimizer.step(g)
            del g
            step += 1
            after_step(step, value)
            epoch_loss += value * len(rows)
        yield epoch_loss / x.shape[0], step


def _best_metrics(history: TrainHistory) -> dict:
    """Validation loss (and accuracy, for a classifier) of the best epoch; empty before one."""
    if history.best_epoch < 0:
        return {}
    metrics = {"val_loss": history.val_losses[history.best_epoch]}
    metric = history.val_metrics[history.best_epoch]
    if metric is not None:
        metrics["val_accuracy"] = metric
    return metrics


def _train_epochs(model: Model, train_set: MultiSubjectDataset, val_set: MultiSubjectDataset,
                  config: TrainConfig, history: TrainHistory):
    """``train``'s epoch loop: optimizes ``model`` in place and fills ``history``.

    Yields the best-validation snapshot so far once before the first epoch
    (``None``: no epoch has run) and once after every epoch.  Ends after
    ``config.epochs`` epochs, or after the epoch that leaves validation loss
    without improvement for ``early_stop_patience`` epochs.  The model holds
    the live weights at every yield.
    """
    x, idx, labels = stacked(train_set, model)
    if x.shape[0] == 0:
        raise EmptySubset("training set has no timesteps")

    def reproject(step, _value):
        if config.orth_every and step % config.orth_every == 0:
            _reproject(model)

    best_val = math.inf
    best_snap = None
    since_best = 0
    yield best_snap
    epochs = _fit(model, x, idx, labels, config, list(model.params()), 0, reproject)
    for epoch, (train_loss, step) in enumerate(epochs):
        history.n_steps = step
        val_loss, val_terms = evaluate_loss(model, val_set)
        if not math.isfinite(val_loss):
            raise DivergenceError(step, f"non-finite validation loss after step {step}")
        history.train_losses.append(train_loss)
        history.val_losses.append(val_loss)
        history.val_metrics.append(val_terms.get("accuracy"))

        if val_loss < best_val - 1e-12:
            best_val = val_loss
            best_snap = model.snapshot()
            history.best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
        yield best_snap
        if config.early_stop_patience is not None and since_best >= config.early_stop_patience:
            return


def train(model: Model, train_set: MultiSubjectDataset, val_set: MultiSubjectDataset,
          config: TrainConfig) -> tuple[Model, TrainHistory]:
    """Optimize ``model`` in place; returns it restored to the best-validation epoch.

    The restored weights are exactly those that ``evaluate_loss`` scored on
    ``val_set`` at ``history.best_epoch``: the snapshot is taken right after
    that pass, which is deterministic (a VAE is scored at its posterior
    mean).  So ``history.val_losses[best_epoch]`` (and ``val_metrics``) is
    the restored model's score on ``val_set``.

    Every ``orth_every`` steps each decomposed map's square factor is
    re-orthonormalized by QR.  Raises DivergenceError with the offending step
    index if the loss leaves the finite range.
    """
    started = time.perf_counter()
    history = TrainHistory(config_hash=config.digest())
    for best_snap in _train_epochs(model, train_set, val_set, config, history):
        pass
    if best_snap is not None:
        model.restore(best_snap)
    history.wall_clock_seconds = time.perf_counter() - started
    history.final_metrics = _best_metrics(history)
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
    per_subject = _per_subject_names(model)
    digest = hashlib.sha256()
    for name, arr in sorted(model.params().items()):
        if name in per_subject:
            arr = np.delete(arr, list(exclude_subject_rows), axis=0)
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return digest.hexdigest()


@dataclass
class FinetuneResult:
    new_indices: np.ndarray  # the new subjects' rows in the model's per-subject parameters
    history: TrainHistory


def _per_subject_names(model: Model) -> list[str]:
    """The model parameter name of each layer's per-subject parameter."""
    return [f"{name}.{layer.subject_param}"
            for name, layer in model.layers() if layer.subject_param is not None]


def add_subjects(model: Model, new_ids) -> np.ndarray:
    """Register unseen subjects on a subject/decomposed model; returns their indices.

    New decomposed rows start at the mean of the training rows, which
    centers each new subject in the learned weight distribution.
    """
    new_ids = tuple(new_ids)
    per_subject = [layer for _, layer in model.layers() if layer.subject_param is not None]
    if not per_subject:
        raise NoSubjectWeights("group models have no per-subject weights to add")
    clash = set(new_ids) & set(model.subject_ids)
    if clash:
        raise DuplicateSubject(f"subjects already registered: {sorted(clash)}")
    count = len(new_ids)
    for layer in per_subject:
        layer.add_subjects(count)
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
    for subject_id, n_t in zip(new_data.subject_ids, np.diff(new_data.offsets)):
        if n_t == 0:
            raise EmptySubset(f"subject {subject_id!r} has no timesteps to fine-tune on")

    started = time.perf_counter()
    new_idx = add_subjects(model, new_data.subject_ids)
    x, idx, labels = stacked(new_data, model)
    window: deque[float] = deque(maxlen=10)
    history = TrainHistory(config_hash=config.digest())
    epochs = _fit(model, x, idx, labels, config, _per_subject_names(model), int(new_idx[0]),
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
    return FinetuneResult(new_indices=new_idx, history=history)


# --- hyperparameter sweep -------------------------------------------------

_SPEC_FIELDS = set(ModelSpec.__dataclass_fields__)
_CONFIG_FIELDS = set(TrainConfig.__dataclass_fields__) - {"seed"}  # seeds are their own axis


def _cell_error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _record(row: dict, model: Model, best_snap, history: TrainHistory, test_set) -> None:
    """Fill ``row`` with what ``train`` stopped at ``history``'s last epoch would report.

    The test split is scored on ``best_snap``; the live weights are put back
    afterwards, so training can go on.  A failure is recorded in the row.
    """
    try:
        best = _best_metrics(history)
        row["val_loss"] = best.get("val_loss", math.nan)
        row["val_metric"] = best.get("val_accuracy", row["val_loss"])
        if test_set is not None:
            live = model.snapshot()
            if best_snap is not None:
                model.restore(best_snap)
            try:
                test_loss, test_terms = evaluate_loss(model, test_set)
            finally:
                model.restore(live)
            row["test_metric"] = test_terms.get("accuracy", test_loss)
    except Exception as exc:  # cell failures must not abort the sweep
        row["error"] = _cell_error(exc)


def _sweep_cell(job):
    """Run one seed's sweep cells whose settings differ only in ``epochs``; returns their rows.

    The group trains one model, up to its largest epoch cap.  When training
    reaches a cap, or stops early before it, that cap's rows get what a
    stand-alone ``train`` with that cap reports: the best-validation epoch
    among its first ``cap`` epochs, and the test metric of that epoch's
    snapshot.  Training then goes on from the live weights.  A row fails
    alone when its own ``TrainConfig`` is invalid; a failure in training
    fails every row whose cap it had not reached yet.
    """
    cells, seed, spec, base_config, train_set, val_set, test_set = job
    rows = [{"setting_index": index, "seed": seed, "error": None, "val_loss": math.nan,
             "val_metric": math.nan, "test_metric": math.nan, **setting}
            for index, setting in cells]
    pending = [(None, row) for row in rows]  # (TrainConfig, row) of the rows still waiting
    try:
        cell_spec = replace(spec, **{k: v for k, v in cells[0][1].items() if k in _SPEC_FIELDS})
        pending = []
        for row, (_, setting) in zip(rows, cells):
            try:
                pending.append((replace(base_config, seed=seed, **{
                    k: v for k, v in setting.items() if k in _CONFIG_FIELDS}), row))
            except Exception as exc:  # epochs, the one key that differs, is out of range
                row["error"] = _cell_error(exc)
        if pending:
            pending.sort(key=lambda item: item[0].epochs)
            model = build_model(cell_spec, SeededRng(seed).derive("init").seed,
                                subject_ids=train_set.subject_ids)
            history = TrainHistory()
            for best_snap in _train_epochs(model, train_set, val_set, pending[-1][0], history):
                while pending and pending[0][0].epochs == history.n_epochs:
                    _record(pending.pop(0)[1], model, best_snap, history, test_set)
            for _, row in pending:  # stopped early: every larger cap ends here too
                _record(row, model, best_snap, history, test_set)
    except Exception as exc:  # cell failures must not abort the sweep
        for _, row in pending:
            row["error"] = _cell_error(exc)
    return rows


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


def usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity set where the
    platform has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# OpenBLAS's thread-count setter under the names numpy's wheels link it by: the
# scipy-openblas build of numpy >= 2 and the 64-bit-suffixed build of numpy 1.x
_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_")


def _openblas_setter():
    """numpy's OpenBLAS ``set_num_threads(int)``, or None for a BLAS with no known setter."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    try:
        lib = ctypes.CDLL(umath.__file__)
    except OSError:
        return None
    for name in _OPENBLAS_SETTERS:
        setter = getattr(lib, name, None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            return setter
    return None


def _budget_blas_threads(threads: int) -> None:
    """Sweep pool initializer: run this worker's BLAS on ``threads`` threads."""
    setter = _openblas_setter()
    if setter is not None:
        setter(threads)


def hyperparameter_sweep(base_spec: ModelSpec, base_config: TrainConfig, settings: list[dict],
                         seeds, train_set, val_set, test_set=None,
                         metric: str | None = None, workers: int = 1) -> SweepResult:
    """Train every (setting, seed) cell and rank settings by mean validation metric.

    ``metric`` is ``"val_loss"`` (lower is better) or, when every cell trains
    a classifier, ``"val_accuracy"`` (higher is better); ``None`` picks the
    first of these that applies.  The validation set, setting keys and the
    metric are checked before any cell runs.  Cell failures are recorded in
    their row and excluded from the means; when every cell fails there is no
    winner and ``SweepFailed`` is raised with the first cell's error.  Results
    are merged in (setting, seed) order regardless of worker scheduling.

    Cells with one seed whose settings differ only in ``epochs`` share one
    training run up to their largest cap (see ``_sweep_cell``); each row is
    the one a separate run of its cell would give.  At most ``workers``
    processes run the groups, and none when there is only one group; each
    runs its BLAS on its share of ``usable_cpus()``.  ``workers`` must be an
    integer of at least 1.
    """
    if not is_count(workers, 1):
        raise ConfigError(f"workers must be an integer >= 1, got {workers!r}")
    seeds = list(seeds)
    if not settings or not seeds:
        raise ConfigError(f"sweep needs at least one setting and one seed, got seeds {seeds}")
    if val_set is None:
        raise ConfigError("sweep needs a validation set to rank its settings by")
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
    groups: dict[str, tuple] = {}  # (seed, cells): cells that differ only in epochs
    for i, setting in enumerate(settings):
        shared = sorted((k, v) for k, v in setting.items() if k != "epochs")
        for seed in seeds:
            groups.setdefault(repr((seed, shared)), (seed, []))[1].append((i, setting))
    jobs = [(cells, seed, base_spec, base_config, train_set, val_set, test_set)
            for seed, cells in groups.values()]

    # a fork pool starts every worker at the first submit: start no more than there are jobs
    workers = min(workers, len(jobs))
    if workers > 1:
        # forked workers inherit the parent's BLAS thread count, the CPU count by
        # default: give each its share, so that their threads do not outnumber the CPUs
        with ProcessPoolExecutor(max_workers=workers, initializer=_budget_blas_threads,
                                 initargs=(max(1, usable_cpus() // workers),)) as pool:
            group_rows = list(pool.map(_sweep_cell, jobs, chunksize=1))
    else:
        group_rows = [_sweep_cell(job) for job in jobs]
    rows = sorted((row for group in group_rows for row in group),
                  key=lambda r: (r["setting_index"], r["seed"]))
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
