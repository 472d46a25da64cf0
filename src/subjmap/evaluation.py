"""Downstream evaluation: kernel probes, reconstruction deltas, circle fits.

The probe is an RBF-kernel ridge classifier (one-vs-rest, ridge 1e-3) run
under stratified k-fold cross-validation with deterministic fold assignment.
It measures how much label information frozen embeddings or subject weights
carry, without giving the evaluated model any gradient feedback.

Nothing here runs a model: reconstruction errors come from
``training.evaluate_loss``, and ``recon_improvement`` compares two of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateFold, DegenerateGeometry, ShapeError
from .linalg import SeededRng, as_matrix, is_count, pca, svd_small


@dataclass(frozen=True)
class ProbeResult:
    fold_accuracies: tuple[float, ...]
    mean: float
    std: float
    n_folds: int
    label_name: str

    def to_json(self) -> dict:
        return {"fold_accuracies": list(self.fold_accuracies), "mean": self.mean,
                "std": self.std, "n_folds": self.n_folds, "label_name": self.label_name}


def _stratified_folds(labels: np.ndarray, n_folds: int, seed: int) -> np.ndarray:
    """Deterministic stratified fold id per sample (round-robin within class)."""
    rng = SeededRng(seed)
    fold_of = np.empty(labels.shape[0], dtype=np.int64)
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        members = members[rng.permutation(members.size)]
        fold_of[members] = np.arange(members.size) % n_folds
    return fold_of


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    sq = (np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
          - 2.0 * a @ b.T)
    return np.exp(-gamma * np.maximum(sq, 0.0))


def probe_classify(embeddings, labels, n_folds: int = 5, kernel_gamma="auto",
                   ridge: float = 1e-3, seed: int = 0, label_name: str = "label") -> ProbeResult:
    """Stratified k-fold accuracy of an RBF kernel ridge probe.

    ``kernel_gamma="auto"`` uses 1 / (d * var) with var the mean per-column
    variance, which keeps the kernel invariant to translating or rotating
    the embedding space.
    """
    if not is_count(n_folds, 2):
        raise ConfigError(f"n_folds must be an integer >= 2, got {n_folds!r}")
    x = as_matrix(embeddings, "embeddings")
    y = np.asarray(labels, dtype=np.int64).ravel()
    if y.shape[0] != x.shape[0]:
        raise ShapeError(f"{y.shape[0]} labels for {x.shape[0]} embeddings")
    if x.shape[0] < n_folds:
        raise ShapeError(f"{x.shape[0]} samples cannot fill {n_folds} folds")

    classes = np.unique(y)
    if classes.size < 2:
        raise DegenerateFold("need at least two classes")
    if kernel_gamma == "auto":
        spread = float(np.mean(np.var(x, axis=0)))
        gamma = 1.0 / (x.shape[1] * max(spread, 1e-12))
    else:
        gamma = float(kernel_gamma)

    fold_of = _stratified_folds(y, n_folds, seed)
    accuracies = []
    for fold in range(n_folds):
        test_mask = fold_of == fold
        train_mask = ~test_mask
        y_train = y[train_mask]
        if np.unique(y_train).size < classes.size:
            raise DegenerateFold(f"fold {fold}: a class is missing from the training part")
        x_train = x[train_mask]
        k_train = rbf_kernel(x_train, x_train, gamma)
        k_train[np.diag_indices_from(k_train)] += ridge
        onehot = (y_train[:, None] == classes[None, :]).astype(np.float64)
        alpha = np.linalg.solve(k_train, onehot)
        scores = rbf_kernel(x[test_mask], x_train, gamma) @ alpha
        pred = classes[np.argmax(scores, axis=1)]
        accuracies.append(float((pred == y[test_mask]).mean()))

    acc = np.asarray(accuracies)
    return ProbeResult(fold_accuracies=tuple(accuracies), mean=float(acc.mean()),
                       std=float(acc.std()), n_folds=n_folds, label_name=label_name)


def recon_improvement(model_mse: float, baseline_mse: float) -> float:
    """Percentage reduction in MSE relative to a baseline model."""
    if baseline_mse <= 0:
        raise ConfigError(f"baseline MSE must be positive, got {baseline_mse}")
    return 100.0 * (baseline_mse - model_mse) / baseline_mse


def subject_weight_pca(s) -> np.ndarray:
    """First two principal-component scores of the per-subject weight rows."""
    sm = as_matrix(s, "s")
    if sm.shape[0] < 3:
        raise ShapeError(f"need at least 3 subjects, got {sm.shape[0]}")
    if sm.shape[1] < 2:
        raise ShapeError(f"need at least 2 weight columns, got {sm.shape[1]}")
    _, scores, _ = pca(sm, 2)
    return scores


@dataclass(frozen=True)
class CircleFit:
    center: tuple[float, float]
    radius: float
    residual_ratio: float  # RMS radial residual / radius

    def to_json(self) -> dict:
        return {"center": list(self.center), "radius": self.radius,
                "residual_ratio": self.residual_ratio}


def circle_fit(coords) -> CircleFit:
    """Algebraic (Kasa) least-squares circle through 2-D points."""
    pts = as_matrix(coords, "coords")
    if pts.shape[0] < 3 or pts.shape[1] != 2:
        raise ShapeError(f"need at least 3 points in 2-D, got {pts.shape}")
    centered = pts - pts.mean(axis=0)
    _, sv, _ = svd_small(centered)
    if sv[1] <= 1e-12 * max(sv[0], 1e-300):
        raise DegenerateGeometry("points are collinear")

    design = np.column_stack([2.0 * pts, np.ones(pts.shape[0])])
    target = np.sum(pts * pts, axis=1)
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    cx, cy, c0 = coef
    radius = math.sqrt(max(c0 + cx * cx + cy * cy, 0.0))
    if radius <= 0:
        raise DegenerateGeometry("fitted radius is zero")
    dists = np.sqrt((pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2)
    residual = float(np.sqrt(np.mean((dists - radius) ** 2)))
    return CircleFit(center=(float(cx), float(cy)), radius=float(radius),
                     residual_ratio=residual / float(radius))


def polar_angles(coords, center) -> np.ndarray:
    pts = as_matrix(coords, "coords")
    cx, cy = center
    return np.arctan2(pts[:, 1] - cy, pts[:, 0] - cx)


def circular_correlation(a, b) -> float:
    """Circular-circular correlation of two angle sequences (radians).

    Jammalamadaka-SenGupta coefficient: products of sines of deviations from
    the circular means; value in [-1, 1], invariant to rotating either
    sequence and to adding full turns.
    """
    alpha = np.asarray(a, dtype=np.float64).ravel()
    beta = np.asarray(b, dtype=np.float64).ravel()
    if alpha.shape != beta.shape or alpha.size < 2:
        raise ShapeError("angle sequences must match and have length >= 2")
    mean_a = math.atan2(float(np.sin(alpha).sum()), float(np.cos(alpha).sum()))
    mean_b = math.atan2(float(np.sin(beta).sum()), float(np.cos(beta).sum()))
    sa = np.sin(alpha - mean_a)
    sb = np.sin(beta - mean_b)
    denom = math.sqrt(float((sa * sa).sum()) * float((sb * sb).sum()))
    if denom == 0.0:
        return 0.0
    return float((sa * sb).sum() / denom)
