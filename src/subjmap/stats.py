"""FastICA, Welch's t-test, BH-FDR, and the group-difference pipeline.

The pipeline mirrors how spatial group differences are extracted from a
trained decoding model: decode a shared grid of latent points with every
subject's weights, run spatial FastICA over the stacked reconstructions so
sources live in measurement space, then test each source's per-subject
mixing weights for a group difference and control the false discovery rate
across sources.

The t-distribution tail probability is computed through the regularized
incomplete beta function, evaluated with the standard continued-fraction
(modified Lentz) scheme, so no external statistics library is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import atomic_write
from .errors import ConfigError, ConvergenceError, GroupCountError, InvalidP, ShapeError
from .linalg import SeededRng, as_matrix, pin_signs, svd_small
from .models import Model, latent_traversal

DEFAULT_TRAVERSAL_GRID = tuple(np.linspace(-3.0, 3.0, 11))


# --- FastICA ---------------------------------------------------------------

@dataclass
class ICAResult:
    sources: np.ndarray    # k x N, unit variance, mutually uncorrelated
    mixing: np.ndarray     # n x k
    unmixing: np.ndarray   # k x k, applied to whitened data
    whitening: np.ndarray  # k x n, maps centered data to whitened coordinates
    n_iter: int
    converged: bool


def _sym_decorrelation(w: np.ndarray) -> np.ndarray:
    """W <- (W W^T)^(-1/2) W via eigendecomposition of the SPD Gram."""
    eigvecs, eigvals, _ = svd_small(w @ w.T)
    inv_sqrt = eigvecs @ np.diag(1.0 / np.sqrt(np.maximum(eigvals, 1e-300))) @ eigvecs.T
    return inv_sqrt @ w


def fastica(x, k: int, seed: int = 0, max_iter: int = 500, tol: float = 1e-6) -> ICAResult:
    """Symmetric fixed-point ICA with the logcosh contrast (alpha = 1).

    Rows of ``x`` are mixed observations, columns are samples (spatial ICA
    treats each measurement location as one sample).  Rows are centered
    internally, whitened by PCA to ``k`` dimensions (each eigenvector signed
    by ``pin_signs``, so the result does not hang on LAPACK's sign choice),
    and iterated until the largest column update falls below ``tol``.
    Hitting ``max_iter`` is recorded on the result, not raised.
    """
    xm = as_matrix(x, "x")
    n, width = xm.shape
    if not 1 <= k <= min(n, width):
        raise ShapeError(f"k={k} out of range for {n}x{width} input")

    centered = xm - xm.mean(axis=1, keepdims=True)
    # eigendecompose whichever Gram is small; both carry the singular spectrum
    if n <= width:
        eigvecs, eigvals, _ = svd_small(centered @ centered.T)  # n x n
    else:
        eigvecs, eigvals, _ = svd_small(centered.T @ centered)  # width x width
    if eigvals[k - 1] <= 1e-12 * max(eigvals[0], 1e-300):
        raise ShapeError(f"whitening rank below k={k}")
    sing = np.sqrt(eigvals[:k])
    top = pin_signs(eigvecs[:, :k])
    left = top if n <= width else centered @ top / sing
    whitening = math.sqrt(width) * (left / sing).T  # k x n
    z = whitening @ centered  # k x width, cov over samples = I

    rng = SeededRng(seed)
    w = _sym_decorrelation(rng.normal((k, k)))
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        wz = w @ z
        g = np.tanh(wz)
        g_prime = (1.0 - g * g).mean(axis=1)
        w_new = _sym_decorrelation(g @ z.T / width - g_prime[:, None] * w)
        shift = float(np.max(np.abs(np.abs(np.einsum("ij,ij->i", w_new, w)) - 1.0)))
        w = w_new
        if shift < tol:
            converged = True
            break

    sources = w @ z
    mixing = centered @ sources.T / width
    return ICAResult(sources=sources, mixing=mixing, unmixing=w,
                     whitening=whitening, n_iter=iteration, converged=converged)


# --- classical tests ---------------------------------------------------------

def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise ConvergenceError("incomplete beta continued fraction failed to converge")


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_sf_two_sided(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with ``df`` degrees of freedom."""
    if df <= 0:
        raise ShapeError(f"degrees of freedom must be positive, got {df}")
    if t == 0.0:
        return 1.0
    return betainc_reg(df / 2.0, 0.5, df / (df + t * t))


def welch_t_test(a, b) -> tuple[float, float]:
    """Welch's unequal-variance t statistic and two-sided p-value.

    Degenerate inputs follow the limiting conventions: if both groups have
    zero variance the result is (0, 1) for equal means and (+-inf, 0)
    otherwise.
    """
    xa = np.asarray(a, dtype=np.float64).ravel()
    xb = np.asarray(b, dtype=np.float64).ravel()
    if xa.size < 2 or xb.size < 2:
        raise ShapeError(f"both groups need >= 2 values, got {xa.size} and {xb.size}")
    na, nb = xa.size, xb.size
    ma, mb = float(xa.mean()), float(xb.mean())
    va, vb = float(xa.var(ddof=1)), float(xb.var(ddof=1))
    if va == 0.0 and vb == 0.0:
        if ma == mb:
            return 0.0, 1.0
        return math.copysign(math.inf, ma - mb), 0.0
    sa, sb = va / na, vb / nb
    t = (ma - mb) / math.sqrt(sa + sb)
    df = (sa + sb) ** 2 / (sa * sa / (na - 1) + sb * sb / (nb - 1))
    return t, t_sf_two_sided(t, df)


def bh_fdr(pvals, q: float = 0.05) -> tuple[np.ndarray, np.ndarray]:
    """Benjamini-Hochberg step-up: adjusted p-values and rejection flags.

    adjusted_(i) = min_{j >= i} p_(j) * m / j, clipped at 1, reported in the
    original input order; reject where adjusted <= q, a level in (0, 1).
    """
    if not 0.0 < q < 1.0:
        raise ConfigError(f"q must lie in (0, 1), got {q!r}")
    p = np.asarray(pvals, dtype=np.float64).ravel()
    if p.size == 0:
        raise ShapeError("need at least one p-value")
    if np.any((p < 0) | (p > 1)) or not np.all(np.isfinite(p)):
        raise InvalidP(f"p-values outside [0, 1]: {p[(p < 0) | (p > 1) | ~np.isfinite(p)]}")
    m = p.size
    order = np.argsort(p, kind="stable")
    ranked = p[order] * m / np.arange(1, m + 1)
    adjusted_sorted = np.minimum.accumulate(ranked[::-1])[::-1]
    adjusted_sorted = np.minimum(adjusted_sorted, 1.0)
    adjusted = np.empty(m)
    adjusted[order] = adjusted_sorted
    return adjusted, adjusted <= q


# --- pipeline ----------------------------------------------------------------

@dataclass
class GroupDiffReport:
    t_stats: np.ndarray
    p_values: np.ndarray
    p_adjusted: np.ndarray
    rejected: np.ndarray
    group_means_a: np.ndarray  # per-source mean mixing weight, group a
    group_means_b: np.ndarray
    group_labels: tuple[int, int]
    provenance: dict

    @property
    def n_rejected(self) -> int:
        return int(self.rejected.sum())

    def to_csv(self, path) -> None:
        with atomic_write(path, "w", encoding="utf-8") as fh:
            fh.write("source_id,t,p,p_adj,reject,group_mean_a,group_mean_b\n")
            for i in range(self.t_stats.size):
                fh.write(f"{i},{float(self.t_stats[i])!r},{float(self.p_values[i])!r},"
                         f"{float(self.p_adjusted[i])!r},{int(self.rejected[i])},"
                         f"{float(self.group_means_a[i])!r},{float(self.group_means_b[i])!r}\n")


def subject_mixing_means(result: ICAResult, rows_per_subject: int, n_subjects: int) -> np.ndarray:
    """Average the mixing rows belonging to each subject: one weight vector per subject."""
    expected = rows_per_subject * n_subjects
    if result.mixing.shape[0] != expected:
        raise ShapeError(f"mixing has {result.mixing.shape[0]} rows, expected {expected}")
    return result.mixing.reshape(n_subjects, rows_per_subject, -1).mean(axis=1)


def group_difference_pipeline(model: Model, dataset, grid=None, k: int = 8,
                              q: float = 0.05, seed: int = 0,
                              max_iter: int = 500, tol: float = 1e-6):
    """Latent traversal -> spatial FastICA -> per-source Welch tests -> BH-FDR.

    Reconstructs the same latent sweep with every subject's weights (so
    differences are attributable to those weights alone), extracts ``k``
    spatial sources from the stacked reconstructions, averages each
    subject's mixing rows, and tests group a vs group b per source.  Of
    ``dataset`` it reads only ``subject_ids`` and ``groups()``, which a
    file's headers (a ``datasets._Source``) give as well as its rows.
    Returns (GroupDiffReport, ICAResult).
    """
    groups = dataset.groups()
    present = sorted(set(int(g) for g in groups if g >= 0))
    if len(present) != 2:
        raise GroupCountError(f"need exactly two groups, found {present}")
    if grid is None:
        grid = DEFAULT_TRAVERSAL_GRID
    grid = np.asarray(grid, dtype=np.float64)

    subject_idx = model.index_of(dataset.subject_ids)
    stacks = [latent_traversal(model, dim, grid, subject_idx)
              for dim in range(model.spec.latent_size)]
    # subject-major stack: rows of one subject are contiguous across (dim, grid point)
    per_subject = np.concatenate(stacks, axis=1)  # M x (d * G) x N
    n_subjects, rows_each, n_features = per_subject.shape
    ica = fastica(per_subject.reshape(n_subjects * rows_each, n_features),
                  k=k, seed=seed, max_iter=max_iter, tol=tol)

    weights = subject_mixing_means(ica, rows_each, n_subjects)
    mask_a = groups == present[0]
    mask_b = groups == present[1]
    t_stats = np.empty(k)
    p_values = np.empty(k)
    for j in range(k):
        t_stats[j], p_values[j] = welch_t_test(weights[mask_a, j], weights[mask_b, j])
    p_adjusted, rejected = bh_fdr(p_values, q)

    report = GroupDiffReport(
        t_stats=t_stats, p_values=p_values, p_adjusted=p_adjusted, rejected=rejected,
        group_means_a=weights[mask_a].mean(axis=0), group_means_b=weights[mask_b].mean(axis=0),
        group_labels=(present[0], present[1]),
        provenance={"grid": grid.tolist(), "k": k, "q": q, "seed": seed,
                    "ica_converged": ica.converged, "ica_iterations": ica.n_iter},
    )
    return report, ica
