"""Dense linear algebra kernels and the seeded randomness substrate.

Everything operates on float64 numpy arrays.  QR orthonormalization is
hand-written: Householder reflections with the R-diagonal forced
positive.  The SVD is LAPACK's (``numpy.linalg.svd``), and PCA
diagonalizes the sample covariance with it.  Across LAPACK builds their
results agree to roundoff, not bit for bit, and a singular vector may come
back with the opposite sign.

Randomness is drawn from numpy's Philox bit generator, a counter-based
generator whose full stream is determined by a 64-bit key.  Component
streams are split off a root seed with ``SeededRng.derive(tag)``, which
hashes ``(seed, tag)`` with SHA-256, so one global seed reproduces every
draw in an experiment.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .errors import ConvergenceError, DimensionError, NonFiniteError, RankDeficient, ShapeError


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert to a finite float64 2-D array."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return m


def is_count(value, minimum: int) -> bool:
    """True for an int of at least ``minimum``; a bool, float or string is never one."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


class SeededRng:
    """Deterministic random source with hierarchical stream derivation.

    Backed by ``numpy.random.Philox`` keyed on a 64-bit seed.  Instances
    are single-owner: never share one across concurrent tasks; derive a
    child stream per task instead.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) % 2**64
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def derive(self, tag: str) -> "SeededRng":
        """Child stream keyed on SHA-256(seed || tag); independent of draws made so far."""
        payload = self.seed.to_bytes(8, "little") + tag.encode("utf-8")
        digest = hashlib.sha256(payload).digest()
        return SeededRng(int.from_bytes(digest[:8], "little"))

    def normal(self, size=None, scale: float = 1.0) -> np.ndarray:
        return self._gen.normal(0.0, scale, size)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size)

    def integers(self, low, high=None, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed})"


def qr_orthonormalize(m) -> np.ndarray:
    """Orthonormalize the columns of ``m`` (r >= c) via Householder QR.

    Returns Q with Q.T @ Q = I and span(Q) = span(m).  The implicit R has a
    positive diagonal, which pins the sign of every column and makes the
    routine idempotent up to float roundoff.

    Raises RankDeficient when a pivot column norm falls below 1e-12.
    """
    a = as_matrix(m, "m")
    r, c = a.shape
    if r < c:
        raise ShapeError(f"need rows >= cols, got {r}x{c}")

    work = a.copy()
    reflectors: list[np.ndarray] = []
    for j in range(c):
        x = work[j:, j].copy()
        norm_x = math.sqrt(float(x @ x))
        if norm_x < 1e-12:
            raise RankDeficient(f"pivot {j} has norm {norm_x:.3e} < 1e-12")
        v = x
        v[0] += math.copysign(norm_x, x[0] if x[0] != 0.0 else 1.0)
        v /= math.sqrt(float(v @ v))
        work[j:, j:] -= 2.0 * np.outer(v, v @ work[j:, j:])
        reflectors.append(v)

    q = np.eye(r, c)
    for j in range(c - 1, -1, -1):
        v = reflectors[j]
        q[j:, :] -= 2.0 * np.outer(v, v @ q[j:, :])

    # Householder leaves R_jj = -sign(x_0)*|x|; flip columns so diag(R) > 0.
    signs = np.sign(np.diag(work)[:c])
    signs[signs == 0.0] = 1.0
    return q * signs


def svd_small(m):
    """Thin SVD of a dense matrix: M = U @ diag(s) @ Vt, via LAPACK.

    For an r x c input with k = min(r, c), returns U (r x k), s (k) and
    Vt (k x c).  Singular values are non-negative and non-increasing; U has
    orthonormal columns and Vt orthonormal rows, zero singular directions
    included.  A LAPACK convergence failure raises ConvergenceError.
    """
    a = as_matrix(m, "m")
    try:
        return np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD of a {a.shape[0]}x{a.shape[1]} matrix: {exc}") from exc


def pca(x, k: int):
    """Principal components of the rows of ``x``.

    Returns ``(components, scores, explained_variance)`` where components
    is d x k with orthonormal columns, scores = (x - mean) @ components and
    explained_variance holds the top-k covariance eigenvalues (ddof=1),
    taken from the SVD of the d x d covariance.  The sign of each component
    is fixed so its largest-magnitude entry is positive, whatever sign
    LAPACK returned.
    """
    xm = as_matrix(x, "x")
    n, d = xm.shape
    if n < 2:
        raise DimensionError(f"pca needs at least 2 rows, got {n}")
    if not 1 <= k <= min(n, d):
        raise DimensionError(f"k={k} out of range for {n}x{d} input")

    centered = xm - xm.mean(axis=0)
    cov = (centered.T @ centered) / (n - 1)
    eigvecs, eigvals, _ = svd_small(cov)

    components = eigvecs[:, :k].copy()
    for j in range(k):
        hot = int(np.argmax(np.abs(components[:, j])))
        if components[hot, j] < 0:
            components[:, j] = -components[:, j]
    scores = centered @ components
    return components, scores, eigvals[:k].copy()
