"""Dense linear algebra kernels and the seeded randomness substrate.

Everything operates on float64 numpy arrays.  QR orthonormalization and
the SVD are LAPACK's (``numpy.linalg.qr`` and ``numpy.linalg.svd``); QR
flips columns so that the R-diagonal is positive, and PCA diagonalizes
the sample covariance with the SVD.  Across LAPACK builds their results
agree to roundoff, not bit for bit.  A singular vector may come back with
either sign, so ``pin_signs`` fixes each one by its largest-magnitude
entry wherever the sign reaches a result (``pca`` and FastICA's
whitening).

Randomness is drawn from numpy's Philox bit generator, a counter-based
generator whose full stream is determined by a 64-bit key.  Component
streams are split off a root seed with ``SeededRng.derive(tag)``, which
hashes ``(seed, tag)`` with SHA-256, so one global seed reproduces every
draw in an experiment.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ConvergenceError, NonFiniteError, RankDeficient, ShapeError


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
    """Orthonormalize the columns of ``m`` (r >= c) via LAPACK's reduced QR.

    Returns Q with Q.T @ Q = I and span(Q) = span(m).  Each column of Q is
    signed so that the implicit R has a positive diagonal, which pins the
    sign of every column and makes the routine idempotent up to float
    roundoff.

    Raises RankDeficient, naming the first pivot, when some |R_jj| falls
    below 1e-12.
    """
    a = as_matrix(m, "m")
    r, c = a.shape
    if r < c:
        raise ShapeError(f"need rows >= cols, got {r}x{c}")
    q, rr = np.linalg.qr(a)
    pivots = np.diag(rr)
    small = np.flatnonzero(np.abs(pivots) < 1e-12)
    if small.size:
        j = int(small[0])
        raise RankDeficient(f"pivot {j} has norm {abs(pivots[j]):.3e} < 1e-12")
    return q * np.sign(pivots)


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


def pin_signs(columns: np.ndarray) -> np.ndarray:
    """A copy of ``columns`` with each column's largest-magnitude entry positive.

    Singular vectors are defined only up to sign, and LAPACK builds differ
    in the sign they return; this rule makes the choice a function of the
    vector alone.
    """
    hot = np.argmax(np.abs(columns), axis=0)
    return columns * np.where(columns[hot, np.arange(columns.shape[1])] < 0, -1.0, 1.0)


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
        raise ShapeError(f"pca needs at least 2 rows, got {n}")
    if not 1 <= k <= min(n, d):
        raise ShapeError(f"k={k} out of range for {n}x{d} input")

    centered = xm - xm.mean(axis=0)
    cov = (centered.T @ centered) / (n - 1)
    eigvecs, eigvals, _ = svd_small(cov)

    components = pin_signs(eigvecs[:, :k])
    scores = centered @ components
    return components, scores, eigvals[:k].copy()
