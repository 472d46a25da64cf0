"""Subject-conditional linear map families.

Three interchangeable families translate between measurement space (width N)
and the network's first hidden width L:

* ``GroupMap``      - one weight matrix shared by every subject.
* ``SubjectMap``    - a full weight matrix per subject.
* ``DecomposedMap`` - shared bases V (N x L) and U (L x L, kept orthonormal
  by the training loop) with one scaling vector per subject, so a subject's
  effective matrix is V @ diag(s_i) @ U.T.

All maps take a batch plus one integer subject index per row.  ``forward``
validates both and returns ``(out, cache)``; the exact analytic
``backward(grad_out, cache, need_input_grad=True)`` reads only that cache and
returns ``(grad_x, grads)``, with ``grad_x`` None when not needed.  Bias
vectors are shared across subjects in every family, so subject differences
live purely in the linear part, in the one parameter that each family names
as its ``subject_param`` (``None`` for ``GroupMap``).  With ``params()``, this
is the layer protocol ``models.DenseLayer`` shares, so a model runs a map and
its dense trunk as one chain.  ``forward`` adds the bias in place into the
product it just made: the same sum as ``product + bias``, without a second
batch-sized array (B x N for an output map).

A per-subject gradient sums the batch rows of each subject.  ``backward``
builds it with one ``np.bincount`` over the flat element index
``idx * inner + arange(inner)``.  ``bincount`` adds in input order, as
numpy's unbuffered ``add.at`` does, so the two give the same bits; numpy
does not document that order, so ``tests/test_maps.py`` keeps the ``add.at``
scatter as the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, UnknownSubject
from .linalg import SeededRng, is_count, qr_orthonormalize

VARIANTS = ("group", "subject", "decomposed")


def glorot_uniform(rng: SeededRng, n_in: int, n_out: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-bound, bound, (n_in, n_out))


def _check_batch(x, n_in: int) -> np.ndarray:
    xb = np.asarray(x, dtype=np.float64)
    if xb.ndim != 2 or xb.shape[1] != n_in:
        raise ShapeError(f"expected batch of width {n_in}, got shape {xb.shape}")
    return xb


def _check_idx(subject_idx, n_rows: int, n_subjects: int) -> np.ndarray:
    idx = np.asarray(subject_idx, dtype=np.int64).ravel()
    if idx.shape[0] != n_rows:
        raise ShapeError(f"need one subject index per row: {idx.shape[0]} != {n_rows}")
    if idx.size and (idx.min() < 0 or idx.max() >= n_subjects):
        bad = idx[(idx < 0) | (idx >= n_subjects)][0]
        raise UnknownSubject(f"subject index {bad} has no weights (n_subjects={n_subjects})")
    return idx


def _scatter_rows(idx: np.ndarray, rows: np.ndarray, shape: tuple) -> np.ndarray:
    """Zeros of ``shape`` with each ``rows[b]`` added into entry ``idx[b]``, in batch order.

    One ``bincount`` over the flat index of every element: it adds in input
    order, as an unbuffered ``add.at`` into zeros does, so the sums are
    bit-identical to that scatter, which the tests keep as the oracle.
    """
    inner = math.prod(shape[1:])
    flat = (idx[:, None] * inner + np.arange(inner)).ravel()
    return np.bincount(flat, rows.ravel(), minlength=shape[0] * inner).reshape(shape)


class GroupMap:
    """Single linear layer shared across all subjects."""

    variant = "group"
    subject_param = None  # shared weights: valid for any subject

    def __init__(self, w: np.ndarray, bias: np.ndarray):
        self.w = np.asarray(w, dtype=np.float64)
        self.bias = np.asarray(bias, dtype=np.float64)
        if self.w.ndim != 2 or self.bias.shape != (self.w.shape[1],):
            raise ShapeError(f"inconsistent group map shapes {self.w.shape}, {self.bias.shape}")

    @classmethod
    def initialize(cls, n_in: int, n_out: int, rng: SeededRng) -> "GroupMap":
        return cls(glorot_uniform(rng, n_in, n_out), np.zeros(n_out))

    @property
    def n_in(self) -> int:
        return self.w.shape[0]

    @property
    def n_out(self) -> int:
        return self.w.shape[1]

    def params(self) -> dict[str, np.ndarray]:
        return {"w": self.w, "bias": self.bias}

    def forward(self, x, subject_idx=None):
        xb = _check_batch(x, self.n_in)
        out = xb @ self.w
        out += self.bias
        return out, xb

    def backward(self, grad_out, cache, need_input_grad: bool = True):
        grads = {"w": cache.T @ grad_out, "bias": grad_out.sum(axis=0)}
        return (grad_out @ self.w.T if need_input_grad else None), grads


class _PerSubject:
    """A map whose parameter named ``subject_param`` holds one row per subject."""

    subject_param: str

    @property
    def n_subjects(self) -> int:
        return getattr(self, self.subject_param).shape[0]

    def add_subjects(self, count: int) -> None:
        """Append ``count`` new per-subject rows initialized at the mean of the existing ones."""
        rows = getattr(self, self.subject_param)
        setattr(self, self.subject_param,
                np.concatenate([rows, np.repeat(rows.mean(axis=0)[None], count, axis=0)]))


class SubjectMap(_PerSubject):
    """One full weight matrix per subject; bias shared."""

    variant = "subject"
    subject_param = "w"

    def __init__(self, w: np.ndarray, bias: np.ndarray):
        self.w = np.asarray(w, dtype=np.float64)
        self.bias = np.asarray(bias, dtype=np.float64)
        if self.w.ndim != 3 or self.bias.shape != (self.w.shape[2],):
            raise ShapeError(f"inconsistent subject map shapes {self.w.shape}, {self.bias.shape}")

    @classmethod
    def initialize(cls, n_in: int, n_out: int, n_subjects: int, rng: SeededRng) -> "SubjectMap":
        w = np.stack([glorot_uniform(rng, n_in, n_out) for _ in range(n_subjects)])
        return cls(w, np.zeros(n_out))

    @property
    def n_in(self) -> int:
        return self.w.shape[1]

    @property
    def n_out(self) -> int:
        return self.w.shape[2]

    def params(self) -> dict[str, np.ndarray]:
        return {"w": self.w, "bias": self.bias}

    def forward(self, x, subject_idx):
        xb = _check_batch(x, self.n_in)
        idx = _check_idx(subject_idx, xb.shape[0], self.n_subjects)
        # the cache keeps idx, not the B x N x L gather w[idx], to bound peak memory
        out = np.einsum("bi,bio->bo", xb, self.w[idx])
        out += self.bias
        return out, (xb, idx)

    def backward(self, grad_out, cache, need_input_grad: bool = True):
        (xb, idx), g = cache, grad_out
        grads = {"w": _scatter_rows(idx, np.einsum("bi,bo->bio", xb, g), self.w.shape),
                 "bias": g.sum(axis=0)}
        grad_x = np.einsum("bo,bio->bi", g, self.w[idx]) if need_input_grad else None
        return grad_x, grads


class DecomposedMap(_PerSubject):
    """Shared bases with per-subject scaling of the hidden coordinates.

    ``direction="reduce"`` maps N -> L as ((x @ v) * s_i) @ u.T + bias;
    ``direction="expand"`` maps L -> N as ((x @ u) * s_i) @ v.T + bias.
    v is N x L, u is L x L, s is one row of L scalings per subject.
    Orthonormality of u is a training-loop contract, not enforced here;
    v is never constrained.
    """

    variant = "decomposed"
    subject_param = "s"

    def __init__(self, v: np.ndarray, u: np.ndarray, s: np.ndarray, bias: np.ndarray,
                 direction: str = "reduce"):
        if direction not in ("reduce", "expand"):
            raise ConfigError(f"direction must be 'reduce' or 'expand', got {direction!r}")
        self.v = np.asarray(v, dtype=np.float64)
        self.u = np.asarray(u, dtype=np.float64)
        self.s = np.asarray(s, dtype=np.float64)
        self.bias = np.asarray(bias, dtype=np.float64)
        self.direction = direction
        hidden = self.v.shape[1]
        if self.u.shape != (hidden, hidden) or self.s.ndim != 2 or self.s.shape[1] != hidden:
            raise ShapeError(
                f"inconsistent decomposed shapes v={self.v.shape} u={self.u.shape} s={self.s.shape}"
            )
        if self.bias.shape != (self.n_out,):
            raise ShapeError(f"bias shape {self.bias.shape} != ({self.n_out},)")

    @classmethod
    def initialize(cls, n_wide: int, n_hidden: int, n_subjects: int, rng: SeededRng,
                   direction: str = "reduce") -> "DecomposedMap":
        # s starts at all-ones so every subject begins at the shared map and
        # subject divergence is learned rather than injected.
        v = glorot_uniform(rng, n_wide, n_hidden)
        u = qr_orthonormalize(rng.normal((n_hidden, n_hidden)))
        s = np.ones((n_subjects, n_hidden))
        n_out = n_hidden if direction == "reduce" else n_wide
        return cls(v, u, s, np.zeros(n_out), direction)

    @property
    def n_hidden(self) -> int:
        return self.v.shape[1]

    @property
    def n_wide(self) -> int:
        return self.v.shape[0]

    @property
    def n_in(self) -> int:
        return self.n_wide if self.direction == "reduce" else self.n_hidden

    @property
    def n_out(self) -> int:
        return self.n_hidden if self.direction == "reduce" else self.n_wide

    def params(self) -> dict[str, np.ndarray]:
        return {"v": self.v, "u": self.u, "s": self.s, "bias": self.bias}

    def collapsed(self, row: np.ndarray) -> np.ndarray:
        """Effective n_in x n_out matrix for one scaling row."""
        w = self.v @ np.diag(np.asarray(row, dtype=np.float64)) @ self.u.T
        return w if self.direction == "reduce" else w.T

    def forward(self, x, subject_idx):
        xb = _check_batch(x, self.n_in)
        idx = _check_idx(subject_idx, xb.shape[0], self.n_subjects)
        first, second = (self.v, self.u) if self.direction == "reduce" else (self.u, self.v)
        proj = xb @ first                  # B x L
        s_rows = self.s[idx]               # B x L
        scaled = proj * s_rows
        out = scaled @ second.T
        out += self.bias
        return out, (xb, idx, proj, s_rows, scaled)

    def backward(self, grad_out, cache, need_input_grad: bool = True):
        (xb, idx, proj, s_rows, scaled), g = cache, grad_out
        first, second = (self.v, self.u) if self.direction == "reduce" else (self.u, self.v)
        grad_second = g.T @ scaled         # out x L
        grad_scaled = g @ second           # B x L
        grad_s = _scatter_rows(idx, grad_scaled * proj, self.s.shape)
        grad_proj = grad_scaled * s_rows
        grad_first = xb.T @ grad_proj      # in x L
        grad_x = grad_proj @ first.T if need_input_grad else None

        if self.direction == "reduce":
            grads = {"v": grad_first, "u": grad_second, "s": grad_s, "bias": g.sum(axis=0)}
        else:
            grads = {"v": grad_second, "u": grad_first, "s": grad_s, "bias": g.sum(axis=0)}
        return grad_x, grads


@dataclass(frozen=True)
class ParamRegime:
    """Sizing regime for the parameter-count calculator."""

    input_size: int
    hidden_size: int
    n_subjects: int

    def __post_init__(self):
        for field in ("input_size", "hidden_size", "n_subjects"):
            value = getattr(self, field)
            if not is_count(value, 1):
                raise ConfigError(f"{field} must be a positive integer, got {value!r}")


def param_count(variant: str, regime: ParamRegime, *, both_sides: bool = False) -> int:
    """Exact weight count of one map (bias excluded) in the given regime.

    group:      IS * HS
    subject:    IS * HS * NS
    decomposed: IS * HS + HS * HS + HS * NS

    ``both_sides=True`` doubles the count to cover an encoder/decoder pair.
    """
    us, hs, ns = regime.input_size, regime.hidden_size, regime.n_subjects
    if variant == "group":
        n = us * hs
    elif variant == "subject":
        n = us * hs * ns
    elif variant == "decomposed":
        n = us * hs + hs * hs + hs * ns
    else:
        raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    return 2 * n if both_sides else n
