"""Classifier, autoencoder and VAE built on the subject map families.

A model is: subject input map (N -> L), a tanh MLP trunk, and a linear head.
Autoencoding objectives add the mirrored decoder: linear + tanh trunk back to
L, then a subject output map (L -> N).  The trunk activation is fixed to tanh
so finite-difference gradient checks are clean.

Losses:
  classifier   mean softmax cross-entropy (labels required)
  autoencoder  mean squared error over all entries
  vae          MSE reconstruction plus beta * KL(N(mu, sigma^2) || N(0, I)),
               with log-variances clamped to [-20, 20]

Maps and dense layers share one protocol: ``params()``, ``forward(x,
subject_idx) -> (out, cache)``, ``backward(grad, cache, need_input_grad)``
and ``subject_param``.  A model is two ``(name, layer)`` chains, built once:
the encoder ``enc_map, enc.0, ...`` and the decoder ``dec.0, ..., dec_map``
(empty for a classifier); ``<name>.<param>`` names each parameter and
checkpoint blob.  One forward and one backward pass walk either chain, and a
pass without gradients keeps no layer's cache.  ``encode``, ``decode`` and
the loss share these passes, the same ``eps`` draw included.
``loss_and_grads`` returns exact analytic gradients for every parameter; see
``training.grad_check`` for the finite-difference gate.  The loss is computed
as sums over the batch's rows (``loss_terms``) and divided once
(``loss_of_terms``), so the terms of several batches add up to those of all
their rows: ``training.evaluate_loss`` scores a dataset block by block.

Biases, tanh, the residual and the output gradient are computed in place,
in arrays the pass has just made.  Each is the same IEEE operation on the
same operands as its out-of-place form, so results are unchanged and no
extra B x N array is allocated.  Nor is one made to sum the squared
residual: a pass without gradients squares the residual where it lies, and
a training pass, whose residual becomes the output gradient, squares it in
sub-blocks of ``_SQUARE_BLOCK_ELEMENTS`` elements through one 1 MiB scratch
array (``_sum_of_squares``).  Up to one sub-block that is the one-array sum
bit for bit; above, the sum moves by roundoff only.  Inputs are never
written: a batch may be a dataset's own storage.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import ConfigError, MissingLabels, ShapeError, UnknownSubject
from .linalg import SeededRng, is_count
from .maps import VARIANTS, DecomposedMap, GroupMap, SubjectMap, glorot_uniform

OBJECTIVES = ("classifier", "autoencoder", "vae")

LOGVAR_MIN = -20.0
LOGVAR_MAX = 20.0

# _sum_of_squares squares at most this many elements (1 MiB of float64) at a time
_SQUARE_BLOCK_ELEMENTS = 2 ** 17


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; all widths in units of features."""

    variant: str
    objective: str
    input_size: int
    first_layer_width: int
    latent_size: int
    n_subjects: int
    trunk_widths: tuple[int, ...] = ()
    n_classes: int | None = None
    beta: float = 1.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        for name in ("input_size", "first_layer_width", "latent_size", "n_subjects"):
            value = getattr(self, name)
            if not is_count(value, 1):
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if not isinstance(self.trunk_widths, (list, tuple)) or not all(
                is_count(w, 1) for w in self.trunk_widths):
            raise ConfigError(f"trunk_widths must be positive integers, got {self.trunk_widths!r}")
        object.__setattr__(self, "trunk_widths", tuple(self.trunk_widths))
        if self.objective == "classifier":
            if not is_count(self.n_classes, 2):
                raise ConfigError(f"a classifier needs n_classes >= 2, got {self.n_classes!r}")
            if self.latent_size != self.n_classes:
                raise ConfigError("classifier latent_size must equal n_classes (logit width)")
        if self.beta < 0:
            raise ConfigError("beta must be non-negative")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["trunk_widths"] = list(self.trunk_widths)
        return d


class DenseLayer:
    """Affine layer with optional tanh."""

    subject_param = None

    def __init__(self, w: np.ndarray, b: np.ndarray, activation: str = "tanh"):
        if activation not in ("tanh", "linear"):
            raise ConfigError(f"unknown activation {activation!r}")
        self.w = np.asarray(w, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        self.activation = activation

    @classmethod
    def initialize(cls, n_in: int, n_out: int, rng: SeededRng, activation: str) -> "DenseLayer":
        return cls(glorot_uniform(rng, n_in, n_out), np.zeros(n_out), activation)

    def params(self) -> dict[str, np.ndarray]:
        return {"w": self.w, "b": self.b}

    def forward(self, x: np.ndarray, subject_idx=None):
        y = x @ self.w
        y += self.b
        if self.activation == "tanh":
            np.tanh(y, out=y)
        return y, (x, y)

    def backward(self, grad_y: np.ndarray, cache, need_input_grad: bool = True):
        x, y = cache
        pre = grad_y * (1.0 - y * y) if self.activation == "tanh" else grad_y
        grad_x = pre @ self.w.T if need_input_grad else None
        return grad_x, {"w": x.T @ pre, "b": pre.sum(axis=0)}


@dataclass
class LatentBatch:
    """Encoder output; mu/logvar populated only for the VAE objective."""

    z: np.ndarray
    mu: np.ndarray | None = None
    logvar: np.ndarray | None = None


@dataclass
class Model:
    spec: ModelSpec
    subject_ids: tuple[str, ...]
    enc_map: GroupMap | SubjectMap | DecomposedMap
    enc_layers: list[DenseLayer]
    dec_layers: list[DenseLayer] = field(default_factory=list)
    dec_map: GroupMap | SubjectMap | DecomposedMap | None = None
    init_seed: int = 0

    def __post_init__(self):
        self.encoder = [("enc_map", self.enc_map),
                        *((f"enc.{i}", layer) for i, layer in enumerate(self.enc_layers))]
        self.decoder = [*((f"dec.{i}", layer) for i, layer in enumerate(self.dec_layers)),
                        *([("dec_map", self.dec_map)] if self.dec_map is not None else [])]

    @property
    def n_subjects(self) -> int:
        return len(self.subject_ids)

    def index_of(self, ids) -> np.ndarray:
        """Translate subject id strings to integer row indices.

        Group models have no per-subject weights, so ids unknown to them
        resolve to index 0 rather than failing; the index is never used.
        """
        lookup = {sid: i for i, sid in enumerate(self.subject_ids)}
        try:
            return np.array([lookup[s] for s in ids], dtype=np.int64)
        except KeyError as exc:
            if self.spec.variant == "group":
                return np.array([lookup.get(s, 0) for s in ids], dtype=np.int64)
            raise UnknownSubject(f"subject id {exc.args[0]!r} not in model") from None

    def layers(self) -> list:
        return self.encoder + self.decoder

    def params(self) -> dict[str, np.ndarray]:
        return {f"{name}.{key}": arr
                for name, layer in self.layers() for key, arr in layer.params().items()}

    def decomposed_maps(self) -> list[DecomposedMap]:
        return [layer for _, layer in self.layers() if isinstance(layer, DecomposedMap)]

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params().items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for k, v in self.params().items():
            v[...] = snap[k]


def _make_map(spec: ModelSpec, rng: SeededRng, direction: str):
    wide, hidden = spec.input_size, spec.first_layer_width
    n_in, n_out = (wide, hidden) if direction == "reduce" else (hidden, wide)
    if spec.variant == "group":
        return GroupMap.initialize(n_in, n_out, rng)
    if spec.variant == "subject":
        return SubjectMap.initialize(n_in, n_out, spec.n_subjects, rng)
    return DecomposedMap.initialize(wide, hidden, spec.n_subjects, rng, direction)


def _make_trunk(widths: list[int], rng: SeededRng) -> list[DenseLayer]:
    """Dense layers between consecutive widths: tanh, except the last, which is linear."""
    return [DenseLayer.initialize(n_in, n_out, rng, "tanh" if i + 2 < len(widths) else "linear")
            for i, (n_in, n_out) in enumerate(zip(widths, widths[1:]))]


def build_model(spec: ModelSpec, seed: int, subject_ids=None) -> Model:
    """Construct a model with deterministic Glorot/orthonormal initialization."""
    if subject_ids is None:
        width = max(3, len(str(spec.n_subjects - 1)))
        subject_ids = tuple(f"s{i:0{width}d}" for i in range(spec.n_subjects))
    else:
        subject_ids = tuple(subject_ids)
        if len(subject_ids) != spec.n_subjects:
            raise ShapeError(f"{len(subject_ids)} subject ids for n_subjects={spec.n_subjects}")

    rng = SeededRng(seed)
    enc_map = _make_map(spec, rng.derive("enc_map"), "reduce")

    head = spec.n_classes if spec.objective == "classifier" else (
        2 * spec.latent_size if spec.objective == "vae" else spec.latent_size)
    enc_layers = _make_trunk([spec.first_layer_width, *spec.trunk_widths, head],
                             rng.derive("enc_trunk"))

    dec_layers: list[DenseLayer] = []
    dec_map = None
    if spec.objective != "classifier":
        dec_layers = _make_trunk(
            [spec.latent_size, *reversed(spec.trunk_widths), spec.first_layer_width],
            rng.derive("dec_trunk"))
        dec_map = _make_map(spec, rng.derive("dec_map"), "expand")

    return Model(spec=spec, subject_ids=subject_ids, enc_map=enc_map,
                 enc_layers=enc_layers, dec_layers=dec_layers, dec_map=dec_map,
                 init_seed=int(seed))


def _forward(chain: list, h: np.ndarray, subject_idx, keep_caches: bool):
    """(output, caches) of ``h`` through ``chain``.  Without ``keep_caches`` no cache outlives
    its layer's call, so each intermediate is freed once the next layer has returned."""
    caches = []
    for _, layer in chain:
        if keep_caches:
            h, cache = layer.forward(h, subject_idx)
            caches.append(cache)
        else:
            h = layer.forward(h, subject_idx)[0]
    return h, caches


def _backward(chain: list, caches: list, grad: np.ndarray, grads: dict, need_input_grad: bool):
    """Gradient of ``chain``'s input; each parameter's lands in ``grads`` by its params name."""
    for i in range(len(chain) - 1, -1, -1):
        name, layer = chain[i]
        grad, layer_grads = layer.backward(grad, caches[i], need_input_grad or i > 0)
        for key, g in layer_grads.items():
            grads[f"{name}.{key}"] = g
    return grad


def _split_head(head: np.ndarray, d: int):
    mu = head[:, :d]
    raw = head[:, d:]
    logvar = np.clip(raw, LOGVAR_MIN, LOGVAR_MAX)
    mask = (raw > LOGVAR_MIN) & (raw < LOGVAR_MAX)
    return mu, logvar, mask


def _encoder_forward(model: Model, x, subject_idx, rng, keep_caches: bool = False):
    """(latent, xb, (caches, eps, clip_mask)); eps and clip_mask only for the VAE, eps with rng."""
    spec = model.spec
    xb = np.asarray(x, dtype=np.float64)
    head, caches = _forward(model.encoder, xb, subject_idx, keep_caches)
    if spec.objective != "vae":
        return LatentBatch(z=head), xb, (caches, None, None)
    mu, logvar, clip_mask = _split_head(head, spec.latent_size)
    eps = None if rng is None else rng.normal(mu.shape)
    z = mu.copy() if eps is None else mu + np.exp(0.5 * logvar) * eps
    return LatentBatch(z=z, mu=mu, logvar=logvar), xb, (caches, eps, clip_mask)


def encode(model: Model, x, subject_idx, rng: SeededRng | None = None) -> LatentBatch:
    """Map a batch to latents.

    For the VAE objective the latent is sampled via the reparameterization
    trick when ``rng`` is supplied and is the posterior mean otherwise.
    """
    return _encoder_forward(model, x, subject_idx, rng)[0]


def decode(model: Model, z, subject_idx) -> np.ndarray:
    if not model.decoder:
        raise ConfigError("classifier models have no decoder")
    return _forward(model.decoder, np.asarray(z, dtype=np.float64), subject_idx, False)[0]


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def loss(model: Model, x, subject_idx, labels=None, rng: SeededRng | None = None):
    """Objective value and per-term breakdown for one batch.

    The classifier breakdown also carries the batch ``accuracy``; for the
    VAE, ``mse`` is the reconstruction error of the posterior mean when no
    ``rng`` is given.
    """
    return loss_of_terms(model.spec, loss_terms(model, x, subject_idx, labels, rng))


def loss_terms(model: Model, x, subject_idx, labels=None, rng: SeededRng | None = None) -> dict:
    """``loss``'s terms on one batch, summed over its rows and not yet divided.

    ``rows`` counts the rows; a classifier adds ``cross_entropy`` (the sum
    of the per-row cross-entropies) and ``correct`` (the number of rows
    whose largest logit is the label), an autoencoder ``squared_error`` (the
    sum of the squared residuals) and a VAE also ``kl`` (the sum of the
    per-row KL divergences, before their factor 0.5).  The terms of several
    batches add up to those of their union, so ``loss_of_terms`` of the sum
    scores all of them at once.
    """
    return _loss_impl(model, x, subject_idx, labels, rng, need_grads=False)[0]


def loss_of_terms(spec: ModelSpec, terms: dict) -> tuple[float, dict]:
    """``(value, breakdown)`` from ``loss_terms``, or their sum over batches: divides once.

    Each mean is its sum divided by its count, which is what ``np.mean``
    computes, so one batch's terms give ``np.mean``'s bits.
    """
    rows = terms["rows"]
    if spec.objective == "classifier":
        value = float(terms["cross_entropy"] / rows)
        breakdown = {"cross_entropy": value}
        if "correct" in terms:
            breakdown["accuracy"] = float(terms["correct"] / rows)
        return value, breakdown
    mse = float(terms["squared_error"] / (rows * spec.input_size))
    if spec.objective == "vae":
        kl = float(0.5 * (terms["kl"] / rows))
        return mse + spec.beta * kl, {"mse": mse, "kl": kl}
    return mse, {"mse": mse}


def _sum_of_squares(a: np.ndarray):
    """``(a * a).sum()`` without an array of ``a``'s size when ``a`` is large.

    Up to ``_SQUARE_BLOCK_ELEMENTS`` elements it is that expression, bit for
    bit.  Above, ``a`` is squared in consecutive sub-blocks of that many
    elements through one scratch array and their sums are added, which
    moves the result by roundoff only.
    """
    if a.size <= _SQUARE_BLOCK_ELEMENTS:
        return (a * a).sum()
    flat = a.ravel(order="K")  # a view of any C- or F-contiguous array
    scratch = np.empty(_SQUARE_BLOCK_ELEMENTS, dtype=a.dtype)
    total = a.dtype.type(0)
    for begin in range(0, flat.size, _SQUARE_BLOCK_ELEMENTS):
        chunk = flat[begin:begin + _SQUARE_BLOCK_ELEMENTS]
        total += np.multiply(chunk, chunk, out=scratch[:chunk.size]).sum()
    return total


def loss_and_grads(model: Model, x, subject_idx, labels=None, rng: SeededRng | None = None):
    """Objective value, breakdown and exact gradients keyed like ``Model.params``."""
    terms, grads = _loss_impl(model, x, subject_idx, labels, rng, need_grads=True)
    return (*loss_of_terms(model.spec, terms), grads)


def _loss_impl(model: Model, x, subject_idx, labels, rng, need_grads: bool):
    """``(loss_terms, grads)``; grads is None, and a classifier counts no ``correct``
    rows, unless ``need_grads``."""
    spec = model.spec
    latent, xb, (enc_caches, eps, clip_mask) = _encoder_forward(
        model, x, subject_idx, rng, keep_caches=need_grads)
    batch = xb.shape[0]
    terms = {"rows": batch}
    grads: dict[str, np.ndarray] = {}

    if spec.objective == "classifier":
        if labels is None:
            raise MissingLabels("classifier loss needs labels")
        y = np.asarray(labels, dtype=np.int64).ravel()
        if y.shape[0] != batch:
            raise ShapeError(f"{y.shape[0]} labels for batch of {batch}")
        probs = softmax(latent.z)
        picked = np.clip(probs[np.arange(batch), y], 1e-300, None)
        terms["cross_entropy"] = -np.log(picked).sum()
        if not need_grads:
            terms["correct"] = (np.argmax(probs, axis=1) == y).sum()
            return terms, None
        grad_head = probs.copy()
        grad_head[np.arange(batch), y] -= 1.0
        grad_head /= batch
    else:
        xhat, dec_caches = _forward(model.decoder, latent.z, subject_idx, need_grads)
        resid = np.subtract(xhat, xb, out=xhat)  # xhat is dead: one fewer B x N array at peak
        if need_grads:  # resid becomes the gradient: square it a sub-block at a time
            terms["squared_error"] = _sum_of_squares(resid)
        else:  # resid is dead after this: square it where it lies
            terms["squared_error"] = np.multiply(resid, resid, out=resid).sum()
        mu, logvar = latent.mu, latent.logvar
        if spec.objective == "vae":
            kl_terms = mu * mu + np.exp(logvar) - 1.0 - logvar
            terms["kl"] = kl_terms.sum(axis=1).sum()
        if not need_grads:
            return terms, None

        grad_xhat = np.multiply(resid, 2.0 / resid.size, out=resid)
        grad_z = _backward(model.decoder, dec_caches, grad_xhat, grads, True)
        if spec.objective == "vae":
            grad_mu = grad_z + spec.beta * mu / batch
            grad_logvar = spec.beta * 0.5 * (np.exp(logvar) - 1.0) / batch
            if eps is not None:
                grad_logvar = grad_logvar + grad_z * eps * 0.5 * np.exp(0.5 * logvar)
            grad_head = np.concatenate([grad_mu, grad_logvar * clip_mask], axis=1)
        else:
            grad_head = grad_z

    _backward(model.encoder, enc_caches, grad_head, grads, False)
    return terms, grads


def latent_traversal(model: Model, dim: int, grid, subject_idx=None) -> np.ndarray:
    """Decode a sweep of one latent coordinate with each subject's weights.

    The latent points are shared across subjects, so differences between the
    returned stacks are attributable purely to subject-specific weights.
    Returns an array of shape (n_subjects, len(grid), N).
    """
    spec = model.spec
    if not 0 <= dim < spec.latent_size:
        raise ShapeError(f"latent dim {dim} out of range [0, {spec.latent_size})")
    grid = np.asarray(grid, dtype=np.float64).ravel()
    if subject_idx is None:
        subject_idx = np.arange(model.n_subjects)
    subject_idx = np.asarray(subject_idx, dtype=np.int64)

    points = np.zeros((grid.size, spec.latent_size))
    points[:, dim] = grid
    out = np.empty((subject_idx.size, grid.size, spec.input_size))
    for row, si in enumerate(subject_idx):
        out[row] = decode(model, points, np.full(grid.size, si))
    return out
