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

Every map and dense layer returns from ``forward`` the cache its ``backward``
consumes.  ``encode``, ``decode`` and the loss share one encoder pass and one
decoder pass, so the loss sees what they return, the same ``eps`` draw
included.  ``loss_and_grads`` returns exact analytic gradients for every
parameter; see ``training.grad_check`` for the finite-difference gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import ConfigError, DimensionError, MissingLabels, ShapeError, UnknownSubject
from .linalg import SeededRng
from .maps import VARIANTS, DecomposedMap, GroupMap, SubjectMap, glorot_uniform

OBJECTIVES = ("classifier", "autoencoder", "vae")

LOGVAR_MIN = -20.0
LOGVAR_MAX = 20.0


def is_count(value, minimum: int) -> bool:
    """True for an int of at least ``minimum``; a bool, float or string is never one."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


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

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        return cls(**d)


class DenseLayer:
    """Affine layer with optional tanh."""

    def __init__(self, w: np.ndarray, b: np.ndarray, activation: str = "tanh"):
        if activation not in ("tanh", "linear"):
            raise ValueError(f"unknown activation {activation!r}")
        self.w = np.asarray(w, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        self.activation = activation

    @classmethod
    def initialize(cls, n_in: int, n_out: int, rng: SeededRng, activation: str) -> "DenseLayer":
        return cls(glorot_uniform(rng, n_in, n_out), np.zeros(n_out), activation)

    def forward(self, x: np.ndarray):
        y = x @ self.w + self.b
        y = np.tanh(y) if self.activation == "tanh" else y
        return y, (x, y)

    def backward(self, grad_y: np.ndarray, cache):
        x, y = cache
        pre = grad_y * (1.0 - y * y) if self.activation == "tanh" else grad_y
        return pre @ self.w.T, {"w": x.T @ pre, "b": pre.sum(axis=0)}


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

    def params(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for name, arr in self.enc_map.params().items():
            out[f"enc_map.{name}"] = arr
        for i, layer in enumerate(self.enc_layers):
            out[f"enc.{i}.w"] = layer.w
            out[f"enc.{i}.b"] = layer.b
        for i, layer in enumerate(self.dec_layers):
            out[f"dec.{i}.w"] = layer.w
            out[f"dec.{i}.b"] = layer.b
        if self.dec_map is not None:
            for name, arr in self.dec_map.params().items():
                out[f"dec_map.{name}"] = arr
        return out

    def decomposed_maps(self) -> list[DecomposedMap]:
        maps = [m for m in (self.enc_map, self.dec_map) if isinstance(m, DecomposedMap)]
        return maps

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


def _run_layers(layers: list[DenseLayer], h: np.ndarray):
    caches = []
    for layer in layers:
        h, cache = layer.forward(h)
        caches.append(cache)
    return h, caches


def _back_layers(layers, caches, grad, grads_out: dict, prefix: str):
    for i in range(len(layers) - 1, -1, -1):
        grad, layer_grads = layers[i].backward(grad, caches[i])
        grads_out[f"{prefix}.{i}.w"] = layer_grads["w"]
        grads_out[f"{prefix}.{i}.b"] = layer_grads["b"]
    return grad


def _split_head(head: np.ndarray, d: int):
    mu = head[:, :d]
    raw = head[:, d:]
    logvar = np.clip(raw, LOGVAR_MIN, LOGVAR_MAX)
    mask = (raw > LOGVAR_MIN) & (raw < LOGVAR_MAX)
    return mu, logvar, mask


def _encoder_forward(model: Model, x, subject_idx, rng, keep_cache: bool = False):
    """Encoder pass behind ``encode`` and the loss: (latent, xb, cache).

    cache is (map_cache, layer_caches, eps, clip_mask).  map_cache is None
    unless ``keep_cache``, so passes without gradients free it before the
    trunk runs; eps and clip_mask are set only for the VAE, eps only with rng.
    """
    spec = model.spec
    xb = np.asarray(x, dtype=np.float64)
    if xb.ndim != 2 or xb.shape[1] != spec.input_size:
        raise ShapeError(f"expected batch of width {spec.input_size}, got {xb.shape}")
    h0, map_cache = model.enc_map.forward(xb, subject_idx)
    map_cache = map_cache if keep_cache else None
    head, layer_caches = _run_layers(model.enc_layers, h0)
    if spec.objective != "vae":
        return LatentBatch(z=head), xb, (map_cache, layer_caches, None, None)
    mu, logvar, clip_mask = _split_head(head, spec.latent_size)
    eps = None if rng is None else rng.normal(mu.shape)
    z = mu.copy() if eps is None else mu + np.exp(0.5 * logvar) * eps
    return LatentBatch(z=z, mu=mu, logvar=logvar), xb, (map_cache, layer_caches, eps, clip_mask)


def _decoder_forward(model: Model, z, subject_idx):
    """The decoder pass behind ``decode`` and the loss: (xhat, (layer_caches, map_cache))."""
    if model.dec_map is None:
        raise ValueError("classifier models have no decoder")
    h, layer_caches = _run_layers(model.dec_layers, np.asarray(z, dtype=np.float64))
    xhat, map_cache = model.dec_map.forward(h, subject_idx)
    return xhat, (layer_caches, map_cache)


def encode(model: Model, x, subject_idx, rng: SeededRng | None = None) -> LatentBatch:
    """Map a batch to latents.

    For the VAE objective the latent is sampled via the reparameterization
    trick when ``rng`` is supplied and is the posterior mean otherwise.
    """
    return _encoder_forward(model, x, subject_idx, rng)[0]


def decode(model: Model, z, subject_idx) -> np.ndarray:
    return _decoder_forward(model, z, subject_idx)[0]


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
    value, breakdown, _ = _loss_impl(model, x, subject_idx, labels, rng, need_grads=False)
    return value, breakdown


def loss_and_grads(model: Model, x, subject_idx, labels=None, rng: SeededRng | None = None):
    """Objective value, breakdown and exact gradients keyed like ``Model.params``."""
    return _loss_impl(model, x, subject_idx, labels, rng, need_grads=True)


def _loss_impl(model: Model, x, subject_idx, labels, rng, need_grads: bool):
    spec = model.spec
    latent, xb, (emap_cache, enc_caches, eps, clip_mask) = _encoder_forward(
        model, x, subject_idx, rng, keep_cache=need_grads)
    batch = xb.shape[0]
    grads: dict[str, np.ndarray] = {}

    if spec.objective == "classifier":
        if labels is None:
            raise MissingLabels("classifier loss needs labels")
        y = np.asarray(labels, dtype=np.int64).ravel()
        if y.shape[0] != batch:
            raise ShapeError(f"{y.shape[0]} labels for batch of {batch}")
        probs = softmax(latent.z)
        picked = np.clip(probs[np.arange(batch), y], 1e-300, None)
        value = float(-np.log(picked).mean())
        breakdown = {"cross_entropy": value}
        if not need_grads:
            breakdown["accuracy"] = float((np.argmax(probs, axis=1) == y).mean())
            return value, breakdown, None
        grad_head = probs.copy()
        grad_head[np.arange(batch), y] -= 1.0
        grad_head /= batch
    else:
        xhat, (dec_caches, dmap_cache) = _decoder_forward(model, latent.z, subject_idx)
        resid = np.subtract(xhat, xb, out=xhat)  # xhat is dead: one fewer B x N array at peak
        mse = float((resid * resid).mean())
        mu, logvar = latent.mu, latent.logvar
        if spec.objective == "vae":
            kl_terms = mu * mu + np.exp(logvar) - 1.0 - logvar
            kl = float(0.5 * kl_terms.sum(axis=1).mean())
            value = mse + spec.beta * kl
            breakdown = {"mse": mse, "kl": kl}
        else:
            value = mse
            breakdown = {"mse": mse}
        if not need_grads:
            return value, breakdown, None

        grad_xhat = (2.0 / resid.size) * resid
        grad_hdec, dmap_grads = model.dec_map.backward(grad_xhat, dmap_cache)
        for name, g in dmap_grads.items():
            grads[f"dec_map.{name}"] = g
        grad_z = _back_layers(model.dec_layers, dec_caches, grad_hdec, grads, "dec")
        if spec.objective == "vae":
            grad_mu = grad_z + spec.beta * mu / batch
            grad_logvar = spec.beta * 0.5 * (np.exp(logvar) - 1.0) / batch
            if eps is not None:
                grad_logvar = grad_logvar + grad_z * eps * 0.5 * np.exp(0.5 * logvar)
            grad_head = np.concatenate([grad_mu, grad_logvar * clip_mask], axis=1)
        else:
            grad_head = grad_z

    grad_h0 = _back_layers(model.enc_layers, enc_caches, grad_head, grads, "enc")
    _, emap_grads = model.enc_map.backward(grad_h0, emap_cache, need_input_grad=False)
    for name, g in emap_grads.items():
        grads[f"enc_map.{name}"] = g
    return value, breakdown, grads


def latent_traversal(model: Model, dim: int, grid, subject_idx=None) -> np.ndarray:
    """Decode a sweep of one latent coordinate with each subject's weights.

    The latent points are shared across subjects, so differences between the
    returned stacks are attributable purely to subject-specific weights.
    Returns an array of shape (n_subjects, len(grid), N).
    """
    spec = model.spec
    if spec.objective == "classifier":
        raise ValueError("latent traversal needs a decoding objective")
    if not 0 <= dim < spec.latent_size:
        raise DimensionError(f"latent dim {dim} out of range [0, {spec.latent_size})")
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
