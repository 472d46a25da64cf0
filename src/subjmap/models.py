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

``loss_and_grads`` returns exact analytic gradients for every parameter;
see ``training.grad_check`` for the finite-difference gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import DimensionError, MissingLabels, ShapeError, UnknownSubject
from .linalg import SeededRng
from .maps import VARIANTS, DecomposedMap, GroupMap, SubjectMap, glorot_uniform

OBJECTIVES = ("classifier", "autoencoder", "vae")

LOGVAR_MIN = -20.0
LOGVAR_MAX = 20.0


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
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        for name in ("input_size", "first_layer_width", "latent_size", "n_subjects"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        object.__setattr__(self, "trunk_widths", tuple(int(w) for w in self.trunk_widths))
        if any(w < 1 for w in self.trunk_widths):
            raise ValueError("trunk widths must be positive")
        if self.objective == "classifier":
            if self.n_classes is None or self.n_classes < 2:
                raise ValueError("classifier objective needs n_classes >= 2")
            if self.latent_size != self.n_classes:
                raise ValueError("classifier latent_size must equal n_classes (logit width)")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["trunk_widths"] = list(self.trunk_widths)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        d = dict(d)
        d["trunk_widths"] = tuple(d.get("trunk_widths", ()))
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

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = x @ self.w + self.b
        return np.tanh(y) if self.activation == "tanh" else y

    def backward(self, x: np.ndarray, y: np.ndarray, grad_y: np.ndarray):
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
    if spec.variant == "group":
        if direction == "reduce":
            return GroupMap.initialize(spec.input_size, spec.first_layer_width, rng)
        return GroupMap.initialize(spec.first_layer_width, spec.input_size, rng)
    if spec.variant == "subject":
        if direction == "reduce":
            return SubjectMap.initialize(spec.input_size, spec.first_layer_width,
                                         spec.n_subjects, rng)
        return SubjectMap.initialize(spec.first_layer_width, spec.input_size,
                                     spec.n_subjects, rng)
    return DecomposedMap.initialize(spec.input_size, spec.first_layer_width,
                                    spec.n_subjects, rng, direction)


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
    enc_widths = [spec.first_layer_width, *spec.trunk_widths, head]
    enc_rng = rng.derive("enc_trunk")
    enc_layers = [
        DenseLayer.initialize(enc_widths[i], enc_widths[i + 1], enc_rng,
                              "tanh" if i + 2 < len(enc_widths) else "linear")
        for i in range(len(enc_widths) - 1)
    ]

    dec_layers: list[DenseLayer] = []
    dec_map = None
    if spec.objective != "classifier":
        dec_widths = [spec.latent_size, *reversed(spec.trunk_widths), spec.first_layer_width]
        dec_rng = rng.derive("dec_trunk")
        dec_layers = [
            DenseLayer.initialize(dec_widths[i], dec_widths[i + 1], dec_rng,
                                  "tanh" if i + 2 < len(dec_widths) else "linear")
            for i in range(len(dec_widths) - 1)
        ]
        dec_map = _make_map(spec, rng.derive("dec_map"), "expand")

    return Model(spec=spec, subject_ids=subject_ids, enc_map=enc_map,
                 enc_layers=enc_layers, dec_layers=dec_layers, dec_map=dec_map,
                 init_seed=int(seed))


def _run_layers(layers: list[DenseLayer], h: np.ndarray):
    caches = []
    for layer in layers:
        out = layer.forward(h)
        caches.append((h, out))
        h = out
    return h, caches


def _back_layers(layers, caches, grad, grads_out: dict, prefix: str):
    for i in range(len(layers) - 1, -1, -1):
        inp, out = caches[i]
        grad, layer_grads = layers[i].backward(inp, out, grad)
        grads_out[f"{prefix}.{i}.w"] = layer_grads["w"]
        grads_out[f"{prefix}.{i}.b"] = layer_grads["b"]
    return grad


def _split_head(head: np.ndarray, d: int):
    mu = head[:, :d]
    raw = head[:, d:]
    logvar = np.clip(raw, LOGVAR_MIN, LOGVAR_MAX)
    mask = (raw > LOGVAR_MIN) & (raw < LOGVAR_MAX)
    return mu, logvar, mask


def encode(model: Model, x, subject_idx, rng: SeededRng | None = None) -> LatentBatch:
    """Map a batch to latents.

    For the VAE objective the latent is sampled via the reparameterization
    trick when ``rng`` is supplied and is the posterior mean otherwise.
    """
    if np.asarray(x).shape[-1] != model.spec.input_size:
        raise ShapeError(f"input width {np.asarray(x).shape[-1]} != {model.spec.input_size}")
    h = model.enc_map.forward(x, subject_idx)
    h, _ = _run_layers(model.enc_layers, h)
    if model.spec.objective != "vae":
        return LatentBatch(z=h)
    mu, logvar, _ = _split_head(h, model.spec.latent_size)
    if rng is None:
        z = mu.copy()
    else:
        z = mu + np.exp(0.5 * logvar) * rng.normal(mu.shape)
    return LatentBatch(z=z, mu=mu, logvar=logvar)


def decode(model: Model, z, subject_idx) -> np.ndarray:
    if model.dec_map is None:
        raise ValueError("classifier models have no decoder")
    h, _ = _run_layers(model.dec_layers, np.asarray(z, dtype=np.float64))
    return model.dec_map.forward(h, subject_idx)


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
    xb = np.asarray(x, dtype=np.float64)
    if xb.ndim != 2 or xb.shape[1] != spec.input_size:
        raise ShapeError(f"expected batch of width {spec.input_size}, got {xb.shape}")
    batch = xb.shape[0]

    h0 = model.enc_map.forward(xb, subject_idx)
    head, enc_caches = _run_layers(model.enc_layers, h0)
    grads: dict[str, np.ndarray] = {}

    if spec.objective == "classifier":
        if labels is None:
            raise MissingLabels("classifier loss needs labels")
        y = np.asarray(labels, dtype=np.int64).ravel()
        if y.shape[0] != batch:
            raise ShapeError(f"{y.shape[0]} labels for batch of {batch}")
        probs = softmax(head)
        picked = np.clip(probs[np.arange(batch), y], 1e-300, None)
        value = float(-np.log(picked).mean())
        breakdown = {"cross_entropy": value}
        if not need_grads:
            breakdown["accuracy"] = float((np.argmax(probs, axis=1) == y).mean())
            return value, breakdown, None
        grad_head = probs.copy()
        grad_head[np.arange(batch), y] -= 1.0
        grad_head /= batch
        grad_h0 = _back_layers(model.enc_layers, enc_caches, grad_head, grads, "enc")
        _, map_grads = model.enc_map.backward(xb, subject_idx, grad_h0)
        for name, g in map_grads.items():
            grads[f"enc_map.{name}"] = g
        return value, breakdown, grads

    # autoencoding objectives
    d = spec.latent_size
    eps = None
    if spec.objective == "vae":
        mu, logvar, clip_mask = _split_head(head, d)
        if rng is not None:
            eps = rng.normal(mu.shape)
            z = mu + np.exp(0.5 * logvar) * eps
        else:
            z = mu
    else:
        z = head

    hdec, dec_caches = _run_layers(model.dec_layers, z)
    xhat = model.dec_map.forward(hdec, subject_idx)
    resid = xhat - xb
    mse = float((resid * resid).mean())

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
    grad_hdec, dmap_grads = model.dec_map.backward(hdec, subject_idx, grad_xhat)
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
    _, emap_grads = model.enc_map.backward(xb, subject_idx, grad_h0)
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
