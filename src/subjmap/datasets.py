"""Synthetic multi-subject data, split schemes, and the packed container.

The rotated half-moons benchmark treats every sample as one timestep: the
same base samples are rotated by one random angle per subject, so every
subject sees the same underlying trajectory through its own linear lens.

``synth_group_dataset`` is the desk-scale stand-in for a large resting-state
study: shared smooth latent trajectories are mixed into voxel space through
shared orthonormal bases with per-subject scaling vectors, and a known group
offset is planted in scaling space so recovery can be checked against ground
truth.

Binary container (all little-endian): magic ``SMDS``, version u16, N u32,
M u32, then per subject: id length u32 + UTF-8 bytes, group i32 (-1 = none),
T u32, T*N float64, label flag u8 (1 => T int32 labels follow).
"""

from __future__ import annotations

import csv
import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    InvalidFraction,
    MissingManifestField,
    ParseError,
    ShapeError,
    ShapeMismatch,
)
from .linalg import SeededRng, as_matrix, qr_orthonormalize

MAGIC = b"SMDS"
FORMAT_VERSION = 1


@dataclass
class SubjectData:
    subject_id: str
    data: np.ndarray                    # T x N
    labels: np.ndarray | None = None    # T ints
    group: int | None = None

    def __post_init__(self):
        self.data = as_matrix(self.data, f"subject {self.subject_id!r} data")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64).ravel()
            if self.labels.shape[0] != self.data.shape[0]:
                raise ShapeError(
                    f"subject {self.subject_id!r}: {self.labels.shape[0]} labels "
                    f"for {self.data.shape[0]} timesteps")

    @property
    def n_timesteps(self) -> int:
        return self.data.shape[0]

    def take(self, rows: np.ndarray) -> "SubjectData":
        return SubjectData(
            self.subject_id, self.data[rows],
            None if self.labels is None else self.labels[rows], self.group)


@dataclass
class MultiSubjectDataset:
    subjects: list[SubjectData]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.subjects:
            raise ShapeError("dataset needs at least one subject")
        widths = {rec.data.shape[1] for rec in self.subjects}
        if len(widths) != 1:
            raise ShapeMismatch(f"subjects disagree on feature width: {sorted(widths)}")
        ids = [rec.subject_id for rec in self.subjects]
        if len(set(ids)) != len(ids):
            raise ShapeError("duplicate subject ids")

    @property
    def n_subjects(self) -> int:
        return len(self.subjects)

    @property
    def n_features(self) -> int:
        return self.subjects[0].data.shape[1]

    @property
    def subject_ids(self) -> list[str]:
        return [rec.subject_id for rec in self.subjects]

    def groups(self) -> np.ndarray:
        return np.array([-1 if rec.group is None else rec.group for rec in self.subjects])

    def subset(self, ids) -> "MultiSubjectDataset":
        wanted = set(ids)
        return MultiSubjectDataset(
            [rec for rec in self.subjects if rec.subject_id in wanted], dict(self.metadata))


def stacked(dataset: MultiSubjectDataset, model=None):
    """Concatenate all subjects into (x, subject_idx, labels-or-None).

    Indices refer to ``model.subject_ids`` when a model is given, otherwise
    to the dataset's own subject order.
    """
    xs, idxs, labels = [], [], []
    have_labels = all(rec.labels is not None for rec in dataset.subjects)
    for row, rec in enumerate(dataset.subjects):
        xs.append(rec.data)
        if model is not None:
            index = int(model.index_of([rec.subject_id])[0])
        else:
            index = row
        idxs.append(np.full(rec.n_timesteps, index, dtype=np.int64))
        if have_labels:
            labels.append(rec.labels)
    x = np.concatenate(xs) if xs else np.empty((0, dataset.n_features))
    idx = np.concatenate(idxs) if idxs else np.empty(0, dtype=np.int64)
    y = np.concatenate(labels) if have_labels else None
    return x, idx, y


# --- generators -------------------------------------------------------------

def half_moons(n: int, noise: float, seed: int):
    """Two interleaved half circles with per-coordinate Gaussian noise.

    Class 0 is the upper unit arc; class 1 the lower arc shifted by (1, 0.5).
    Classes are balanced with the extra point (odd n) going to class 0.
    """
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    n0 = math.ceil(n / 2)
    n1 = n - n0
    t0 = np.linspace(0.0, math.pi, n0)
    t1 = np.linspace(0.0, math.pi, max(n1, 1))[:n1]
    upper = np.column_stack([np.cos(t0), np.sin(t0)])
    lower = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
    samples = np.concatenate([upper, lower])
    if noise > 0:
        samples = samples + SeededRng(seed).normal(samples.shape, scale=noise)
    labels = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    return samples, labels


def rotation_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


@dataclass(frozen=True)
class RotationGroundTruth:
    angles: np.ndarray  # radians, one per subject, drawn from U[-2pi, 2pi]


def rotate_subjects(samples, labels, n_subjects: int, seed: int, angles=None):
    """Generate subjects as randomly rotated copies of one 2-D sample set.

    Each subject sees ``samples @ R(theta_i).T`` so row vectors transform the
    way column vectors do under R(theta_i).  Angles default to U[-2pi, 2pi]
    draws (a double cover of the circle, interpreted mod 2pi downstream).
    """
    base = as_matrix(samples, "samples")
    if base.shape[1] != 2:
        raise ShapeError(f"rotation generator needs 2-D samples, got width {base.shape[1]}")
    y = np.asarray(labels, dtype=np.int64).ravel()
    if angles is None:
        angles = SeededRng(seed).uniform(-2.0 * math.pi, 2.0 * math.pi, n_subjects)
    angles = np.asarray(angles, dtype=np.float64).ravel()
    if angles.shape[0] != n_subjects:
        raise ShapeError(f"{angles.shape[0]} angles for {n_subjects} subjects")

    width = max(3, len(str(n_subjects - 1)))
    subjects = [
        SubjectData(f"s{i:0{width}d}", base @ rotation_matrix(theta).T, y.copy())
        for i, theta in enumerate(angles)
    ]
    meta = {"n_features": 2, "generator": "rotated_half_moons", "seed": int(seed)}
    return MultiSubjectDataset(subjects, meta), RotationGroundTruth(angles=angles)


def center_subjects(dataset: MultiSubjectDataset) -> MultiSubjectDataset:
    """Remove each subject's per-feature mean (standard timeseries preprocessing).

    Centering makes the rotated-subject benchmark subject-information-limited:
    rotation about the data mean leaves no shared off-center cue a pooled
    model could exploit.
    """
    subjects = [SubjectData(rec.subject_id, rec.data - rec.data.mean(axis=0),
                            rec.labels, rec.group) for rec in dataset.subjects]
    meta = dict(dataset.metadata)
    meta["centered"] = True
    return MultiSubjectDataset(subjects, meta)


# --- split schemes ----------------------------------------------------------

@dataclass(frozen=True)
class TimestepFraction:
    """Random per-timestep split with identical indices for every subject."""

    test_fraction: float = 0.8
    val_fraction: float = 0.1  # applied to what remains after the test cut
    seed: int = 0


@dataclass(frozen=True)
class FirstSecondHalf:
    """Train on the leading half of each timeseries, test on the rest."""


@dataclass(frozen=True)
class SubjectHoldout:
    """Hold out whole subjects; the held-out set becomes the test split."""

    n_holdout: int
    seed: int = 0


def _common_length(dataset: MultiSubjectDataset) -> int:
    lengths = {rec.n_timesteps for rec in dataset.subjects}
    if len(lengths) != 1:
        raise ShapeMismatch(f"timestep split needs equal lengths, got {sorted(lengths)}")
    return lengths.pop()


def _take_all(dataset: MultiSubjectDataset, rows: np.ndarray) -> MultiSubjectDataset:
    return MultiSubjectDataset([rec.take(rows) for rec in dataset.subjects],
                               dict(dataset.metadata))


def split(dataset: MultiSubjectDataset, scheme):
    """Partition a dataset into (train, val, test); val may be None.

    Partitions are disjoint and exhaustive.  Timestep schemes reuse the same
    sample indices for every subject so subjects stay aligned.
    """
    if isinstance(scheme, TimestepFraction):
        if not 0.0 < scheme.test_fraction < 1.0 or not 0.0 <= scheme.val_fraction < 1.0:
            raise InvalidFraction(
                f"fractions out of range: test={scheme.test_fraction} val={scheme.val_fraction}")
        total = _common_length(dataset)
        order = SeededRng(scheme.seed).permutation(total)
        n_test = int(round(scheme.test_fraction * total))
        n_val = int(round(scheme.val_fraction * (total - n_test)))
        n_train = total - n_test - n_val
        if n_train < 1 or n_test < 1:
            raise InvalidFraction(f"degenerate split sizes ({n_train}, {n_val}, {n_test})")
        test_rows = np.sort(order[:n_test])
        val_rows = np.sort(order[n_test:n_test + n_val])
        train_rows = np.sort(order[n_test + n_val:])
        val = _take_all(dataset, val_rows) if n_val else None
        return _take_all(dataset, train_rows), val, _take_all(dataset, test_rows)

    if isinstance(scheme, FirstSecondHalf):
        total = _common_length(dataset)
        cut = math.ceil(total / 2)
        first = _take_all(dataset, np.arange(cut))
        second = _take_all(dataset, np.arange(cut, total))
        return first, None, second

    if isinstance(scheme, SubjectHoldout):
        if not 1 <= scheme.n_holdout < dataset.n_subjects:
            raise InvalidFraction(
                f"cannot hold out {scheme.n_holdout} of {dataset.n_subjects} subjects")
        order = SeededRng(scheme.seed).permutation(dataset.n_subjects)
        held = set(order[:scheme.n_holdout].tolist())
        train = [rec for i, rec in enumerate(dataset.subjects) if i not in held]
        test = [rec for i, rec in enumerate(dataset.subjects) if i in held]
        meta = dict(dataset.metadata)
        return (MultiSubjectDataset(train, meta), None, MultiSubjectDataset(test, meta))

    raise TypeError(f"unknown split scheme {scheme!r}")


# --- planted-effect generator ------------------------------------------------

@dataclass(frozen=True)
class SynthGroundTruth:
    scalings: np.ndarray          # M x d, the generating per-subject vectors
    direction: np.ndarray         # unit vector in scaling space
    direction_voxels: np.ndarray  # the same direction pushed through the spatial basis
    basis_u: np.ndarray           # d x d orthonormal
    basis_v: np.ndarray           # N x d, orthonormal columns
    latents: np.ndarray           # T x d shared trajectories
    groups: np.ndarray            # M ints in {0, 1}


def synth_group_dataset(n_subjects: int, n_timesteps: int, n_features: int, latent_dim: int,
                        group_effect: float, seed: int, *,
                        noise_level: float = 0.05, subject_scale: float = 0.3,
                        trajectory_rank: int = 2):
    """Multi-subject dataset with a known group offset planted in scaling space.

    X_i = ((Z @ U) * s_i) @ V.T + noise, with Z a shared smooth trajectory,
    U/V shared orthonormal bases and s_i = 1 + individual variation
    +- (group_effect / 2) along a fixed unit direction.  Groups alternate
    with subject index so any contiguous subset stays balanced.

    Z is a smooth random walk of intrinsic rank ``trajectory_rank`` expressed
    in all ``latent_dim`` style dimensions: the walk lives on a low-dim
    manifold while subjects reweight a richer set of spatial patterns, so a
    shared-map model cannot absorb subject differences into its latent code.
    """
    if latent_dim > n_features:
        raise ShapeError(f"latent_dim {latent_dim} exceeds n_features {n_features}")
    if n_subjects % 2:
        raise ValueError("n_subjects must be even for balanced groups")
    rank = min(trajectory_rank, latent_dim)
    if rank < 1:
        raise ValueError("trajectory_rank must be >= 1")
    root = SeededRng(seed)

    walk = np.cumsum(root.derive("latents").normal((n_timesteps, rank)), axis=0)
    walk = (walk - walk.mean(axis=0)) / np.maximum(walk.std(axis=0), 1e-12)
    expand = root.derive("expand").normal((rank, latent_dim)) / math.sqrt(rank)
    latents = walk @ expand

    basis_u = qr_orthonormalize(root.derive("basis_u").normal((latent_dim, latent_dim)))
    basis_v = qr_orthonormalize(root.derive("basis_v").normal((n_features, latent_dim)))
    raw_dir = root.derive("direction").normal(latent_dim)
    direction = raw_dir / math.sqrt(float(raw_dir @ raw_dir))

    groups = np.arange(n_subjects) % 2
    subj_rng = root.derive("scalings")
    scalings = 1.0 + subject_scale * subj_rng.normal((n_subjects, latent_dim))
    scalings += np.where(groups[:, None] == 1, 0.5, -0.5) * group_effect * direction

    mixed = latents @ basis_u  # T x d, shared across subjects
    noise_rng = root.derive("noise")
    width = max(3, len(str(n_subjects - 1)))
    subjects = []
    for i in range(n_subjects):
        x = (mixed * scalings[i]) @ basis_v.T
        if noise_level > 0:
            x = x + noise_level * noise_rng.normal((n_timesteps, n_features))
        subjects.append(SubjectData(f"g{i:0{width}d}", x, None, int(groups[i])))

    truth = SynthGroundTruth(scalings=scalings, direction=direction,
                             direction_voxels=basis_v @ direction, basis_u=basis_u,
                             basis_v=basis_v, latents=latents, groups=groups)
    meta = {"n_features": n_features, "generator": "synth_group", "seed": int(seed),
            "group_effect": float(group_effect), "noise_level": float(noise_level)}
    return MultiSubjectDataset(subjects, meta), truth


# --- serialization -----------------------------------------------------------

def save_dataset(dataset: MultiSubjectDataset, path) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HII", FORMAT_VERSION, dataset.n_features, dataset.n_subjects))
        for rec in dataset.subjects:
            encoded = rec.subject_id.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<i", -1 if rec.group is None else int(rec.group)))
            fh.write(struct.pack("<I", rec.n_timesteps))
            fh.write(np.ascontiguousarray(rec.data, dtype="<f8").tobytes())
            if rec.labels is None:
                fh.write(struct.pack("<B", 0))
            else:
                fh.write(struct.pack("<B", 1))
                fh.write(np.ascontiguousarray(rec.labels, dtype="<i4").tobytes())


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.offset = 0

    def read(self, count: int, what: str) -> bytes:
        if self.offset + count > len(self.blob):
            raise ParseError(f"truncated while reading {what} at byte {self.offset}")
        out = self.blob[self.offset:self.offset + count]
        self.offset += count
        return out

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.read(struct.calcsize(fmt), what))


def _load_binary(path) -> MultiSubjectDataset:
    reader = _Reader(Path(path).read_bytes())
    if reader.read(4, "magic") != MAGIC:
        raise ParseError("bad magic at byte 0; not a packed dataset")
    version, n_features, n_subjects = reader.unpack("<HII", "header")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported dataset version {version}")
    subjects = []
    for _ in range(n_subjects):
        (id_len,) = reader.unpack("<I", "id length")
        try:
            subject_id = reader.read(id_len, "subject id").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"subject id is not valid UTF-8: {exc}") from exc
        (group,) = reader.unpack("<i", "group")
        (n_t,) = reader.unpack("<I", "timestep count")
        raw = reader.read(8 * n_t * n_features, f"data of subject {subject_id!r}")
        data = np.frombuffer(raw, dtype="<f8").reshape(n_t, n_features).copy()
        (flag,) = reader.unpack("<B", "label flag")
        labels = None
        if flag:
            raw = reader.read(4 * n_t, f"labels of subject {subject_id!r}")
            labels = np.frombuffer(raw, dtype="<i4").astype(np.int64)
        subjects.append(SubjectData(subject_id, data, labels, None if group < 0 else group))
    return MultiSubjectDataset(subjects, {"n_features": int(n_features)})


def _load_csv(manifest_path) -> MultiSubjectDataset:
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"manifest is not valid JSON: {exc}") from exc
    if "subjects" not in manifest:
        raise MissingManifestField("manifest lacks 'subjects'")
    expect_n = manifest.get("n_features")
    subjects = []
    for entry in manifest["subjects"]:
        for req in ("subject_id", "csv_path"):
            if req not in entry:
                raise MissingManifestField(f"manifest subject entry lacks {req!r}")
        csv_path = manifest_path.parent / entry["csv_path"]
        with open(csv_path, newline="", encoding="utf-8") as fh:
            try:
                rows = [[float(cell) for cell in row] for row in csv.reader(fh) if row]
            except ValueError as exc:
                raise ParseError(f"{csv_path}: {exc}") from exc
        if len({len(row) for row in rows}) > 1:
            raise ParseError(f"{csv_path}: rows differ in length")
        data = np.asarray(rows, dtype=np.float64)
        if expect_n is not None and data.shape[1] != expect_n:
            raise ShapeMismatch(
                f"subject {entry['subject_id']!r} has width {data.shape[1]}, manifest says {expect_n}")
        labels = None
        if entry.get("label_path"):
            label_text = (manifest_path.parent / entry["label_path"]).read_text(encoding="utf-8")
            labels = np.array([int(v) for v in label_text.split()], dtype=np.int64)
        subjects.append(SubjectData(entry["subject_id"], data, labels, entry.get("group")))
    dataset = MultiSubjectDataset(subjects)
    dataset.metadata["n_features"] = dataset.n_features
    return dataset


def load_dataset(path, fmt: str = "binary") -> MultiSubjectDataset:
    """Load a packed binary dataset or a CSV-per-subject manifest."""
    if fmt == "binary":
        return _load_binary(path)
    if fmt == "csv":
        return _load_csv(path)
    raise ConfigError(f"unknown dataset format {fmt!r}; expected 'binary' or 'csv'")
