"""Synthetic multi-subject data, split schemes, and the packed container.

The rotated half-moons benchmark treats every sample as one timestep: the
same base samples are rotated by one random angle per subject, so every
subject sees the same underlying trajectory through its own linear lens.

``synth_group_dataset`` is the desk-scale stand-in for a large resting-state
study: shared smooth latent trajectories are mixed into voxel space through
shared orthonormal bases with per-subject scaling vectors, and a known group
offset is planted in scaling space so recovery can be checked against ground
truth.

A dataset stores every subject's rows in one C-contiguous float64 block;
each subject's ``data`` is a view of its rows.  One method lays out every
dataset, allocating the block and building the views, and each producer
then fills the rows in place: splits copy into a new block once, the loader
reads a file straight into it, and ``stacked`` hands it out without copying.

Binary container (all little-endian): magic ``SMDS``, version u16, N u32,
M u32, then per subject: id length u32 + UTF-8 bytes, group i32 (-1 = none),
T u32, T*N float64, label flag u8 (1 => T int32 labels follow).
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    InvalidFraction,
    MissingManifestField,
    NonFiniteError,
    ParseError,
    ShapeError,
    ShapeMismatch,
)
from .linalg import SeededRng, as_matrix, is_count, qr_orthonormalize

MAGIC = b"SMDS"
FORMAT_VERSION = 1


@dataclass
class SubjectData:
    """One subject's timeseries.

    Inside a dataset, ``data`` (and ``labels``, when every subject has them)
    are views of the dataset's storage; finiteness is checked per dataset.
    """

    subject_id: str
    data: np.ndarray                    # T x N
    labels: np.ndarray | None = None    # T ints
    group: int | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ShapeError(
                f"subject {self.subject_id!r} data must be 2-D, got shape {self.data.shape}")
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


class MultiSubjectDataset:
    """Subjects whose rows live in one C-contiguous T_total x N float64 ``block``.

    Subject i owns rows ``offsets[i]:offsets[i + 1]`` and its ``data`` is a
    view of them.  ``labels`` is the T_total label vector when every subject
    has labels (each subject's ``labels`` then views it) and None otherwise.
    Building a dataset from records copies their rows into a new block once
    and checks it for NaN and infinity once.  Replacing a record or its
    arrays afterwards detaches it from the block, which ``stacked`` returns.
    """

    def __init__(self, subjects, metadata: dict | None = None):
        subjects = list(subjects)
        widths = sorted({rec.data.shape[1] for rec in subjects})
        if len(widths) > 1:
            raise ShapeMismatch(f"subjects disagree on feature width: {widths}")
        self._lay_out(_records(subjects), widths[0] if widths else 0, metadata)
        for rec, mine in zip(subjects, self.subjects):
            mine.data[...] = rec.data
        self._check_finite()

    @classmethod
    def _empty(cls, records, n_features: int, metadata: dict | None,
               block: np.ndarray | None = None) -> "MultiSubjectDataset":
        """A dataset laid out by ``_lay_out`` whose rows the caller fills in place."""
        return cls.__new__(cls)._lay_out(records, n_features, metadata, block)

    def _lay_out(self, records, n_features: int, metadata: dict | None,
                 block: np.ndarray | None = None) -> "MultiSubjectDataset":
        """Allocate the block (or adopt ``block``) and view each subject's rows and labels in it.

        ``records`` are ``(subject_id, T, labels, group)`` tuples.  This is the
        only code that builds the views, so every dataset is laid out alike.
        """
        if not records:
            raise ShapeError("dataset needs at least one subject")
        ids = [sid for sid, _, _, _ in records]
        if len(set(ids)) != len(ids):
            raise ShapeError("duplicate subject ids")
        self.offsets = np.zeros(len(records) + 1, dtype=np.int64)
        np.cumsum([n_t for _, n_t, _, _ in records], out=self.offsets[1:])
        shape = (int(self.offsets[-1]), n_features)
        if block is None:
            block = np.empty(shape)
        elif block.shape != shape:
            raise ShapeMismatch(f"block has shape {block.shape}, records need {shape}")
        self.block = block
        self.metadata = {} if metadata is None else metadata
        labels = [rec_labels for _, _, rec_labels, _ in records]
        self.labels = None
        if all(rec_labels is not None for rec_labels in labels):
            self.labels = np.concatenate(labels)
            labels = np.split(self.labels, self.offsets[1:-1])
        self.subjects = [SubjectData(sid, block[start:stop], rec_labels, group)
                         for (sid, _, _, group), rec_labels, start, stop
                         in zip(records, labels, self.offsets, self.offsets[1:])]
        return self

    def _check_finite(self) -> None:
        # a finite sum proves every entry finite without a T x N mask; only a
        # non-finite sum (a bad entry, or an overflow) pays for the exact scan
        with np.errstate(over="ignore", invalid="ignore"):
            if math.isfinite(self.block.sum()):
                return
        for rec in self.subjects:
            if not np.isfinite(rec.data).all():
                raise NonFiniteError(f"subject {rec.subject_id!r} data contains non-finite entries")

    def __reduce__(self):
        # pickle the block once; the unpickled records view it again
        return _unpickle_dataset, (self.block, _records(self.subjects), self.metadata)

    @property
    def n_subjects(self) -> int:
        return len(self.subjects)

    @property
    def n_features(self) -> int:
        return self.block.shape[1]

    @property
    def subject_ids(self) -> list[str]:
        return [rec.subject_id for rec in self.subjects]

    def groups(self) -> np.ndarray:
        return np.array([-1 if rec.group is None else rec.group for rec in self.subjects])

    def subset(self, ids) -> "MultiSubjectDataset":
        wanted = set(ids)
        return MultiSubjectDataset(
            [rec for rec in self.subjects if rec.subject_id in wanted], dict(self.metadata))


def _records(subjects) -> list[tuple]:
    return [(rec.subject_id, rec.n_timesteps, rec.labels, rec.group) for rec in subjects]


def _unpickle_dataset(block, records, metadata) -> MultiSubjectDataset:
    return MultiSubjectDataset._empty(records, block.shape[1], metadata, block)


def stacked(dataset: MultiSubjectDataset, model=None):
    """All subjects' rows as (x, subject_idx, labels-or-None), without copying.

    ``x`` and the labels are the dataset's own storage: read them, never
    write them.  Indices refer to ``model.subject_ids`` when a model is
    given, otherwise to the dataset's own subject order.
    """
    if model is None:
        order = np.arange(dataset.n_subjects, dtype=np.int64)
    else:
        order = model.index_of(dataset.subject_ids)
    return dataset.block, np.repeat(order, np.diff(dataset.offsets)), dataset.labels


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
    meta = dict(dataset.metadata)
    meta["centered"] = True
    centered = MultiSubjectDataset._empty(_records(dataset.subjects), dataset.n_features, meta)
    for rec, out in zip(dataset.subjects, centered.subjects):
        np.subtract(rec.data, rec.data.mean(axis=0), out=out.data)
    centered._check_finite()
    return centered


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


def _take_all(dataset: MultiSubjectDataset, rows) -> MultiSubjectDataset:
    """Rows ``rows`` of every subject, copied once into a new block."""
    rows = np.asarray(rows, dtype=np.intp)
    shortest = min(rec.n_timesteps for rec in dataset.subjects)
    if rows.size and (rows.min() < 0 or rows.max() >= shortest):
        raise IndexError(f"timestep rows out of range [0, {shortest})")
    taken = MultiSubjectDataset._empty(
        [(rec.subject_id, rows.size, None if rec.labels is None else rec.labels[rows], rec.group)
         for rec in dataset.subjects], dataset.n_features, dict(dataset.metadata))
    for rec, out in zip(dataset.subjects, taken.subjects):
        # mode="clip" writes straight into the view (the default mode buffers
        # a full copy first); the range check above makes clipping a no-op
        np.take(rec.data, rows, axis=0, out=out.data, mode="clip")
    return taken


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
    meta = {"n_features": n_features, "generator": "synth_group", "seed": int(seed),
            "group_effect": float(group_effect), "noise_level": float(noise_level)}
    dataset = MultiSubjectDataset._empty(
        [(f"g{i:0{width}d}", n_timesteps, None, int(groups[i])) for i in range(n_subjects)],
        n_features, meta)
    for i, rec in enumerate(dataset.subjects):
        np.matmul(mixed * scalings[i], basis_v.T, out=rec.data)
        if noise_level > 0:
            rec.data += noise_level * noise_rng.normal((n_timesteps, n_features))
    dataset._check_finite()

    truth = SynthGroundTruth(scalings=scalings, direction=direction,
                             direction_voxels=basis_v @ direction, basis_u=basis_u,
                             basis_v=basis_v, latents=latents, groups=groups)
    return dataset, truth


# --- serialization -----------------------------------------------------------

@contextmanager
def atomic_write(path, mode: str = "w", **kwargs):
    """``open(path, mode, **kwargs)`` through a sibling temp file, creating the directory.

    The temp file replaces ``path`` only when the block completes, so a
    failed write leaves the previous file (or none) and no partial one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_dataset(dataset: MultiSubjectDataset, path) -> None:
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HII", FORMAT_VERSION, dataset.n_features, dataset.n_subjects))
        for rec in dataset.subjects:
            encoded = rec.subject_id.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<i", -1 if rec.group is None else int(rec.group)))
            fh.write(struct.pack("<I", rec.n_timesteps))
            fh.write(np.ascontiguousarray(rec.data, dtype="<f8").data)
            if rec.labels is None:
                fh.write(struct.pack("<B", 0))
            else:
                fh.write(struct.pack("<B", 1))
                fh.write(np.ascontiguousarray(rec.labels, dtype="<i4").tobytes())


class _Reader:
    """Reads and seeks in an open file, checking each size against the file's size first."""

    def __init__(self, fh):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.offset = 0

    def _claim(self, count: int, what: str) -> int:
        if self.offset + count > self.size:
            raise ParseError(f"truncated while reading {what} at byte {self.offset}")
        start, self.offset = self.offset, self.offset + count
        return start

    def read(self, count: int, what: str) -> bytes:
        at = self._claim(count, what)
        out = self.fh.read(count)
        if len(out) != count:
            raise ParseError(f"truncated while reading {what} at byte {at}")
        return out

    def skip(self, count: int, what: str) -> int:
        """Step over ``count`` bytes without reading them; returns where they start."""
        at = self._claim(count, what)
        self.fh.seek(self.offset)
        return at

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.read(struct.calcsize(fmt), what))


def _load_binary(path) -> MultiSubjectDataset:
    """Two passes: parse every header and bound every size, then read the data into one block."""
    with open(path, "rb") as fh:
        reader = _Reader(fh)
        if reader.read(4, "magic") != MAGIC:
            raise ParseError("bad magic at byte 0; not a packed dataset")
        version, n_features, n_subjects = reader.unpack("<HII", "header")
        if version != FORMAT_VERSION:
            raise ParseError(f"unsupported dataset version {version}")
        records, starts = [], []
        for _ in range(n_subjects):
            (id_len,) = reader.unpack("<I", "id length")
            try:
                subject_id = reader.read(id_len, "subject id").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"subject id is not valid UTF-8: {exc}") from exc
            (group,) = reader.unpack("<i", "group")
            (n_t,) = reader.unpack("<I", "timestep count")
            at = reader.skip(8 * n_t * n_features, f"data of subject {subject_id!r}")
            (flag,) = reader.unpack("<B", "label flag")
            labels = None
            if flag:
                raw = reader.read(4 * n_t, f"labels of subject {subject_id!r}")
                labels = np.frombuffer(raw, dtype="<i4").astype(np.int64)
            records.append((subject_id, n_t, labels, None if group < 0 else group))
            starts.append(at)

        # every data region lies inside the file, so the block is no larger than it
        dataset = MultiSubjectDataset._empty(records, n_features, {"n_features": int(n_features)})
        for rec, at in zip(dataset.subjects, starts):
            fh.seek(at)
            if rec.data.nbytes and fh.readinto(memoryview(rec.data).cast("B")) != rec.data.nbytes:
                raise ParseError(f"truncated while reading data of subject {rec.subject_id!r} "
                                 f"at byte {at}")
    dataset._check_finite()
    return dataset


def _load_csv(manifest_path) -> MultiSubjectDataset:
    """Load a JSON manifest of per-subject CSV files.

    The manifest is ``{"n_features": int (optional), "subjects": [{"subject_id":
    str, "csv_path": str, "label_path": str or null, "group": int or null}]}``;
    paths are relative to the manifest and a label file holds whitespace-
    separated integers.
    """
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ParseError(f"manifest {manifest_path} is not a JSON object")
    if "subjects" not in manifest:
        raise MissingManifestField("manifest lacks 'subjects'")

    def check(ok: bool, field: str, want: str) -> None:
        if not ok:
            raise ParseError(f"manifest {manifest_path}: {field!r} must be {want}")

    entries = manifest["subjects"]
    check(isinstance(entries, list) and all(isinstance(e, dict) for e in entries),
          "subjects", "a list of objects")
    expect_n = manifest.get("n_features")
    check(expect_n is None or is_count(expect_n, 1), "n_features", "an integer >= 1")
    subjects = []
    for entry in entries:
        for req in ("subject_id", "csv_path"):
            if req not in entry:
                raise MissingManifestField(f"manifest subject entry lacks {req!r}")
            check(isinstance(entry[req], str), req, "a string")
        check(entry.get("label_path") is None or isinstance(entry["label_path"], str),
              "label_path", "a string or null")
        group = entry.get("group")
        # the packed format stores a group as an int32 and -1 for none
        check(group is None or (is_count(group, 0) and group < 2 ** 31),
              "group", "an integer in [0, 2**31) or null")
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
            label_path = manifest_path.parent / entry["label_path"]
            try:
                labels = np.array([int(v) for v in label_path.read_text(encoding="utf-8").split()],
                                  dtype=np.int64)
            except (ValueError, OverflowError) as exc:
                raise ParseError(f"manifest {manifest_path}: 'label_path' {label_path} of "
                                 f"subject {entry['subject_id']!r} must hold integers: "
                                 f"{exc}") from exc
        subjects.append(SubjectData(entry["subject_id"], data, labels, group))
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
