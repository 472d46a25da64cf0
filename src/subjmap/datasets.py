"""Synthetic multi-subject data, the train/val/test split, and the packed container.

The rotated half-moons benchmark treats every sample as one timestep: the
same base samples are rotated by one random angle per subject, so every
subject sees the same underlying trajectory through its own linear lens.

``synth_group_dataset`` is the desk-scale stand-in for a large resting-state
study: shared smooth latent trajectories are mixed into voxel space through
shared orthonormal bases with per-subject scaling vectors, and a known group
offset is planted in scaling space so recovery can be checked against ground
truth.

A dataset keeps its subjects' headers and one ``block`` of all their rows.
Held in memory, the block is one C-contiguous float64 array and each
subject's ``data`` is a view of its rows.  One method lays out every
dataset, allocating the block and building the views, and each producer
then fills the rows in place; ``stacked`` hands the block out without
copying.

One filler, ``_fill``, cuts every partition.  A source gives every
subject's header (id, length, labels, group) before any of its rows, so a
split scheme, or the fine-tune window, decides from the headers alone which
rows of each subject go to which partition.  The filler then takes each
subject's rows once, checks them (and centers them, when asked), and copies
them straight into the partitions that own them.  ``split``, ``_take_all``
and ``center_subjects`` are the same filler over a dataset in memory, and a
CSV manifest parses each subject's file only when the filler takes its rows.

There is one partition type with two kinds of block.  A command's load
(``_load_parts``) of a packed file whose rows are at least a page wide,
uncentered, gives partitions whose block is a ``_PackedRows`` over the file
rows they own instead of an array: the filler still reads and checks each
subject once, in its one-subject buffer, but copies it nowhere, and every
training batch and scoring block is read from the file straight into the
array that uses it, one read per run of consecutive rows, so a command
holds no copy of its data.  Narrower rows, CSV manifests and centered loads
fill arrays, and ``load_dataset`` always returns a held dataset.

``split`` is the one owner of the ``data.split.scheme`` names
(``timestep_fraction``, ``first_second_half``, ``subject_holdout`` and
``none``): it takes the ``data.split`` config keys as keyword arguments, the
way ``load_dataset`` takes the ``data.format`` name.

Packed and checkpoint files share one framing (``_write_framed``,
``_read_framed``): a 4-byte magic, a little-endian u32 header length, a
canonical-JSON header, zero padding to a multiple of 8 bytes, then the data
blocks.  A packed dataset (magic ``SMDS``, ``format_version`` 2) has the
header ``{"format_version", "n_features", "subjects": [{"subject_id",
"group", "timesteps", "labelled"}]}``, then every subject's rows as one
C-contiguous little-endian float64 block, then the labelled subjects' int32
labels as one block.  The header's sizes must account for the file's size
exactly before any row is read.
"""

from __future__ import annotations

import csv
import json
import math
import mmap
import os
import struct
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, LabelOutOfRange, NonFiniteError, ParseError, ShapeError
from .linalg import SeededRng, as_matrix, is_count, qr_orthonormalize

MAGIC = b"SMDS"
FORMAT_VERSION = 2


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


class MultiSubjectDataset:
    """Subjects' headers (``records``) and one T_total x N float64 ``block`` of their rows.

    Subject i owns rows ``offsets[i]:offsets[i + 1]``.  ``labels`` is the
    T_total label vector when every subject has labels and None otherwise.
    The block is either a C-contiguous array, and then each of ``subjects``
    views its rows (and labels), or a ``_PackedRows`` that reads rows from
    an open packed file, and then ``subjects`` is None.  Building a dataset from records
    copies their rows into a new block once and checks it for NaN and
    infinity once.  Replacing a record or its arrays afterwards detaches it
    from the block, which ``stacked`` returns.
    """

    def __init__(self, subjects, metadata: dict | None = None):
        subjects = list(subjects)
        self._lay_out(_records(subjects), _common_width(subjects), metadata)
        for rec, mine in zip(subjects, self.subjects):
            mine.data[...] = rec.data
        self._check_finite()

    @classmethod
    def _empty(cls, records, n_features: int, metadata: dict | None,
               block: np.ndarray | _PackedRows | None = None) -> "MultiSubjectDataset":
        """A dataset laid out by ``_lay_out`` whose rows the caller fills in place."""
        return cls.__new__(cls)._lay_out(records, n_features, metadata, block)

    def _lay_out(self, records, n_features: int, metadata: dict | None,
                 block: np.ndarray | _PackedRows | None = None) -> "MultiSubjectDataset":
        """Allocate the block (or adopt ``block``) and view each subject's rows and labels in it.

        ``records`` are ``(subject_id, T, labels, group)`` tuples.  This is the
        only code that builds the views, so every dataset is laid out alike.
        A ``_PackedRows`` block gets no views, so no row is read here.
        """
        _check_records(records)
        self.offsets = _offsets(records)
        shape = (int(self.offsets[-1]), n_features)
        if block is None:
            block = np.empty(shape)
        elif block.shape != shape:
            raise ShapeError(f"block has shape {block.shape}, records need {shape}")
        self.block = block
        self.metadata = {} if metadata is None else metadata
        labels = [rec_labels for _, _, rec_labels, _ in records]
        self.labels = _all_labels(records)
        if self.labels is not None:
            labels = np.split(self.labels, self.offsets[1:-1])
        # keep the label views, so the records' own label arrays can be freed
        self._headers = [(sid, n_t, rec_labels, group)
                         for (sid, n_t, _, group), rec_labels in zip(records, labels)]
        self.subjects = None
        if isinstance(block, np.ndarray):
            self.subjects = [SubjectData(sid, block[start:stop], rec_labels, group)
                             for (sid, _, rec_labels, group), start, stop
                             in zip(self._headers, self.offsets, self.offsets[1:])]
        return self

    @property
    def records(self) -> list[tuple]:
        """Each subject's ``(subject_id, T, labels, group)``: read from ``subjects``,
        which a caller may edit, when the block is an array."""
        return self._headers if self.subjects is None else _records(self.subjects)

    def _check_finite(self) -> None:
        for rec in self.subjects:
            _check_subject(rec.subject_id, rec.data)

    def __reduce__(self):
        # pickle the rows once, a streamed partition's read into a held copy;
        # the unpickled records view them again
        return _unpickle_dataset, (self.block[:], self.records, self.metadata)

    @property
    def n_subjects(self) -> int:
        return len(self.records)

    @property
    def n_features(self) -> int:
        return self.block.shape[1]

    @property
    def subject_ids(self) -> list[str]:
        return _ids(self.records)

    def groups(self) -> np.ndarray:
        return _groups(self.records)


def _offsets(records) -> np.ndarray:
    """Row offsets of ``(subject_id, T, labels, group)`` records: subject i owns rows
    ``offsets[i]:offsets[i + 1]``."""
    offsets = np.zeros(len(records) + 1, dtype=np.int64)
    np.cumsum([n_t for _, n_t, _, _ in records], out=offsets[1:])
    return offsets


def _all_labels(records) -> np.ndarray | None:
    """Every record's labels end to end, or None when a record has none."""
    labels = [rec_labels for _, _, rec_labels, _ in records]
    return None if any(rec_labels is None for rec_labels in labels) else np.concatenate(labels)


def _records(subjects) -> list[tuple]:
    return [(rec.subject_id, rec.n_timesteps, rec.labels, rec.group) for rec in subjects]


def _ids(records) -> list[str]:
    return [sid for sid, _, _, _ in records]


def _groups(records) -> np.ndarray:
    """Each record's group, -1 where it has none."""
    return np.array([-1 if group is None else group for _, _, _, group in records])


def _common_width(subjects) -> int:
    widths = sorted({rec.data.shape[1] for rec in subjects})
    if len(widths) > 1:
        raise ShapeError(f"subjects disagree on feature width: {widths}")
    return widths[0] if widths else 0


def _check_records(records) -> None:
    if not records:
        raise ShapeError("dataset needs at least one subject")
    ids = _ids(records)
    if len(set(ids)) != len(ids):
        raise ShapeError("duplicate subject ids")


def _check_subject(subject_id: str, data: np.ndarray) -> None:
    """NonFiniteError naming the subject when ``data`` holds a NaN or an infinity."""
    # a finite sum proves every entry finite without a T x N mask; only a
    # non-finite sum (a bad entry, or an overflow) pays for the exact scan
    with np.errstate(over="ignore", invalid="ignore"):
        if math.isfinite(data.sum()):
            return
    if not np.isfinite(data).all():
        raise NonFiniteError(f"subject {subject_id!r} data contains non-finite entries")


def _unpickle_dataset(block, records, metadata) -> MultiSubjectDataset:
    return MultiSubjectDataset._empty(records, block.shape[1], metadata, block)


def stacked(dataset, model=None):
    """All subjects' rows as (x, subject_idx, labels-or-None), without copying.

    ``x`` is the dataset's ``block``.  An array block is the dataset's own
    storage, and so are the labels: read them, never write them.  A
    ``_PackedRows`` block's ``x[rows]`` reads those rows from the file into a
    new array; both kinds give ``x.shape`` and ``x.nbytes``, and the same rows
    in the same order.
    Indices refer to ``model.subject_ids`` when a model is given, otherwise
    to the dataset's own subject order.
    """
    if model is None:
        order = np.arange(dataset.n_subjects, dtype=np.int64)
    else:
        order = model.index_of(dataset.subject_ids)
    return dataset.block, np.repeat(order, np.diff(dataset.offsets)), dataset.labels


# --- generators -------------------------------------------------------------

def _at_least(key: str, value, low) -> None:
    """A generator argument below its floor is a ConfigError naming its config key."""
    if value < low:
        raise ConfigError(f"{key} must be at least {low}, got {value!r}")


def half_moons(n: int, noise: float, seed: int):
    """Two interleaved half circles with per-coordinate Gaussian noise.

    Class 0 is the upper unit arc; class 1 the lower arc shifted by (1, 0.5).
    Classes are balanced with the extra point (odd n) going to class 0.
    """
    _at_least("n_samples", n, 2)
    _at_least("noise", noise, 0)
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
    _at_least("n_subjects", n_subjects, 1)
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
    return _fill(_held(dataset), [_ALL], center=True)[0]


# --- partitions: headers decide the rows, one pass copies them ----------------

class _Source:
    """Every subject's header, and its rows one subject at a time: what ``_fill`` reads.

    ``records`` are ``(subject_id, T, labels, group)`` tuples.  ``rows(i,
    into)`` returns subject i's T x N rows, either read into ``into`` (a file)
    or as a view of rows already in memory.  Rows of a ``dataset`` are known
    to be finite; any other source's rows are checked as they are read.
    ``packed`` is ``(open file, data start)`` of a packed file, which
    partitions may stream from while the file is open.
    """

    def __init__(self, records, n_features: int, metadata: dict, rows,
                 dataset: MultiSubjectDataset | None = None, packed: tuple | None = None):
        _check_records(records)
        self.records, self.n_features, self.metadata = records, n_features, metadata
        self.rows, self.dataset, self.packed = rows, dataset, packed

    @property
    def subject_ids(self) -> list[str]:
        return _ids(self.records)

    def groups(self) -> np.ndarray:
        return _groups(self.records)


def _held(dataset: MultiSubjectDataset) -> _Source:
    """A source over a dataset in memory, whose rows it hands out as views."""
    subjects = dataset.subjects
    return _Source(dataset.records, dataset.n_features, dataset.metadata,
                   lambda i, into: subjects[i].data, dataset)


# a partition that is every row of every subject: a source's dataset, as it is
_ALL = "all"


def _same_rows(records, rows) -> list[tuple]:
    """The partition of rows ``rows`` of every subject, as ``(subject index, rows)`` pairs."""
    rows = np.asarray(rows, dtype=np.intp)
    shortest = min(n_t for _, n_t, _, _ in records)
    if rows.size and (rows.min() < 0 or rows.max() >= shortest):
        raise ShapeError(f"timestep rows out of range [0, {shortest})")
    return [(i, rows) for i in range(len(records))]


def _cut_record(record: tuple, rows) -> tuple:
    """The header of rows ``rows`` (None: all) of the subject ``record`` describes."""
    if rows is None:
        return record
    subject_id, _, labels, group = record
    return subject_id, rows.size, None if labels is None else labels[rows], group


def _fill(source: _Source, parts, center: bool = False, stream: bool = False) -> list:
    """The datasets ``parts`` describe, each subject's rows read once and checked.

    A part is None (no dataset), ``_ALL``, or a list of ``(subject index,
    rows)`` pairs where rows None takes every row.  Each dataset's headers
    are cut from the source's, and its block is a new array, or with
    ``stream`` a ``_PackedRows`` over the file rows it owns.  A subject bound
    whole for one new array is read straight into it; any other is read
    into one reused one-subject buffer, and a subject that none owns is not
    read.  Rows not yet known finite are checked as they are read, and
    centered rows once more; then the rows are copied into every array that
    owns some.  A streamed dataset takes no copy: it reads its rows from the
    file again each time a batch or a scoring block uses them.  ``_ALL`` of
    a source that holds a dataset, uncentered, is that dataset.
    """
    metadata = dict(source.metadata, centered=True) if center else source.metadata
    records, n_features = source.records, source.n_features
    offsets = _offsets(records)
    out, bound = [], [[] for _ in records]
    for part in parts:
        if part is _ALL and source.dataset is not None and not center:
            out.append(source.dataset)
            continue
        if part is _ALL:
            part = [(i, None) for i in range(len(records))]
        if part is None:
            out.append(None)
            continue
        block = None
        if stream:
            file_rows = np.concatenate([offsets[i] + (np.arange(records[i][1]) if rows is None
                                                      else rows) for i, rows in part])
            block = _PackedRows(*source.packed, n_features, file_rows)
        taken = MultiSubjectDataset._empty([_cut_record(records[i], rows) for i, rows in part],
                                           n_features, dict(metadata), block)
        dests = [rec.data for rec in taken.subjects] if block is None else [None] * len(part)
        for (i, rows), dest in zip(part, dests):
            bound[i].append((rows, dest))
        out.append(taken)

    direct = [len(dests) == 1 and dests[0][0] is None and dests[0][1] is not None
              for dests in bound]
    longest = max((n_t for (_, n_t, _, _), dests, whole in zip(records, bound, direct)
                   if dests and not whole), default=0)
    buffer = np.empty((longest, n_features))
    for i, (sid, n_t, _, _) in enumerate(records):
        if not bound[i]:
            continue  # no dataset takes a row of this subject
        into = bound[i][0][1] if direct[i] else buffer[:n_t]
        data = source.rows(i, into)
        if source.dataset is None:
            _check_subject(sid, data)
        if center:
            data = np.subtract(data, data.mean(axis=0), out=into)
            _check_subject(sid, data)
        for rows, dest in bound[i]:
            if dest is None or data is dest:
                continue  # a streamed dataset, or the rows were read straight into it
            if rows is None:
                dest[...] = data
            else:
                # mode="clip" writes straight into the view (the default mode
                # buffers a full copy first); _same_rows checked the range
                np.take(data, rows, axis=0, out=dest, mode="clip")
    return out


class _PackedRows:
    """The rows of an open packed file's data block that a streamed partition owns.

    ``x[rows]`` reads rows ``rows`` of the partition (a training batch's
    index array, or a scoring block's slice) into a new C-contiguous float64
    array: one ``os.preadv`` per run of consecutive file rows (more only
    when the kernel returns part of a run), each read's byte count checked,
    so a file truncated under it is a ParseError.  It owns a duplicate of
    the loader's descriptor, closed with it.  Every subjmap writer replaces
    a file with ``os.replace`` (``atomic_write``), so a replaced file does
    not change what it reads.  ``nbytes`` is the bytes of all its rows, as a
    held block's is.
    """

    def __init__(self, fh, start: int, n_features: int, file_rows: np.ndarray):
        self.fd, self.name = os.dup(fh.fileno()), fh.name
        weakref.finalize(self, os.close, self.fd)
        self.start, self.file_rows = start, file_rows
        self.shape = (file_rows.size, n_features)
        self.nbytes = 8 * file_rows.size * n_features

    def __getitem__(self, rows) -> np.ndarray:
        file_rows = self.file_rows[rows]
        out = np.empty((file_rows.size, self.shape[1]))
        runs = np.flatnonzero(np.diff(file_rows, prepend=-2) != 1)
        bounds = runs.tolist() + [file_rows.size]
        starts = (self.start + file_rows[runs] * (8 * self.shape[1])).tolist()
        for begin, end, at in zip(bounds, bounds[1:], starts):
            run = out[begin:end]
            got = os.preadv(self.fd, [run], at)
            while got < run.nbytes:  # the kernel returned part of the run, or the file ended
                more = os.preadv(self.fd, [memoryview(run).cast("B")[got:]], at + got)
                if not more:
                    raise ParseError(f"packed dataset {self.name} was truncated: "
                                     f"it ends at byte {at + got}, before the rows being read")
                got += more
        return out


def _streams(source: _Source, center: bool) -> bool:
    """Whether ``_load_parts`` streams the partitions of ``source``.

    A packed file streams when its rows are at least a page wide and the
    load does not center them.  Narrower rows are cheaper to gather from a
    held block than to read one run at a time, and a platform without
    ``os.preadv`` (Windows) holds them all.
    """
    return (source.packed is not None and not center and hasattr(os, "preadv")
            and 8 * source.n_features >= mmap.PAGESIZE)


def _take_all(dataset: MultiSubjectDataset, rows) -> MultiSubjectDataset:
    """Rows ``rows`` of every subject, copied once into a new block."""
    source = _held(dataset)
    return _fill(source, [_same_rows(source.records, rows)])[0]


# --- split schemes ----------------------------------------------------------

def _common_length(records) -> int:
    lengths = {n_t for _, n_t, _, _ in records}
    if len(lengths) != 1:
        raise ShapeError(f"timestep split needs equal lengths, got {sorted(lengths)}")
    return lengths.pop()


def _split_plan(scheme: str, test_fraction: float = 0.8, val_fraction: float = 0.1,
                n_holdout: int = 0):
    """``split``'s scheme dispatch: checks the keys, returns ``(cut, gives_val)``.

    An unknown scheme and a fraction out of range raise ConfigError here, so
    a caller can check a ``data.split`` section before it opens the data.
    ``cut(records, seed)`` sees only the subjects' headers and returns the
    ``(train, val, test)`` parts ``_fill`` copies; the checks that need the
    headers (equal lengths, degenerate sizes, ``n_holdout`` against the
    subject count) run there, before any row is read.  ``gives_val`` is
    False when no data can give the scheme a validation set.
    """
    if scheme == "timestep_fraction":
        if not 0.0 < test_fraction < 1.0:
            raise ConfigError(f"test_fraction must lie in (0, 1), got {test_fraction!r}")
        if not 0.0 <= val_fraction < 1.0:
            raise ConfigError(f"val_fraction must lie in [0, 1), got {val_fraction!r}")

        def cut(records, seed: int):
            total = _common_length(records)
            order = SeededRng(seed).permutation(total)
            n_test = int(round(test_fraction * total))
            n_val = int(round(val_fraction * (total - n_test)))
            n_train = total - n_test - n_val
            if n_train < 1 or n_test < 1:
                raise ConfigError(f"test_fraction {test_fraction!r} and val_fraction "
                                  f"{val_fraction!r} leave degenerate split sizes "
                                  f"({n_train}, {n_val}, {n_test}) of {total} timesteps")
            test_rows = np.sort(order[:n_test])
            val_rows = np.sort(order[n_test:n_test + n_val])
            train_rows = np.sort(order[n_test + n_val:])
            val = _same_rows(records, val_rows) if n_val else None
            return _same_rows(records, train_rows), val, _same_rows(records, test_rows)
        return cut, val_fraction > 0

    if scheme == "first_second_half":
        def cut(records, seed: int):
            total = _common_length(records)
            half = math.ceil(total / 2)
            return (_same_rows(records, np.arange(half)), None,
                    _same_rows(records, np.arange(half, total)))
        return cut, False

    if scheme == "subject_holdout":
        def cut(records, seed: int):
            n_subjects = len(records)
            if not 1 <= n_holdout < n_subjects:
                raise ConfigError(f"n_holdout {n_holdout!r} must lie in "
                                  f"[1, {n_subjects}): cannot hold out "
                                  f"{n_holdout} of {n_subjects} subjects")
            held = set(SeededRng(seed).permutation(n_subjects)[:n_holdout].tolist())
            return ([(i, None) for i in range(n_subjects) if i not in held], None,
                    [(i, None) for i in range(n_subjects) if i in held])
        return cut, False

    if scheme == "none":
        return (lambda records, seed: (_ALL, None, None)), False

    raise ConfigError(f"unknown split scheme {scheme!r}")


def split(dataset: MultiSubjectDataset, scheme: str, *, test_fraction: float = 0.8,
          val_fraction: float = 0.1, n_holdout: int = 0, seed: int = 0):
    """Partition a dataset into (train, val, test) by the ``data.split`` scheme name.

    - ``timestep_fraction``: a random ``test_fraction`` of the timesteps is
      the test set and ``val_fraction`` of the rest the validation set (None
      when it rounds to no rows); the ``seed`` draws the rows.
    - ``first_second_half``: train on the leading half of each timeseries
      (the middle row goes to train), test on the rest; val is None.
    - ``subject_holdout``: ``n_holdout`` whole subjects, drawn by ``seed``,
      are the test set; val is None.
    - ``none``: ``(dataset, None, None)``, the dataset itself.

    Each scheme reads only its own keyword arguments.  Partitions are
    disjoint and exhaustive, and the timestep schemes cut the same rows from
    every subject, so subjects stay aligned.  An unknown scheme or a value
    out of range is a ConfigError that names its key; ``_split_plan`` makes
    the checks that need no data, before any row is cut.  ``_load_parts``
    cuts the same partitions from a file as it reads it.
    """
    source = _held(dataset)
    cut = _split_plan(scheme, test_fraction, val_fraction, n_holdout)[0]
    return tuple(_fill(source, cut(source.records, seed)))


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
    if n_subjects < 2 or n_subjects % 2:
        raise ConfigError(f"n_subjects must be even and positive for balanced groups, "
                          f"got {n_subjects!r}")
    _at_least("n_timesteps", n_timesteps, 1)
    _at_least("latent_dim", latent_dim, 1)
    _at_least("trajectory_rank", trajectory_rank, 1)
    _at_least("noise_level", noise_level, 0)
    _at_least("subject_scale", subject_scale, 0)
    if latent_dim > n_features:
        raise ConfigError(f"latent_dim {latent_dim} exceeds n_features {n_features}")
    rank = min(trajectory_rank, latent_dim)
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


def _write_framed(path, magic: bytes, header: dict, blocks) -> None:
    """Write ``magic``, the header's length and canonical JSON, padding to 8 bytes, then ``blocks``."""
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    prefix = magic + struct.pack("<I", len(text)) + text
    with atomic_write(path, "wb") as fh:
        fh.write(prefix + bytes(-len(prefix) % 8))
        for block in blocks:
            fh.write(block)


def _read_framed(fh, magic: bytes, what: str) -> tuple[dict, int, int]:
    """``(header, data start, file size)`` of an open file ``_write_framed`` wrote.

    The file is left positioned at the end of the header.
    """
    size = os.fstat(fh.fileno()).st_size
    prefix = fh.read(8)
    if prefix[:4] != magic:
        raise ParseError(f"bad magic at byte 0; not a {what}")
    if len(prefix) < 8:
        raise ParseError(f"truncated {what} header at byte {len(prefix)}")
    end = 8 + struct.unpack("<I", prefix[4:])[0]
    if end > size:
        raise ParseError(f"truncated {what} header at byte {size}")
    try:
        header = json.loads(fh.read(end - 8).decode("utf-8"))
    except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
        raise ParseError(f"unreadable {what} header: {exc}") from exc
    if not isinstance(header, dict):
        raise ParseError(f"{what} header is not a JSON object")
    return header, end + (-end % 8), size


def save_dataset(dataset: MultiSubjectDataset, path) -> None:
    labels = []
    for rec in dataset.subjects:
        if rec.labels is not None:
            labels.append(np.ascontiguousarray(rec.labels, dtype="<i4"))  # wraps out-of-range ints
            if not np.array_equal(labels[-1], rec.labels):
                raise LabelOutOfRange(f"subject {rec.subject_id!r} has a label outside the "
                                      f"int32 range of the packed format")
    header = {"format_version": FORMAT_VERSION, "n_features": dataset.n_features,
              "subjects": [{"subject_id": rec.subject_id,
                            "group": None if rec.group is None else int(rec.group),
                            "timesteps": rec.n_timesteps, "labelled": rec.labels is not None}
                           for rec in dataset.subjects]}
    for entry in header["subjects"]:  # write no file the loader would reject
        _subject_entry(entry, f"dataset to save as {path}")
    _write_framed(path, MAGIC, header,
                  [np.ascontiguousarray(rec.data, dtype="<f8") for rec in dataset.subjects]
                  + labels)


def _subject_entry(entry, where: str) -> tuple:
    """``(subject_id, group)`` of a manifest or packed-header subject entry, checked."""
    if not isinstance(entry, dict):
        raise ParseError(f"{where}: 'subjects' must be a list of objects")
    subject_id, group = entry.get("subject_id"), entry.get("group")
    if not isinstance(subject_id, str):
        raise ParseError(f"{where}: 'subject_id' must be a string")
    if not (group is None or (is_count(group, 0) and group < 2 ** 31)):
        raise ParseError(f"{where}: 'group' must be an integer in [0, 2**31) or null")
    return subject_id, group


def _binary_source(fh) -> _Source:
    """Parse the header and bound every size; the source then reads one subject's rows at a time."""
    header, start, size = _read_framed(fh, MAGIC, "packed dataset")
    if header.get("format_version") != FORMAT_VERSION:
        raise ParseError(f"packed dataset header has format_version "
                         f"{header.get('format_version')!r}; this reader reads {FORMAT_VERSION}")
    n_features, entries = header.get("n_features"), header.get("subjects")
    if not is_count(n_features, 1) or not isinstance(entries, list):
        raise ParseError("packed dataset header needs 'n_features' (an integer >= 1) "
                         "and 'subjects' (a list)")
    records = []
    for entry in entries:
        subject_id, group = _subject_entry(entry, "packed dataset header")
        n_t, labelled = entry.get("timesteps"), entry.get("labelled")
        if not is_count(n_t, 0) or not isinstance(labelled, bool):
            raise ParseError(f"packed dataset header: subject {subject_id!r} needs 'timesteps' "
                             f"(an integer >= 0) and 'labelled' (a bool)")
        records.append((subject_id, n_t, labelled, group))
    offsets = _offsets(records).tolist()
    n_labels = sum(n_t for _, n_t, labelled, _ in records if labelled)
    labels_at = start + 8 * offsets[-1] * n_features
    if labels_at + 4 * n_labels != size:
        raise ParseError(f"packed dataset header accounts for {labels_at + 4 * n_labels} "
                         f"bytes, the file has {size}")
    fh.seek(labels_at)
    labels = iter(np.split(np.frombuffer(fh.read(4 * n_labels), dtype="<i4").astype(np.int64),
                           np.cumsum([n_t for _, n_t, labelled, _ in records if labelled])))
    records = [(sid, n_t, next(labels) if labelled else None, group)
               for sid, n_t, labelled, group in records]

    def rows(i: int, into: np.ndarray) -> np.ndarray:
        at = start + 8 * offsets[i] * n_features
        fh.seek(at)
        if fh.readinto(into) != into.nbytes:
            raise ParseError(f"truncated while reading data of subject {records[i][0]!r} "
                             f"at byte {at}")
        return into
    return _Source(records, n_features, {"n_features": n_features}, rows,
                   packed=(fh, start))


def _csv_rows(path):
    """The non-empty rows of a CSV file, each a list of its fields."""
    with open(path, newline="", encoding="utf-8") as fh:
        yield from (row for row in csv.reader(fh) if row)


def _csv_source(manifest_path) -> _Source:
    """Parse a JSON manifest of per-subject CSV files into a source of its subjects.

    The manifest is ``{"n_features": int (optional), "subjects": [{"subject_id":
    str, "csv_path": str, "label_path": str or null, "group": int or null}]}``;
    paths are relative to the manifest and a label file holds whitespace-
    separated integers.  Opening the manifest reads each CSV once to count
    its rows and check their widths, and keeps no value; ``rows(i, into)``
    parses subject i's file straight into ``into``.
    """
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
        raise ParseError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ParseError(f"manifest {manifest_path} is not a JSON object")
    where = f"manifest {manifest_path}"

    def check(ok: bool, field: str, want: str) -> None:
        if not ok:
            raise ParseError(f"{where}: {field!r} must be {want}")

    entries = manifest.get("subjects")
    check(isinstance(entries, list), "subjects", "a list of objects")
    expect_n = manifest.get("n_features")
    check(expect_n is None or is_count(expect_n, 1), "n_features", "an integer >= 1")
    records, paths, widths = [], [], set()
    for entry in entries:
        subject_id, group = _subject_entry(entry, where)
        check(isinstance(entry.get("csv_path"), str), "csv_path", "a string")
        check(entry.get("label_path") is None or isinstance(entry["label_path"], str),
              "label_path", "a string or null")
        csv_path = manifest_path.parent / entry["csv_path"]
        row_widths = [len(row) for row in _csv_rows(csv_path)]
        if len(set(row_widths)) > 1:
            raise ParseError(f"{csv_path}: rows differ in length")
        if not row_widths:
            raise ShapeError(f"subject {subject_id!r} data must be 2-D, got shape (0,)")
        if expect_n is not None and row_widths[0] != expect_n:
            raise ShapeError(
                f"subject {subject_id!r} has width {row_widths[0]}, manifest says {expect_n}")
        labels = None
        if entry.get("label_path"):
            label_path = manifest_path.parent / entry["label_path"]
            named = f"{where}: 'label_path' {label_path} of subject {subject_id!r}"
            try:
                labels = [int(v) for v in label_path.read_text(encoding="utf-8").split()]
            except ValueError as exc:
                raise ParseError(f"{named} must hold integers: {exc}") from exc
            # the packed format stores labels as int32
            if not all(-2 ** 31 <= v < 2 ** 31 for v in labels):
                raise ParseError(f"{named} holds a label outside [-2**31, 2**31)")
            if len(labels) != len(row_widths):
                raise ShapeError(f"subject {subject_id!r}: {len(labels)} labels "
                                 f"for {len(row_widths)} timesteps")
            labels = np.array(labels, dtype=np.int64)
        records.append((subject_id, len(row_widths), labels, group))
        paths.append(csv_path)
        widths.add(row_widths[0])
    if len(widths) > 1:
        raise ShapeError(f"subjects disagree on feature width: {sorted(widths)}")
    n_features = widths.pop() if widths else 0

    def rows(i: int, into: np.ndarray) -> np.ndarray:
        changed = ParseError(f"{paths[i]} changed after its rows were counted")
        parsed = 0
        for parsed, row in enumerate(_csv_rows(paths[i]), 1):
            if parsed > len(into) or len(row) != n_features:
                raise changed
            try:
                into[parsed - 1] = [float(cell) for cell in row]
            except ValueError as exc:
                raise ParseError(f"{paths[i]}: {exc}") from exc
        if parsed != len(into):
            raise changed
        return into
    return _Source(records, n_features, {"n_features": n_features}, rows)


@contextmanager
def _opened(path, fmt: str):
    """The ``_Source`` of a packed file (open inside the block) or of a CSV manifest."""
    if fmt == "binary":
        with open(path, "rb") as fh:
            yield _binary_source(fh)
    elif fmt == "csv":
        yield _csv_source(path)
    else:
        raise ConfigError(f"unknown dataset format {fmt!r}; expected 'binary' or 'csv'")


def _load_parts(path, fmt: str, plan, center: bool = False):
    """``(source, datasets)``: a file's headers, and the partitions ``plan`` cuts from it.

    ``plan(records)`` sees only the subjects' headers and returns the parts
    ``_fill`` cuts, so its checks fail before any data is read.  Each
    subject is then read once and checked.  ``_streams`` picks the kind of
    block: a packed file with rows at least a page wide, loaded without
    ``center``, gives partitions that read their rows from the file as they
    are used; otherwise the rows go straight into arrays (centered first,
    with ``center``).  Either way the file's data is never held beside them.
    """
    with _opened(path, fmt) as source:
        return source, _fill(source, plan(source.records), center, _streams(source, center))


def load_dataset(path, fmt: str = "binary") -> MultiSubjectDataset:
    """Load a packed binary dataset or a CSV-per-subject manifest, held in memory."""
    with _opened(path, fmt) as source:
        return _fill(source, [_ALL])[0]
