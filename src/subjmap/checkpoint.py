"""Model checkpoint container.

Layout, in the framing packed datasets use too (``datasets._write_framed``):
magic ``SMCP``, u32 header length, canonical-JSON header, zero padding to an
8-byte boundary, then raw float64 little-endian blobs.  The header records
the model spec, subject ids, config hash, and per-blob name, shape, offset
and CRC32, so loads validate integrity before trusting any weights.  Saving
is deterministic: save -> load -> save reproduces the bytes exactly.

Neither direction copies the model.  Saving checksums and writes each
parameter's own buffer (a big-endian host keeps a little-endian copy of
each).  Loading builds the model from the header, then reads each blob
straight into its parameter with ``readinto`` and checks its CRC there.
"""

from __future__ import annotations

import sys
import zlib
from dataclasses import asdict

import numpy as np

from .datasets import _read_framed, _write_framed
from .errors import ParseError, ShapeError
from .models import Model, ModelSpec, build_model

MAGIC = b"SMCP"
FORMAT_VERSION = 1


def save_model(model: Model, path, config_hash: str = "") -> None:
    blobs = []
    payloads = []
    offset = 0
    for name, arr in model.params().items():
        raw = np.ascontiguousarray(arr, dtype="<f8")  # the parameter itself, on little-endian
        blobs.append({
            "name": name,
            "shape": list(arr.shape),
            "offset": offset,
            "crc32": zlib.crc32(raw),
        })
        payloads.append(raw)
        offset += raw.nbytes

    header = {
        "format_version": FORMAT_VERSION,
        "spec": asdict(model.spec),
        "subject_ids": list(model.subject_ids),
        "init_seed": model.init_seed,
        "config_hash": config_hash,
        "blobs": blobs,
    }
    _write_framed(path, MAGIC, header, payloads)


def load_model(path) -> tuple[Model, str]:
    """Reconstruct a model; returns (model, config_hash)."""
    with open(path, "rb") as fh:
        header, data_start, size = _read_framed(fh, MAGIC, "model checkpoint")
        if header.get("format_version") != FORMAT_VERSION:
            raise ParseError(f"checkpoint version {header.get('format_version')}")
        try:
            spec = ModelSpec(**header["spec"])
            init_seed = int(header.get("init_seed", 0))
            subject_ids = list(header["subject_ids"])
            # name -> (shape, offset, crc32)
            stored = {b["name"]: (tuple(b["shape"]), int(b["offset"]), int(b["crc32"]))
                      for b in header["blobs"]}
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"malformed checkpoint header: {exc!r}") from exc
        model = build_model(spec, init_seed, subject_ids)
        params = model.params()

        if set(stored) != set(params):
            raise ShapeError(
                f"blob names {sorted(stored)} do not match model parameters {sorted(params)}")
        for name, arr in params.items():
            shape, offset, crc32 = stored[name]
            if shape != arr.shape:
                raise ShapeError(
                    f"blob {name!r} has shape {list(shape)}, model expects {list(arr.shape)}")
            begin = data_start + offset
            if offset < 0 or begin + arr.nbytes > size:
                raise ParseError(f"truncated blob {name!r} at byte {size}")
            fh.seek(begin)
            if fh.readinto(arr) != arr.nbytes:  # into the parameter's own buffer
                raise ParseError(f"truncated blob {name!r} at byte {begin}")
            if zlib.crc32(arr) != crc32:
                raise ParseError(f"blob {name!r} failed its checksum")
            if sys.byteorder == "big":
                arr.byteswap(inplace=True)
    return model, header.get("config_hash", "")
